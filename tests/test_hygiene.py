"""Source hygiene gates that need no installed linter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oneshot_qit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# what runs the package besides its own modules: the acceptance suite and
# the benchmark (``__init__.py`` is left out, as its re-exports would count
# as reads)
RUNNERS = [ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def shadowed_names(trees):
    """Spellings a read of which may be a read of something else: names
    defined more than once at module or class level, module names, and
    attributes assigned on ``self``."""
    seen = [name for _, _, name, _ in definitions(trees)]
    return ({name for name in seen if seen.count(name) > 1}
            | {Path(mod).stem for mod in trees}
            | {name for tree in trees.values()
               for _, name in self_attributes(tree)})


def definitions(trees):
    """(module, line, name, node) of each name defined at module or class
    level; a function's line is that of its first decorator, as in its code
    object."""
    found = []
    for mod, tree in trees.items():
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    continue
                line = min([node.lineno] + [d.lineno for d in getattr(
                    node, "decorator_list", [])])
                found += [(mod, line, name, node) for name in names]
    return found


def unread_names(sources, readers=None, public=False, called=None):
    """(module, line, name) of each private name (each public one, with
    ``public``) that a module of ``sources`` defines at module or class
    level and that no source in ``readers`` reads; ``readers`` defaults to
    ``sources``, and dunder names never count.

    With ``called``, the (module, line, name) of each function that a run
    called, a function or method of a `shadowed_names` spelling, or of the
    spelling of a variable or argument of a reader, counts as read only if
    it is in ``called``: a read of its spelling may read the other name."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read, bound = set(), set()
    for text in (sources if readers is None else readers).values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    shadowed = set() if called is None else shadowed_names(trees) | bound
    unread = []
    for mod, line, name, node in definitions(trees):
        if name.startswith("_") == public or name.endswith("__"):
            continue
        if isinstance(node, ast.FunctionDef) and name in shadowed:
            if (mod, line, name) not in called:
                unread.append((mod, line, name))
        elif name not in read:
            unread.append((mod, line, name))
    return sorted(unread)


def calls_during(run, directory):
    """(file name, first line, name) of each Python function in a file of
    ``directory`` that ``run()`` calls, from a profile of the run."""
    called = set()

    def note(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(note)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(Path(code.co_filename).name, code.co_firstlineno, code.co_name)
            for code in called
            if Path(code.co_filename).resolve().parent == directory}


def run_the_system(workdir):
    """Every test of tests/test_acceptance.py, then every CLI subcommand at
    its default flags, in this process; files go to ``workdir``."""
    import test_acceptance
    from oneshot_qit import cli
    for name, test in vars(test_acceptance).items():
        if name.startswith("test_"):
            test(*[workdir] * test.__code__.co_argcount)
    for name in cli.RUNNERS:
        assert cli.main([name, "--out", str(workdir / f"{name}.csv")]) == 0


def linalg_calls(tree, name):
    """Call nodes of numpy's linalg function ``name``, as
    ``*.linalg.<name>(...)`` or as a ``name`` imported from numpy.linalg."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
             for alias in node.names if alias.name == name}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == name \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr == "linalg":
            calls.append(node)
        elif isinstance(func, ast.Name) and func.id in names:
            calls.append(node)
    return calls


def det_calls(source):
    """Lines that call numpy's det."""
    return sorted(node.lineno for node in linalg_calls(ast.parse(source), "det"))


def unread_eigenvectors(source):
    """(function, line, name) of each ``vals, vecs = eigh(...)`` whose
    function never reads ``vecs``: eigvalsh gives the values alone."""
    tree = ast.parse(source)
    eighs = set(linalg_calls(tree, "eigh"))
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        own = list(func.body)   # this function's statements, not nested ones
        while own:
            node = own.pop()
            own.extend(child for child in ast.iter_child_nodes(node)
                       if not isinstance(child, scopes))
            if isinstance(node, ast.Assign) and node.value in eighs:
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and len(target.elts) == 2 \
                            and isinstance(target.elts[1], ast.Name) \
                            and target.elts[1].id not in read:
                        found.append((func.name, node.lineno, target.elts[1].id))
    return sorted(found, key=lambda item: item[1])


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_gate_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .convexsplit import PrimeRegister, prime_register\n"
              "import numpy as np\n"
              "x = np.zeros(prime_register(2).prime)\n")
    assert unused_imports(source) == [(2, "math"), (3, "PrimeRegister")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_names(sources) == []


def test_gate_catches_an_unread_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "def _helper():\n"
                 "    return _LIMIT\n"
                 "def _orphan():\n"
                 "    pass\n"
                 "class Box:\n"
                 "    _size: int = 2\n"
                 "    _spare = 0\n"
                 "    def _grow(self):\n"
                 "        self._spare = self._size\n"),
        "b.py": "from .a import _helper\n",
    }
    assert unread_names(sources) == [
        ("a.py", 4, "_orphan"), ("a.py", 8, "_spare"), ("a.py", 9, "_grow")]


def self_attributes(tree):
    """(line, name) of each attribute set on ``self``: by assignment, or
    by ``object.__setattr__(self, "name", ...)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            found.append((node.lineno, node.attr))
        elif _is_call_of(node, "__setattr__") and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "self" \
                and isinstance(node.args[1], ast.Constant):
            found.append((node.lineno, node.args[1].value))
    return found


def unread_attributes(sources, readers):
    """(module, line, name) of each attribute that a module of ``sources``
    sets on ``self`` and that no source in ``readers`` reads, as an
    attribute or by ``getattr(x, "name")``."""
    read = set()
    for text in readers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif _is_call_of(node, "getattr") and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
    return sorted((mod, line, name) for mod, text in sources.items()
                  for line, name in self_attributes(ast.parse(text))
                  if name not in read)


def test_every_attribute_set_on_self_is_read():
    # a member nothing reads is state kept for no one: the package, the
    # acceptance suite or the benchmark must read it
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = dict(sources, **{str(p.relative_to(ROOT)): p.read_text()
                               for p in RUNNERS})
    assert unread_attributes(sources, readers) == []


def test_gate_catches_an_unread_attribute():
    sources = {
        "a.py": ("class Box:\n"
                 "    def __init__(self, n):\n"
                 "        self.size, self.spare = n, 0\n"
                 "        self._cache = None\n"
                 "        object.__setattr__(self, '_field', n)\n"
                 "        object.__setattr__(self, '_orphan', n)\n"
                 "        other.loose = n\n"
                 "    def grow(self):\n"
                 "        return self.size + self._field\n"),
    }
    readers = dict(sources, **{
        "perfbench/run.py": "import a\ngetattr(a.Box(1), '_cache')\n"})
    assert unread_attributes(sources, readers) == [
        ("a.py", 3, "spare"), ("a.py", 6, "_orphan")]
    assert unread_attributes(sources, sources) == [
        ("a.py", 3, "spare"), ("a.py", 4, "_cache"), ("a.py", 6, "_orphan")]


def test_every_public_name_is_run(tmp_path):
    # a function, class, method or constant that only the tests read is a
    # capability the system does not run: it goes, or it moves to
    # tests/oracles.py as a dense oracle.  A function whose spelling is
    # shadowed must be called by the acceptance suite or the CLI: a read of
    # the spelling may read the other name.
    sources = {p.name: p.read_text() for p in MODULES}
    readers = dict(sources, **{str(p.relative_to(ROOT)): p.read_text()
                               for p in RUNNERS})
    called = calls_during(lambda: run_the_system(tmp_path), PACKAGE)
    assert unread_names(sources, readers, public=True, called=called) == []


def test_gate_catches_an_unread_public_name():
    sources = {
        "a.py": ("LIMIT = 3\n"
                 "SPARE: int = 4\n"
                 "def helper():\n"
                 "    return LIMIT\n"
                 "def oracle():\n"
                 "    return _dense()\n"
                 "class Box:\n"
                 "    size = 2\n"
                 "    def grow(self):\n"
                 "        return self.size\n"
                 "    def shrink(self):\n"
                 "        pass\n"
                 "    def __repr__(self):\n"
                 "        return 'Box'\n"
                 "class Spare:\n"
                 "    pass\n"
                 "def _dense():\n"
                 "    pass\n"),
        "b.py": "from .a import helper\n",
    }
    readers = dict(sources, **{
        "perfbench/run.py": "import a\na.Box().grow()\n"})
    tests = {"tests/test_a.py": ("from a import oracle, Spare, SPARE\n"
                                 "a.Box().shrink()\n")}
    assert unread_names(sources, dict(readers, **tests), public=True) == []
    assert unread_names(sources, readers, public=True) == [
        ("a.py", 2, "SPARE"), ("a.py", 5, "oracle"), ("a.py", 11, "shrink"),
        ("a.py", 15, "Spare")]


def test_gate_catches_a_public_name_read_only_by_its_spelling():
    # a method shadowed by another class's method, a function by a module
    # name, a method by an attribute set on self, a function by a variable
    sources = {
        "a.py": ("class Circuit:\n"
                 "    def inverse(self):\n"
                 "        pass\n"
                 "class Map:\n"
                 "    def inverse(self):\n"
                 "        pass\n"
                 "    def matrix(self):\n"
                 "        pass\n"
                 "class State:\n"
                 "    def __init__(self, m):\n"
                 "        self.matrix = m\n"
                 "def wires(gate):\n"
                 "    return gate\n"),
        "flatten.py": ("def flatten(x):\n"
                       "    return x\n"
                       "def round_up(x):\n"
                       "    return x\n"),
    }
    readers = dict(sources, **{"perfbench/run.py": (
        "from pkg import a, flatten\n"
        "from pkg.flatten import round_up\n"
        "wires = [a.Circuit]\n"
        "a.Map().inverse(), a.State(0).matrix, round_up(wires)\n")})
    assert unread_names(sources, readers, public=True) == []
    called = {("a.py", 5, "inverse")}
    shadowed = [("a.py", 2, "inverse"), ("a.py", 7, "matrix"),
                ("a.py", 12, "wires"), ("flatten.py", 1, "flatten")]
    assert unread_names(sources, readers, public=True, called=called) \
        == shadowed
    assert unread_names(sources, readers, public=True,
                        called=called | set(shadowed)) == []


def test_profile_records_the_package_functions_a_run_calls():
    from oneshot_qit import registers
    called = calls_during(lambda: registers.maximally_mixed(
        registers.RegisterSystem([("A", 2)])), PACKAGE)
    code = registers.maximally_mixed.__code__
    assert ("registers.py", code.co_firstlineno, "maximally_mixed") in called
    assert "random_density" not in {name for _, _, name in called}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_determinant_calls(path):
    # log-determinants come from a Cholesky factor: det underflows to 0
    # (and log(max(det, tiny)) saturates) once S has a few tiny eigenvalues
    assert det_calls(path.read_text()) == []


def test_gate_catches_a_determinant_call():
    source = ("import numpy as np\n"
              "from numpy.linalg import det as dt, slogdet\n"
              "a = np.linalg.det(m)\n"
              "b = np.linalg.slogdet(m)\n"
              "c = dt(m) + slogdet(m)[1]\n"
              "d = tree.det(m)\n")
    assert det_calls(source) == [3, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_eigenvectors(path):
    assert unread_eigenvectors(path.read_text()) == []


def test_gate_catches_unread_eigenvectors():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigh as eh\n"
              "def spectrum(m):\n"
              "    vals, vecs = np.linalg.eigh(m)\n"
              "    return vals\n"
              "def rotate(m):\n"
              "    vals, vecs = np.linalg.eigh(m)\n"
              "    return vecs @ np.diag(vals)\n"
              "def renamed(m):\n"
              "    w, _ = eh(m)\n"
              "    return w\n"
              "def closure(m):\n"
              "    vals, vecs = np.linalg.eigh(m)\n"
              "    def inner():\n"
              "        return vecs\n"
              "    return inner\n"
              "def nested(m):\n"
              "    def inner():\n"
              "        vals, vecs = np.linalg.eigh(m)\n"
              "        return vals\n"
              "    vecs = inner()\n"
              "    return vecs\n"
              "def values_only(m):\n"
              "    vals = np.linalg.eigvalsh(m)\n"
              "    return vals\n")
    assert unread_eigenvectors(source) == [
        ("spectrum", 4, "vecs"), ("renamed", 10, "_"), ("inner", 19, "vecs")]


def state_matrix_eighs(source):
    """Lines that eigensolve ``<x>.matrix`` with eigh or sqrtm_psd outside
    the DensityOperator class, whose memoised eigensystem every other
    reader takes."""
    tree = ast.parse(source)
    owner = {id(node) for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == "DensityOperator"
             for node in ast.walk(cls)}
    roots = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sqrtm_psd"]
    return sorted(node.lineno for node in linalg_calls(tree, "eigh") + roots
                  if id(node) not in owner and node.args
                  and isinstance(node.args[0], ast.Attribute)
                  and node.args[0].attr == "matrix")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_state_matrix_eigensolved_outside_its_memo(path):
    assert state_matrix_eighs(path.read_text()) == []


def test_gate_catches_a_state_matrix_eigensolve():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigh as eh\n"
              "class DensityOperator:\n"
              "    def _eigh(self):\n"
              "        return np.linalg.eigh(self.matrix)\n"
              "def spectrum(state):\n"
              "    return np.linalg.eigh(state.matrix)\n"
              "def renamed(rho):\n"
              "    return eh(rho.matrix)[0]\n"
              "def root(rho):\n"
              "    return sqrtm_psd(rho.matrix)\n"
              "def others(m, state):\n"
              "    return np.linalg.eigh(m), np.linalg.eigvalsh(state.matrix)\n")
    assert state_matrix_eighs(source) == [7, 9, 11]


def assertion_catches(source):
    """Lines of ``except`` clauses that name AssertionError, alone or in a
    tuple: a failed correctness gate must reach the caller."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        if any(isinstance(c, ast.Name) and c.id == "AssertionError"
               for c in caught):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assertion_error_is_caught(path):
    assert assertion_catches(path.read_text()) == []


def test_gate_catches_a_caught_assertion_error():
    source = ("try:\n"
              "    f()\n"
              "except (ValueError, AssertionError):\n"
              "    pass\n"
              "try:\n"
              "    f()\n"
              "except ValueError:\n"
              "    pass\n"
              "except AssertionError as exc:\n"
              "    raise RuntimeError from exc\n")
    assert assertion_catches(source) == [3, 9]


def assertion_raises(source):
    """Lines that raise AssertionError anywhere but in ``Check.require``,
    where every governing inequality of the package is judged."""
    lines = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) \
                    else child.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError" \
                        and scope != ("Check", "require"):
                    lines.append(child.lineno)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assertion_error_raised_outside_check_require(path):
    assert assertion_raises(path.read_text()) == []


def test_gate_catches_an_assertion_error_raised_outside_check_require():
    source = ("class Check:\n"
              "    def require(self):\n"
              "        raise AssertionError(f'{self.name} failed')\n"
              "def gate(gap):\n"
              "    if gap < -1e-10:\n"
              "        raise AssertionError(f'min eig {gap}')\n"
              "class Report:\n"
              "    def require(self):\n"
              "        raise AssertionError\n")
    assert assertion_raises(source) == [6, 9]


def verdict_records(source):
    """Lines of ``ReportRecord(...)`` calls that pass a verdict where the
    record takes its checks: a record's checks argument (its fifth, or
    ``checks=``) must be a list display or comprehension, and no element
    of a display a comparison, a boolean operation, ``not`` or a constant."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and "ReportRecord" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))):
            continue
        given = node.args[4:5] + [kw.value for kw in node.keywords
                                  if kw.arg == "checks"]
        checks = given[0] if given else None
        elements = checks.elts if isinstance(checks, ast.List) else []
        if not isinstance(checks, (ast.List, ast.ListComp)) or any(
                isinstance(e, (ast.Compare, ast.BoolOp, ast.Constant))
                or isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.Not)
                for e in elements):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_report_record_takes_a_verdict(path):
    assert verdict_records(path.read_text()) == []


def test_gate_catches_a_report_record_given_a_verdict():
    source = ("ReportRecord('a', {}, {}, {}, [rep.bound_check()])\n"
              "ReportRecord('b', {}, {}, {}, ok)\n"
              "cli.ReportRecord('c', {}, {}, {}, rep.bound_satisfied())\n"
              "ReportRecord('d', {}, {}, {}, [x <= y + 1e-9])\n"
              "ReportRecord('e', {}, {}, {}, checks=[not bad, Check(n, x, y)])\n"
              "ReportRecord('f', {}, {}, {}, [c for c in checks])\n"
              "ReportRecord('g', {}, {}, {}, [True])\n"
              "ReportRecord('h', {}, {}, {})\n")
    assert verdict_records(source) == [2, 3, 4, 5, 7, 8]


def min_label_functions(sources):
    """(module, function) of each function that calls ``*.minimum.at``, the
    min-label step of the connected-components fixed point; a nested
    function counts as its own."""
    found = set()
    for mod, text in sources.items():
        for func in ast.walk(ast.parse(text)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(func.body)   # this function's statements only
            while own:
                node = own.pop()
                own.extend(child for child in ast.iter_child_nodes(node)
                           if not isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef,
                                                     ast.Lambda)))
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "at" \
                        and isinstance(node.func.value, ast.Attribute) \
                        and node.func.value.attr == "minimum":
                    found.add((mod, func.name))
    return sorted(found)


def test_one_connected_components_rule():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert len(min_label_functions(sources)) <= 1


def test_gate_catches_a_second_components_rule():
    # a labelling of dense patterns plus a hand-written join over branches
    source = ("import numpy as np\n"
              "def _components(pattern):\n"
              "    rows, cols = np.nonzero(pattern | pattern.T)\n"
              "    labels = np.arange(pattern.shape[0])\n"
              "    new = labels.copy()\n"
              "    np.minimum.at(new, rows, labels[cols])\n"
              "    return new[new]\n"
              "def _blocks(family, branches):\n"
              "    own = np.stack([_components(m != 0) for m in family])\n"
              "    new = np.arange(len(branches) * family.shape[1])\n"
              "    for col in branches.T:\n"
              "        smallest = new.copy()\n"
              "        np.minimum.at(smallest, own[col].ravel(), new)\n"
              "        new = smallest[own[col].ravel()]\n"
              "    return new\n"
              "def _other(a, idx, vals):\n"
              "    np.maximum.at(a, idx, vals)\n"
              "    return np.minimum(a, vals)\n")
    assert min_label_functions({"coding.py": source}) == [
        ("coding.py", "_blocks"), ("coding.py", "_components")]


def duplicate_blocks(sources, size=6):
    """(module, line) pairs where the same ``size`` consecutive code lines
    start more than once across ``sources``.  Code lines are stripped and
    skip blanks, comments and imports."""
    starts = {}
    for mod, text in sources.items():
        imports = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.update(range(node.lineno, node.end_lineno + 1))
        lines = [(no, raw.strip())
                 for no, raw in enumerate(text.splitlines(), 1)
                 if raw.strip() and not raw.strip().startswith("#")
                 and no not in imports]
        for i in range(len(lines) - size + 1):
            block = tuple(line for _, line in lines[i:i + size])
            starts.setdefault(block, []).append((mod, lines[i][0]))
    return sorted(locs for locs in starts.values() if len(locs) > 1)


def test_no_duplicate_code_blocks():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert duplicate_blocks(sources) == []


def test_gate_catches_a_duplicate_block():
    steps = [f"    x{i} = f(x{i - 1})\n" for i in range(1, 6)]
    sources = {
        "a.py": ("import numpy as np\n"
                 "def one(x0):\n" + "".join(steps) + "    return x5\n"),
        "b.py": ("def two(x0):\n" + "".join(steps[:2])
                 + "    # the same steps\n"
                 "\n"
                 "    from .a import one\n" + "".join(steps[2:])
                 + "    return x5\n"
                 "def three(x0):\n"
                 "    return f(x0)\n"),
    }
    assert duplicate_blocks(sources) == [[("a.py", 3), ("b.py", 2)]]


# `wc -l src/oneshot_qit/*.py` of the code that set it
SRC_LINE_CEILING = 3615


def line_count(paths):
    """Total lines of ``paths`` as ``wc -l`` counts them: newline bytes."""
    return sum(path.read_bytes().count(b"\n") for path in paths)


def test_src_within_its_line_ceiling():
    """The package stays within SRC_LINE_CEILING lines, so code removed
    stays removed.  Like the eigensolve ceilings, the ceiling is the count
    of the code that set it: a change that shrinks ``src/`` lowers it, and
    a change that must grow ``src/`` raises it and says why in CHANGES.md."""
    assert line_count(PACKAGE.glob("*.py")) <= SRC_LINE_CEILING


def test_gate_catches_a_source_over_its_line_ceiling(tmp_path):
    # a last line without a newline is not counted, as by wc -l
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text("y = 2\nz = 3")
    assert line_count(sorted(tmp_path.glob("*.py"))) == 4
    (tmp_path / "b.py").write_text("y = 2\nz = 3\n" + "w = 4\n" * 3)
    assert line_count(tmp_path.glob("*.py")) == 8 > 4


DENSE_HW = {"hw_family", "hw_unitary", "HWUnitary"}


def top_level_scopes(source):
    """(name, node) of each module-level statement of ``source``: the name
    of a function or class definition, None for anything else."""
    return [(getattr(node, "name", None), node)
            for node in ast.parse(source).body]


def dense_hw_names(source):
    """Lines that name a dense Heisenberg-Weyl form (``hw_family``,
    ``hw_unitary``, ``HWUnitary``) as a definition, a name, an attribute or
    an import, aliased or not, or that call ``.matrix()``: a dense form of
    a `registers.Monomial`, which only `oracles.dense_matrix` builds."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in DENSE_HW \
                or isinstance(node, ast.Attribute) and node.attr in DENSE_HW \
                or isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name in DENSE_HW \
                or isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "matrix":
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                and any(alias.name.split(".")[-1] in DENSE_HW
                        for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_form_of_the_hw_rotations(path):
    # each V_y is a registers.Monomial from convexsplit._hw_gather, applied
    # by gathering: neither HW average nor the channel code multiplies by a
    # dense V_y, and no Monomial is made dense (tests/oracles.py holds the
    # dense family)
    assert dense_hw_names(path.read_text()) == []


def test_gate_catches_a_dense_hw_rotation():
    source = ("from .convexsplit import _hw_gather, hw_family as family\n"
              "from . import convexsplit\n"
              "import oneshot_qit.convexsplit.HWUnitary\n"
              "def encode(d, hw_family_size=3):\n"
              "    mats = [v.matrix.T for v in family(d)]\n"
              "    one = convexsplit.hw_unitary(0, 1, d)\n"
              "    v = _hw_gather(0, 1, d)\n"
              "    return isinstance(one, HWUnitary), 'hw_family'\n"
              "def hw_family(d):\n"
              "    return [hw_unitary(y // d, y % d, d) for y in range(d)]\n"
              "def average(rho, d):\n"
              "    return sum(act(rho, v.matrix) for v in hw_family(d))\n"
              "def lifted(y, d, dims):\n"
              "    v = _hw_gather(*divmod(y, d), d).lift(dims, [1])\n"
              "    return v.matrix(), rho.matrix\n")
    assert dense_hw_names(source) == [1, 3, 6, 8, 9, 10, 12, 15]


# Top-level definitions that may sort or scatter an index array, by module:
# the map type itself, and the sort of component labels into blocks, which
# inverts no map
INDEX_INVERSE_SITES = {("registers.py", "Monomial"),
                       ("registers.py", "_size_groups")}


def index_inverses(module, source):
    """Lines outside INDEX_INVERSE_SITES that call ``argsort`` or scatter
    ``arange`` into an array (``inv[..., src] = np.arange(n)``): the two
    hand-built forms of an index map's inverse, which `Monomial.inverse`
    states once."""
    lines = set()
    for scope, top in top_level_scopes(source):
        if (module, scope) in INDEX_INVERSE_SITES:
            continue
        for node in ast.walk(top):
            if _is_call_of(node, "argsort") \
                    or isinstance(node, ast.Assign) \
                    and _is_call_of(node.value, "arange") \
                    and any(isinstance(t, ast.Subscript)
                            for t in node.targets):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_index_map_inverted_by_hand(path):
    assert index_inverses(path.name, path.read_text()) == []


def test_every_index_inverse_site_is_still_there():
    assert {scope for _, scope in INDEX_INVERSE_SITES} <= {
        scope for scope, _ in
        top_level_scopes((PACKAGE / "registers.py").read_text())}


def test_gate_catches_an_index_map_inverted_by_hand():
    source = ("import numpy as np\n"
              "from numpy import argsort\n"
              "class Monomial:\n"
              "    def inverse(self):\n"
              "        return np.argsort(self.src)\n"
              "def _size_groups(labels):\n"
              "    return np.argsort(labels, kind='stable')\n"
              "def _blocks(src, n):\n"
              "    inverse = np.full(n, -1)\n"
              "    inverse[src] = np.arange(len(src))\n"
              "    rows = np.arange(n)\n"
              "    return inverse, argsort(src)[rows]\n"
              "W_INV = np.argsort(W)\n")
    assert index_inverses("registers.py", source) == [10, 12, 13]
    assert index_inverses("coding.py", source) == [5, 7, 10, 12, 13]


def _is_call_of(node, name):
    """Whether ``node`` calls ``*.name(...)`` or a bare ``name(...)``."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == name
        or isinstance(node.func, ast.Name) and node.func.id == name)


def calls_by_function(tree, match):
    """(enclosing function, line) of each node of ``tree`` that ``match``
    accepts; None at module level, and a nested function counts as its
    own."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((func, child.lineno))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return sorted(found, key=lambda item: item[1])


def kron_eye_calls(source):
    """(enclosing function, line) of each ``*.kron(x, *.eye(y))`` call."""
    return calls_by_function(
        ast.parse(source),
        lambda node: _is_call_of(node, "kron") and len(node.args) == 2
        and _is_call_of(node.args[1], "eye"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_kron_with_a_trailing_identity(path):
    # every operator of the form A (x) I is kept as the pair (A, f) and read
    # through registers.kron_eye_entries
    assert kron_eye_calls(path.read_text()) == []


def test_gate_catches_a_kron_with_a_trailing_identity():
    source = ("import numpy as np\n"
              "from numpy import eye, kron\n"
              "def lift(a, f):\n"
              "    inner = np.kron(np.eye(f), a)\n"
              "    def deep():\n"
              "        return kron(a, eye(f))\n"
              "    return np.kron(a, np.eye(f) / f), np.kron(inner, np.eye(2))\n"
              "TOP = np.kron(np.ones(2), np.eye(2))\n")
    assert kron_eye_calls(source) == [("deep", 6), ("lift", 7), (None, 8)]


SQRT_HELPER = "_eig_inv_sqrt"


def eigh_calls(source):
    """(enclosing function, line) of each numpy eigh call."""
    tree = ast.parse(source)
    eighs = {id(node) for node in linalg_calls(tree, "eigh")}
    return calls_by_function(tree, lambda node: id(node) in eighs)


def test_one_square_root_measurement_eigensolve():
    # every square-root measurement in coding eigensolves S in one helper,
    # so one INV_SQRT_CUT rule decides the support of S
    calls = eigh_calls((PACKAGE / "coding.py").read_text())
    assert [call for call in calls if call[0] != SQRT_HELPER] == []
    assert any(func == SQRT_HELPER for func, _ in calls)


def test_gate_catches_a_second_eigensolve():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigh as eh\n"
              "def _eig_inv_sqrt(total):\n"
              "    return np.linalg.eigh(total)\n"
              "def _successes(total):\n"
              "    vals, vecs = np.linalg.eigh(total)\n"
              "    def inner(m):\n"
              "        return eh(m)\n"
              "    return np.linalg.eigvalsh(total), inner, vecs\n"
              "ROOT = np.linalg.eigh(np.eye(2))\n")
    assert eigh_calls(source) == [(SQRT_HELPER, 4), ("_successes", 6),
                                  ("inner", 8), (None, 10)]


BLOCK_ROUTE_CLASSES = {"convexsplit.py": "PrimeEnsemble", "entropy.py": "Reference"}


def class_eigvalsh_calls(source, cls):
    """Lines of the numpy eigvalsh calls inside the class ``cls``, nested
    functions included."""
    tree = ast.parse(source)
    calls = {id(node) for node in linalg_calls(tree, "eigvalsh")}
    return sorted(node.lineno for top in ast.walk(tree)
                  if isinstance(top, ast.ClassDef) and top.name == cls
                  for node in ast.walk(top) if id(node) in calls)


@pytest.mark.parametrize("module, cls", sorted(BLOCK_ROUTE_CLASSES.items()))
def test_spectra_of_the_structured_classes_take_the_block_route(module, cls):
    # their matrices are block-diagonal up to a permutation of the basis,
    # so they are eigensolved on the components of their exact pattern
    assert class_eigvalsh_calls((PACKAGE / module).read_text(), cls) == []


def test_gate_catches_a_plain_eigvalsh_in_a_structured_class():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigvalsh as ev\n"
              "class Reference:\n"
              "    def rel_entropy(self, rho):\n"
              "        return np.linalg.eigvalsh(rho)\n"
              "    def fidelity(self, rho):\n"
              "        def inner():\n"
              "            return ev(rho)\n"
              "        return inner\n"
              "class Other:\n"
              "    def spectrum(self, rho):\n"
              "        return np.linalg.eigvalsh(rho)\n"
              "def outside(rho):\n"
              "    return np.linalg.eigvalsh(rho)\n")
    assert class_eigvalsh_calls(source, "Reference") == [5, 8]


# A module that numpy imports on the first call of some function, not at
# import: in numpy 2.4.6 an np.unique without return_index, return_inverse
# or return_counts (1-D or along an axis) imports numpy.ma, 18.8 ms of one
# CLI call.
FIRST_CALL_IMPORT = "numpy.ma"
EVERY_SUBCOMMAND = ("from oneshot_qit import cli\n"
                    "for name in cli.RUNNERS:\n"
                    "    assert cli.main([name, '--out', name + '.csv']) == 0\n")


def modules_after(statements, workdir):
    """The names in sys.modules of a fresh interpreter, with the package on
    its path, after it runs ``statements`` in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c",
         statements + "\nimport sys\nprint(*sorted(sys.modules))\n"],
        cwd=workdir, env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_no_first_call_import_in_any_subcommand(tmp_path):
    # every subcommand at its default flags, in one fresh process
    assert FIRST_CALL_IMPORT not in modules_after(EVERY_SUBCOMMAND, tmp_path)


def test_gate_catches_a_first_call_import(tmp_path):
    # if numpy stops importing it on this call, the gate above sees nothing
    assert FIRST_CALL_IMPORT in modules_after(
        "import numpy as np\nnp.unique(np.array([2, 1, 2]))", tmp_path)
