"""Source hygiene gates that need no installed linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oneshot_qit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def unread_private_names(sources):
    """(module, line, name) of each private name that a module defines at
    module or class level and that no module in ``sources`` reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = []
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
                defined += [(mod, node.lineno, name) for name in names
                            if name.startswith("_") and not name.endswith("__")]
    return sorted(item for item in defined if item[2] not in read)


def det_calls(source):
    """Lines that call numpy's det, as ``*.linalg.det(...)`` or as a ``det``
    imported from numpy.linalg."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
             for alias in node.names if alias.name == "det"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "det" \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr == "linalg":
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_gate_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .convexsplit import PrimeRegister, hw_family\n"
              "import numpy as np\n"
              "x = np.zeros(hw_family(2)[0].dim)\n")
    assert unused_imports(source) == [(2, "math"), (3, "PrimeRegister")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


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
    assert unread_private_names(sources) == [
        ("a.py", 4, "_orphan"), ("a.py", 8, "_spare"), ("a.py", 9, "_grow")]


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
