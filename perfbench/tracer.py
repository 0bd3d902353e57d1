"""In-memory span tracer for the oneshot_qit layers, kept outside the program.

``Tracer.install(package)`` wraps, in each layer module, every public function,
the constructor of every public class and every public method defined in that
class.  A wrapped function is rebound under every name that any module of the
package (or a module-level dict such as ``cli.RUNNERS``) binds to it, so a name
imported with ``from .entropy import dmax`` is traced where it is called.
``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh`` become child spans of layer
``linalg`` that also record the matrix side length.  ``uninstall`` puts every
original back.  Spans stay in memory; ``summarize`` turns them into per-name
statistics, where a span's self time is its duration minus that of its direct
children, and an eigensolve is attributed to its innermost enclosing span.

This module imports nothing outside the standard library at import time, so a
pass process can import it before its timed set-up starts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("registers", "entropy", "convexsplit", "circuits", "flatten",
          "coding", "cli")
EIG_FUNCS = ("eigh", "eigvalsh")

# span record fields
NAME, LAYER, START, END, PARENT, DIM, WORK = range(7)


def _eig_size(args, kwargs):
    """(side length, batch * side^3) of the matrix handed to an eigensolver."""
    mat = args[0] if args else kwargs["a"]
    shape = getattr(mat, "shape", None) or (len(mat), len(mat))
    dim = int(shape[-1])
    batch = 1
    for extent in shape[:-2]:
        batch *= int(extent)
    return dim, batch * dim ** 3


class Tracer:
    """Records nested spans as [name, layer, start, end, parent, dim, work]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self._undo = []

    def _enter(self, name, layer):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, self.clock(), None, parent, 0, 0])
        self._open.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][END] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        idx = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name, layer, sizer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name, layer)
            try:
                if sizer is not None:
                    self.spans[idx][DIM], self.spans[idx][WORK] = \
                        sizer(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, package):
        """Wrap the layer modules of ``package`` and numpy's eigensolvers."""
        import numpy.linalg

        prefix = package.__name__
        wrapped = {}     # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}",
                                                       layer))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                meth == "__init__" or not meth.startswith("_")):
                            name = f"{layer}.{attr}" if meth == "__init__" \
                                else f"{layer}.{attr}.{meth}"
                            self._set(obj, meth, self.wrap(fn, name, layer))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == prefix
                                   or name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif type(obj) is dict:
                    for key, val in list(obj.items()):
                        hit = wrapped.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._set(obj, key, hit[1])
        for fname in EIG_FUNCS:
            self._set(numpy.linalg, fname,
                      self.wrap(getattr(numpy.linalg, fname),
                                f"linalg.{fname}", "linalg", _eig_size))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def summarize(spans):
    """Per-name statistics of closed spans.

    Returns {name: {"layer", "calls", "total_s", "self_s", "eig_calls",
    "eig_work"}} where eig_* count the eigensolves whose innermost enclosing
    span has that name, plus {"linalg": ...} totals over the eigensolves made
    inside a layer span: calls and seconds per solver and the largest side.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    stats = {}
    linalg = {"eig_max_dim": 0}
    for fname in EIG_FUNCS:
        linalg[f"{fname}.calls"] = 0
        linalg[f"{fname}.s"] = 0.0
    for idx, span in enumerate(spans):
        name, layer = span[NAME], span[LAYER]
        dur = span[END] - span[START]
        if layer == "linalg":
            parent = span[PARENT]
            if parent < 0 or spans[parent][LAYER] not in LAYERS:
                continue
            owner = stats[spans[parent][NAME]]
            owner["eig_calls"] += 1
            owner["eig_work"] += span[WORK]
            solver = name.split(".", 1)[1]
            linalg[f"{solver}.calls"] += 1
            linalg[f"{solver}.s"] += dur
            linalg["eig_max_dim"] = max(linalg["eig_max_dim"], span[DIM])
            continue
        entry = stats.setdefault(name, {
            "layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0,
            "eig_calls": 0, "eig_work": 0})
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - child_s[idx]
    return stats, linalg
