"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each layer's public functions with wrappers
that record a span ``[name, parent, start, end, counts]`` in memory.  It
rebinds every attribute of every ``cehgeom`` module that refers to the
function, so calls between modules (``from .tensors import metric``) are
traced too; ``uninstall()`` puts the originals back.  Calls inside one
module go through its globals, which are the same module attributes.

Spans of one item are folded into per-layer totals (``fold``) once the
kernel sample after the item is known, so memory stays bounded by the
items of one kernel interval.  A span's
self time is its duration minus that of its direct children; the self
times of all layers, ``cli`` included, add up to the item's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: layer name -> (module, public functions of that module in the layer)
LAYERS = {
    "profiles": ("profiles", None),
    "arclength": ("geodesics", ("radial_arclength",)),
    "tensors": ("tensors", None),
    "curvature": ("curvature", None),
    "hessian": ("hessian", None),
    "volform": ("volform", None),
    "charts": ("charts", None),
    "numdiff": ("numdiff", None),
    "geodesics": ("geodesics", None),
    "cli": ("cli", ("main",)),
}

MODULES = ("profiles", "tensors", "curvature", "charts", "geodesics",
           "hessian", "volform", "numdiff", "cli")

#: the four FD-oracle stages; numdiff self time is attributed to the
#: innermost stage around it instead of to single numdiff functions
STAGES = ("fd_metric_from_potential", "fd_christoffel", "fd_riemann",
          "fd_ricci_log_det")

#: fields the Wirtinger stencils differentiate; a call under
#: ``wirtinger_partial`` is one field evaluation
FIELDS = ("tensors.metric", "profiles.potential", "curvature.christoffel_ceh")

_NAME, _PARENT, _START, _END, _COUNTS = range(5)


def _public_functions(mod, names):
    if names is None:
        names = [n for n in getattr(mod, "__all__", ())
                 if inspect.isfunction(getattr(mod, n, None))]
    return {n: getattr(mod, n) for n in names}


class Tracer:
    def __init__(self):
        self.mods = [importlib.import_module("cehgeom")] + [
            importlib.import_module(f"cehgeom.{m}") for m in MODULES]
        self.spans: list = []
        self.top = -1
        self.arclength_args: set = set()
        self.arclength_calls = 0
        self.layer_of: dict = {}
        self._swaps: list = []
        self._plan()

    # -- wrapping -----------------------------------------------------------

    def _plan(self):
        """Pair every module attribute that holds a layer function with its
        wrapper."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(f"cehgeom.{modname}")
            for fname, fn in _public_functions(mod, names).items():
                if id(fn) not in wrappers:  # the first layer to list it owns it
                    label = f"{modname}.{fname}"
                    self.layer_of[label] = layer
                    wrappers[id(fn)] = (fn, self._wrap(fn, label))
        solve_ivp = importlib.import_module("cehgeom.geodesics").solve_ivp
        wrappers[id(solve_ivp)] = (solve_ivp, self._count_nfev(solve_ivp))
        for mod in self.mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._swaps.append((mod, attr, value, wrappers[id(value)][1]))

    def install(self):
        for mod, attr, _, wrapper in self._swaps:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._swaps:
            setattr(mod, attr, original)

    def _wrap(self, fn, label):
        spans = self.spans
        clock = time.perf_counter
        on_return = None
        if label == "geodesics.integrate":
            on_return = _trajectory_counts
        track_u = label == "geodesics.radial_arclength"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_u:
                u, params = args[0], args[1]
                self.arclength_args.add((float(u), params.n, params.a))
                self.arclength_calls += 1
            rec = [label, self.top, 0.0, 0.0, None]
            parent = self.top
            self.top = len(spans)
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                self.top = parent
            if on_return is not None:
                rec[_COUNTS] = {**(rec[_COUNTS] or {}), **on_return(result)}
            return result

        return wrapper

    def _count_nfev(self, solve_ivp):
        """``solve_ivp`` as ``geodesics`` sees it, adding ``nfev`` to the
        enclosing span; not a span itself (scipy is not a layer)."""
        spans = self.spans

        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            if self.top >= 0:
                rec = spans[self.top]
                counts = rec[_COUNTS] or {}
                counts["ivp_nfev"] = counts.get("ivp_nfev", 0) + int(sol.nfev)
                rec[_COUNTS] = counts
            return sol

        return wrapper

    # -- folding ------------------------------------------------------------

    def take(self) -> list:
        """Detach the spans recorded since the last call."""
        spans = self.spans[:]
        self.spans.clear()
        self.top = -1
        return spans

    def fold(self, spans: list, factor: float, into: dict) -> None:
        """Add one item's spans, times scaled by ``factor``, to ``into``."""
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        stage = [None] * len(spans)
        in_stencil = [False] * len(spans)
        ms = 1e3 * factor
        for i, rec in enumerate(spans):
            name, parent = rec[_NAME], rec[_PARENT]
            layer = self.layer_of[name]
            short = name.split(".", 1)[1]
            if parent >= 0:
                stage[i] = stage[parent]
                in_stencil[i] = in_stencil[parent]
            if short in STAGES:
                stage[i] = short
            if short == "wirtinger_partial":
                in_stencil[i] = True
            self_ms = (rec[_END] - rec[_START] - child[i]) * ms
            into[f"{layer}.self_ms"] += self_ms
            into[f"{layer}.calls"] += 1
            if layer != "numdiff":
                into[f"{name}.calls"] += 1
                into[f"{name}.self_ms"] += self_ms
            elif stage[i] is not None:
                into[f"numdiff.{stage[i]}.self_ms"] += self_ms
            if name in FIELDS and parent >= 0 and in_stencil[parent]:
                into["numdiff.field_evals"] += 1
            counts = rec[_COUNTS]
            if counts:
                for key, value in counts.items():
                    into[f"{name}.{key}"] += value


def _trajectory_counts(traj) -> dict:
    sol = traj.sol
    return {"nfev": int(sol.nfev), "steps": int(sol.t.size - 1)}
