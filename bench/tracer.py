"""Span tracer that wraps the package's functions from outside.

``Tracer`` replaces each traced function by a wrapper that records one
span per call (name, start, end, parent) in memory, and restores the
originals on exit.  A module that did ``from .operators import multiply``
holds its own binding, so every binding of the function in every package
module is replaced, not only the defining one.

Self time of a span is its duration minus the durations of its direct
children.  A layer is a package module; its self time is the sum over
the spans of its functions.

The tracer assumes one thread: the benchmark runs with SCHWINGER_THREADS
unset, so the CLI analyses blocks in the calling thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("fock", "operators", "angular", "spectra", "classical", "cli")

# Functions that per-layer metrics name.  Private ones and methods are not
# found by the public-function scan, so they are listed here.  A later
# program may delete any of them; it is then reported absent.
NAMED = (
    "fock.build_basis",
    "operators.SparseOperator.to_csr", "operators.annihilation",
    "operators.from_entries", "operators.multiply",
    "angular.build_set", "angular.extract_block", "angular.casimir",
    "spectra.jacobi_eigen",
    "classical.sample_states", "classical.classical_components",
    "cli._emit", "cli._analyze_one_block",
)


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


def _offdiag_below_tol(args, kwargs) -> bool:
    """True when jacobi_eigen's input already meets its convergence test."""
    a = np.asarray(args[0] if args else kwargs["matrix"])
    tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-12)
    off = np.abs(a - np.diag(np.diag(a)))
    return a.shape[0] < 2 or float(off.max()) < tol


def _len_arg(args, kwargs, pos, name) -> int:
    return len(args[pos] if len(args) > pos else kwargs[name])


# Counters taken at a span boundary: (counter, f(args, kwargs, result)).
COUNTERS = {
    "fock.build_basis": [("states", lambda a, k, r: len(r.states))],
    "operators.to_csr": [("nnz", lambda a, k, r: r.nnz)],
    "operators.from_entries": [
        ("triplets_in", lambda a, k, r: _len_arg(a, k, 1, "rows")),
        ("nnz_out", lambda a, k, r: r.nnz),
    ],
    "angular.extract_block": [("block_bytes", lambda a, k, r: _array_bytes(r))],
    "spectra.jacobi_eigen": [
        ("diagonal_inputs", lambda a, k, r: int(_offdiag_below_tol(a, k)))],
}


class Tracer:
    """Context manager: patch on enter, restore on exit, spans kept in memory."""

    def __init__(self, named=NAMED):
        self.named = named
        self.names: list[str] = []      # span name -> index in this list
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_hook: list[float] = []  # counter time, charged to no layer
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _targets(self, modules):
        """(span name, owner, attribute, function) for each traced function."""
        found = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    found[f"{layer}.{attr}"] = (mod, attr, obj)
        for dotted in self.named:
            layer, *path = dotted.split(".")
            owner = modules[layer]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            obj = getattr(owner, path[-1], None) if owner is not None else None
            if not inspect.isfunction(obj):
                self.absent.append(dotted)
                continue
            found[f"{layer}.{path[-1]}"] = (owner, path[-1], obj)
        return found

    def __enter__(self):
        modules = {layer: importlib.import_module(f"schwinger.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module("schwinger"), *modules.values()]
        for name, (owner, attr, fn) in self._targets(modules).items():
            wrapped = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
            # every module-level binding of the function, wherever imported
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hooks = COUNTERS.get(name, ())
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_hook.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if hooks:
                for counter, count in hooks:
                    key = f"{name}.{counter}"
                    try:
                        value = count(args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        # the function's signature or result changed shape
                        if key not in self.absent:
                            self.absent.append(key)
                        continue
                    self.counters[key] = self.counters.get(key, 0) + value
                self.span_hook[idx] = clock() - self.span_end[idx]
            return result

        return traced

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per function and per layer: calls and self seconds, plus counters."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i] + self.span_hook[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self_s.items():
            layer_self[name.split(".")[0]] += seconds
        return {"calls": calls, "self_s": self_s, "layer_self_s": layer_self,
                "counters": dict(self.counters), "absent": list(self.absent),
                "spans": n, "hook_s": sum(self.span_hook)}
