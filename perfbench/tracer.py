"""Per-layer tracing of qobs, installed from outside the library.

``Tracer.install`` wraps every public function and public method (plus
``__init__`` and ``__call__``) defined in each layer module, in every
``qobs`` namespace that binds it, since modules import names directly (for
example ``qobs.fuzz`` binds ``sharp_version``).  It also wraps
``numpy.linalg.eigh`` / ``eigvalsh`` (counted in the ``linalg`` layer) and
the entries of ``qobs.fuzz.CHECKS``.  ``uninstall`` restores every binding.

Each call records a span (name, start, end, parent, op id) in flat arrays
kept in memory; ``write`` saves them at the end of the run.  A span's self
time is its duration minus the durations of its direct children.  Time in
an op outside every wrapped call is charged to the root span ``bench.op``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

import numpy as np

from spec import FUZZ_PROPERTIES, LAYERS

BENCH = "bench"
_SPECIAL = ("__init__", "__call__")
_DECODE = ("decode_", "load_json_file")
_ENCODE = ("encode_", "canonical_json")


def _qobs_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "qobs" or name.startswith("qobs.")) and m is not None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []
        self._last_exc = None
        self.errors = {layer: 0 for layer in LAYERS}
        self.kraus_products = 0
        self.map_calls = 0
        self.eig_calls = 0
        self.eig_distinct = 0
        self._eig_seen: set[int] = set()
        self.reports = 0
        self.resolutions = 0
        self._in_report = 0
        self.root_id = self._name_id("bench.op", BENCH)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self._op_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._eig_seen.clear()
        self._root = self._open(self.root_id)

    def end_op(self) -> None:
        self._close(self._root)
        self._op_id = -1

    def _wrap(self, fn, name: str, layer: str, hook=None):
        name_id = self._name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:  # count where it was raised
                    tracer._last_exc = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(idx)

        return wrapper

    # -- counting hooks ------------------------------------------------------

    def _count_kraus(self, args) -> None:
        self.map_calls += 1
        self.kraus_products += len(args[0].kraus)

    def _count_eig(self, args) -> None:
        self.eig_calls += 1
        digest = hash(np.ascontiguousarray(args[0]).tobytes())
        if digest not in self._eig_seen:
            self._eig_seen.add(digest)
            self.eig_distinct += 1

    def _count_resolution(self, args) -> None:
        if self._in_report:
            self.resolutions += 1

    def _report(self, fn):
        """uncertainty_report, with a depth count so that operand
        resolutions (stochastic_operator / require_hermitian) inside it are
        attributed to reports."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.reports += 1
            tracer._in_report += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_report -= 1

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        import qobs.fuzz  # noqa: F401  (loads every layer module)

        namespaces = _qobs_namespaces()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"qobs.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap_function(obj, layer)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        for op in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, op)
            self._patch(np.linalg, op, self._wrap(fn, f"numpy.linalg.{op}",
                                                  "linalg", self._count_eig))
        for prop, check in list(qobs.fuzz.CHECKS.items()):
            self._undo.append((qobs.fuzz.CHECKS, prop, check))
            qobs.fuzz.CHECKS[prop] = self._wrap(check, f"fuzz.check.{prop}",
                                                "fuzz")

    def _wrap_function(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        hook = None
        if name in ("observables.stochastic_operator", "linalg.require_hermitian"):
            hook = self._count_resolution
        wrapper = self._wrap(fn, name, layer, hook)
        if name == "statistics.uncertainty_report":
            wrapper = self._report(wrapper)
        return wrapper

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in _SPECIAL:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = None
            if name in ("instruments.OperationMap.__call__",
                        "instruments.OperationMap.dual"):
                hook = self._count_kraus
            self._patch(cls, attr, self._wrap(obj, name, layer, hook))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self._name, dtype=np.int32),
                "parent": np.frombuffer(self._parent, dtype=np.int32),
                "op": np.frombuffer(self._op, dtype=np.int32),
                "start": np.frombuffer(self._start, dtype=np.float64),
                "end": np.frombuffer(self._end, dtype=np.float64)}

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(
            {"names": self.names, "layers": self.layer_of})), **self.spans())

    def per_layer(self, n_ops: int, overhead: float) -> dict[str, float]:
        """Every per-layer metric of the spec, as a per-op figure."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        op_total = float(dur[s["name"] == self.root_id].sum())

        def spans_where(pred) -> np.ndarray:
            return np.array([pred(n) for n in self.names])[s["name"]]

        def total_ms(mask) -> float:
            return float(dur[mask].sum()) * 1e3 / n_ops

        def named(name: str) -> np.ndarray:
            return spans_where(lambda n: n == name)

        out: dict[str, float] = {}
        span_layer = np.array(self.layer_of)[s["name"]]
        for layer in LAYERS:
            mask = span_layer == layer
            self_s = float(self_time[mask].sum())
            out[f"{layer}.calls"] = int(mask.sum()) / n_ops
            out[f"{layer}.self_ms"] = self_s * 1e3 / n_ops
            out[f"{layer}.share"] = self_s / op_total if op_total else 0.0
            out[f"{layer}.errors"] = self.errors[layer] / n_ops

        out["instruments.kraus_products"] = self.kraus_products / n_ops
        out["instruments.kraus_per_map"] = (self.kraus_products / self.map_calls
                                            if self.map_calls else 0.0)
        out["linalg.lapack_eig_calls"] = self.eig_calls / n_ops
        out["linalg.eig_ms"] = total_ms(
            spans_where(lambda n: n.startswith("numpy.linalg.")))
        out["linalg.eig_distinct_frac"] = (self.eig_distinct / self.eig_calls
                                           if self.eig_calls else 0.0)
        out["statistics.resolutions_per_report"] = (
            self.resolutions / self.reports if self.reports else 0.0)
        out["observables.effect_validations"] = int(
            named("observables.validate_effect").sum()) / n_ops
        out["states.constructions"] = int(
            named("states.DensityOperator.__init__").sum()) / n_ops
        for kind, prefixes in (("decode", _DECODE), ("encode", _ENCODE)):
            full = tuple(f"serialization.{p}" for p in prefixes)
            match = spans_where(lambda n: n.startswith(full))
            out[f"serialization.{kind}_ms"] = total_ms(
                _outermost(match, s["parent"]))
        out["fuzz.build_ms"] = total_ms(named("fuzz.build_instance"))
        out["fuzz.checks_ms"] = total_ms(
            spans_where(lambda n: n.startswith("fuzz.check.")))
        for prop in FUZZ_PROPERTIES:
            out[f"fuzz.check.{prop}_ms"] = total_ms(named(f"fuzz.check.{prop}"))
        out["trace_overhead"] = overhead
        return out


def _outermost(match: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Drop matching spans that have a matching ancestor, so that nested
    calls (decode_instrument -> decode_observable) are not counted twice."""
    out = match.copy()
    for idx in np.flatnonzero(match):
        up = parent[idx]
        while up >= 0:
            if match[up]:
                out[idx] = False
                break
            up = parent[up]
    return out
