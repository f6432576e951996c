"""Spans and counts around the library's layers, taken from outside.

``Tracer.install`` replaces the public functions of eight ``bureslab``
modules with timing wrappers by patching module attributes, so calls by
bare name inside a module are caught too.  ``Povm.from_basis`` is
patched on the class, functions bound as default arguments (such as
``classical_mi_test(tester=pearson_identity_test)``) are rebound, and
the eigen- and singular-value kernels are patched on ``numpy.linalg``.
``uninstall`` puts every original back.  No file of the library changes.

Spans are recorded only between ``begin_op`` and ``end_op``, so the
benchmark's own input building and output checks never show up.  Each
span keeps its name, start, end, parent span and op id in flat arrays,
and ``write`` saves them at the end of the run.  A layer's self time is
its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: the timed public functions, per layer module
LAYERS = {
    "measurement": ("matching_povms", "Povm.from_basis", "sample_povm",
                    "sample_basis", "filter_subset"),
    "frobenius": ("simple_frobenius", "oracle_estimate"),
    "classical": ("add_one_hybrid",),
    "pipeline": ("plan_budget", "budget_for_scale", "staged_learn",
                 "final_upgrade", "make_state_diagonal", "to_chi2",
                 "to_infidelity", "to_kl"),
    "divergences": ("quantum_chain", "classical_chain", "overlap_pair",
                    "fidelity", "hellinger_sq_q", "bures_chi2",
                    "relative_entropy", "quantum_mutual_information"),
    "linalg": ("eig_hermitian", "psd_sqrt", "trace_norm"),
    "mitest": ("classical_mi_test", "pearson_identity_test",
               "quantum_mi_test", "learn_product_quantum"),
    "harness": ("run_scenario", "make_state", "evaluate_guarantees",
                "csv_rows"),
}
KERNELS = ("eigh", "eigvalsh", "svd")


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "calls/op"
            units[f"{module}.{fn}.self_ms"] = "ms/op"
        if module == "measurement":
            units["measurement.copies_sampled"] = "copies/op"
            units["measurement.copies_filtered"] = "copies/op"
        elif module == "pipeline":
            units["pipeline.planned_copies"] = "copies/op"
            units["pipeline.stages_per_run"] = "stages"
            units["pipeline.forced_stop_share"] = "share"
        elif module == "linalg":
            for k in KERNELS:
                units[f"kernel.{k}.calls"] = "calls/op"
            units["kernel.eigh.ms"] = "ms/op"
            units["kernel.eigvalsh.ms"] = "ms/op"
        elif module == "mitest":
            units["mitest.pearson_null_draws"] = "draws/op"
    units["bench.refused_share"] = "share"
    units["trace.overhead_share"] = "share"
    return units


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list = []
        self._ids: dict = {}
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._next_id = 0
        self._first_span = 0
        self._stack: list = []
        self.op_id = None
        self.values = Counter()      # value counts of the current op
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _wrap(self, label: str, fn, on_result=None):
        nid = self._name_id(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.span_parent.append(parent)
                self.span_op.append(self.op_id)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, index: int) -> None:
        self.op_id = index
        self._first_span = len(self.span_id)
        self.values = Counter()

    def end_op(self) -> dict:
        """Close the op; returns its exact counts (calls and values)."""
        names = Counter(self.names[n] for n in
                        self.span_name[self._first_span:])
        counts = dict(self.values)
        counts.update({f"{k}.calls": v for k, v in names.items()})
        self.op_id = None
        self._stack.clear()
        return counts

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self) -> dict:
        mt = self.lib.mitest
        sims = inspect.signature(mt.pearson_identity_test) \
            .parameters["sims"].default

        def count(key, value):
            self.values[key] += int(value)

        def staged(_a, _k, out):
            count("pipeline.stages", len(out.stages))
            count("pipeline.forced_stops", out.forced_stop)

        return {
            "measurement.sample_povm": lambda a, k, r: count(
                "measurement.copies_sampled", _arg(a, k, 2, "k")),
            "measurement.sample_basis": lambda a, k, r: count(
                "measurement.copies_sampled", _arg(a, k, 1, "k")),
            "measurement.filter_subset": lambda a, k, r: count(
                "measurement.copies_filtered", _arg(a, k, 2, "k")),
            "pipeline.plan_budget": lambda a, k, r: count(
                "pipeline.planned_copies", r.total),
            "pipeline.staged_learn": staged,
            "mitest.pearson_identity_test": lambda a, k, r: count(
                "mitest.pearson_null_draws", _arg(a, k, 5, "sims", sims)),
        }

    def install(self) -> None:
        hooks = self._hooks()
        replaced = {}
        for module_name, functions in LAYERS.items():
            module = getattr(self.lib, module_name)
            for fn_name in functions:
                label = f"{module_name}.{fn_name}"
                if fn_name == "Povm.from_basis":
                    orig = module.Povm.__dict__["from_basis"]
                    self._set(module.Povm, "from_basis", classmethod(
                        self._wrap(label, orig.__func__, hooks.get(label))))
                    continue
                orig = getattr(module, fn_name)
                wrapped = self._wrap(label, orig, hooks.get(label))
                replaced[orig] = wrapped
                self._set(module, fn_name, wrapped)
        for k in KERNELS:
            orig = getattr(np.linalg, k)
            self._set(np.linalg, k, self._wrap(f"kernel.{k}", orig))
        self._rebind_defaults(replaced)

    def _rebind_defaults(self, replaced: dict) -> None:
        """Point default arguments that hold an original at its wrapper."""
        for module_name in LAYERS:
            module = getattr(self.lib, module_name)
            for fn in vars(module).values():
                fn = getattr(fn, "__wrapped__", fn)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__defaults__):
                    continue
                if any(d in replaced for d in fn.__defaults__
                       if callable(d)):
                    self._set_defaults(fn, tuple(
                        replaced.get(d, d) if callable(d) else d
                        for d in fn.__defaults__))

    def _set_defaults(self, fn, defaults) -> None:
        self._undo.append((fn, "__defaults__", fn.__defaults__))
        fn.__defaults__ = defaults

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        """The spans in start order, parents as row indices (-1: root)."""
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        row_of = np.empty(self._next_id, dtype=np.int64)
        row_of[ids[order]] = np.arange(ids.size)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)[order]
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16)[order],
            "start": np.frombuffer(self.span_start, dtype=np.float64)[order],
            "end": np.frombuffer(self.span_end, dtype=np.float64)[order],
            "parent": np.where(parent >= 0, row_of[np.maximum(parent, 0)], -1),
            "op": np.frombuffer(self.span_op, dtype=np.int64)[order],
        }

    def self_ms(self, spans: dict, scale) -> dict:
        """Total self time per span name, in ms, each span times its scale."""
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(spans["name"], weights=(dur - child) * scale,
                          minlength=len(self.names))
        return {label: 1e3 * float(own[nid])
                for nid, label in enumerate(self.names)}

    def write(self, path, provenance: dict) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans,
                            provenance=np.array(json.dumps(provenance)))
