"""Span tracing of zenosat's layers from outside the package.

``Tracer.patch`` replaces a public callable with a wrapper that records a span
(name, start, end, parent) and optional counts taken from the call's arguments
and result. ``install_layers`` patches the callables where ``zenosat.solver``
looks them up; leaving the ``with`` block puts every original back, also when
a run raises. Spans are kept in flat arrays and written out by ``save``.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")  # index of the enclosing span, -1 for a root
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)``
        runs after a call that returns."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def indices(self, name: str) -> np.ndarray:
        """Indices of the spans recorded under ``name``."""
        if name not in self._name_ids:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(self.arrays()["name"] == self._name_ids[name])

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent, which) -> np.ndarray:
    """Self time of each span index in ``which``: its duration minus the part
    of its interval covered by its direct children."""
    children = defaultdict(list)
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = np.empty(len(which))
    for j, idx in enumerate(which):
        lo, hi = start[idx], end[idx]
        covered, reach = 0.0, lo
        for s, e in sorted((start[c], end[c]) for c in children[idx]):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[j] = (hi - lo) - covered
    return out


# ---- zenosat layers -------------------------------------------------------

KERNELS = ("lindblad_step", "average_map", "kraus_measure", "sme_step")


def _stack_flops(counts, args, result) -> None:
    """lindblad_step / sme_step: X_i rho and (X_i rho) X_i for each of m clauses."""
    m, d, _ = args[1].shape
    counts["flop"] += 4.0 * m * d**3


def _pair_flops(counts, args, result) -> None:
    """average_map / kraus_measure: two d x d matmuls around rho."""
    d = args[1].shape[0]
    counts["flop"] += 4.0 * d**3


def _observable_bytes(counts, args, result) -> None:
    counts["observables_bytes"] += result.nbytes


def _attempt(counts, args, out) -> None:
    steps = round(out.consumed_time / args[1].dt)
    counts["attempts"] += 1
    counts["aborts"] += out.failed
    counts["steps"] += steps
    counts["useful_steps"] += 0 if out.failed else steps


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables of every measured layer."""
    from zenosat import encoding, herald, satcore, solver

    tracer.patch(solver, "run_full", "solver.run_full")
    tracer.patch(solver, "run_average", "solver.loop", _attempt)
    tracer.patch(solver, "run_heralded_single", "solver.loop", _attempt)
    tracer.patch(solver, "readout", "solver.readout")
    tracer.patch(solver, "success_probability", "solver.success_probability")
    for kernel in KERNELS:
        flops = _stack_flops if kernel in ("lindblad_step", "sme_step") else _pair_flops
        tracer.patch(solver, kernel, f"dynamics.{kernel}", flops)
    tracer.patch(encoding.ClauseSet, "__init__", "encoding.clauseset_init")
    tracer.patch(encoding.ClauseSet, "observables", "encoding.observables", _observable_bytes)
    tracer.patch(herald.FilterState, "update", "herald.update")
    tracer.patch(solver, "detect_failure", "herald.detect")
    tracer.patch(satcore, "random_instance", "satcore.gen")
    tracer.patch(satcore, "enumerate_solutions", "satcore.oracle")
    tracer.patch(satcore, "is_satisfiable", "satcore.oracle")


# name -> unit, in the order they are printed; see README.md for what each means
LAYER_METRICS = {
    "solver.loop.self_s": "s",
    "solver.steps": "count",
    "solver.attempts": "count",
    "solver.aborts": "count",
    "solver.useful_step_frac": "ratio",
    "solver.readout.s": "s",
    "solver.success_probability.s": "s",
    "encoding.observables.calls": "count",
    "encoding.observables.s": "s",
    "encoding.observables.bytes_computed": "B",
    "encoding.clauseset_init.s": "s",
    **{f"dynamics.{k}.{q}": u for k in KERNELS for q, u in (("calls", "count"), ("s", "s"))},
    "dynamics.flop_computed": "flop",
    "dynamics.gflops": "Gflop/s",
    "herald.update.calls": "count",
    "herald.update.s": "s",
    "herald.detect.s": "s",
    "satcore.oracle.calls": "count",
    "satcore.oracle.s": "s",
    "satcore.gen.attempts": "count",
    "satcore.gen.s": "s",
    "qlinalg.min_eig": "1",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, runs: int) -> dict[str, float]:
    """Per-layer figures from a traced run of ``runs`` run_full calls.

    Counts and seconds are means per run_full call, except satcore.*, which
    total the traced input generation. qlinalg.min_eig and trace.overhead_frac
    are measured by the caller.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    idx = tracer.indices

    def total(name):
        return float(dur[idx(name)].sum())

    c = tracer.counts
    out = {
        "solver.loop.self_s": float(
            self_times(a["start"], a["end"], a["parent"], idx("solver.loop")).sum()
        ) / runs,
        "solver.steps": c["steps"] / runs,
        "solver.attempts": c["attempts"] / runs,
        "solver.aborts": c["aborts"] / runs,
        "solver.useful_step_frac": c["useful_steps"] / c["steps"] if c["steps"] else 0.0,
        "solver.readout.s": total("solver.readout") / runs,
        "solver.success_probability.s": total("solver.success_probability") / runs,
        "encoding.observables.calls": len(idx("encoding.observables")) / runs,
        "encoding.observables.s": total("encoding.observables") / runs,
        "encoding.observables.bytes_computed": c["observables_bytes"] / runs,
        "encoding.clauseset_init.s": total("encoding.clauseset_init") / runs,
    }
    kernel_s = 0.0
    for k in KERNELS:
        out[f"dynamics.{k}.calls"] = len(idx(f"dynamics.{k}")) / runs
        out[f"dynamics.{k}.s"] = total(f"dynamics.{k}") / runs
        kernel_s += total(f"dynamics.{k}")
    out["dynamics.flop_computed"] = c["flop"] / runs
    out["dynamics.gflops"] = c["flop"] / kernel_s / 1e9 if kernel_s > 0 else 0.0
    out["herald.update.calls"] = len(idx("herald.update")) / runs
    out["herald.update.s"] = total("herald.update") / runs
    out["herald.detect.s"] = total("herald.detect") / runs
    out["satcore.oracle.calls"] = float(len(idx("satcore.oracle")))
    out["satcore.oracle.s"] = total("satcore.oracle")
    out["satcore.gen.attempts"] = float(len(idx("satcore.gen")))
    out["satcore.gen.s"] = total("satcore.gen")
    return out
