"""Spans around calls into tmfejer's public functions, and the layer metrics.

`Tracer.install` replaces each public function of the seven modules with a
wrapper, in every tmfejer module namespace that holds it, so calls between
modules are recorded too.  A span is (function, start, end, parent); spans
stay in memory in flat arrays until the run ends.  Work counts are taken at
the same wrappers from the call arguments.  Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("blaschke", "tm_basis", "quadrature", "operators", "corpus", "analysis", "cli")
EXPERIMENTS = (
    "diagnose_sequence",
    "convergence_experiment",
    "voronovskaya_experiment",
    "saturation_check",
    "cesaro_counterexample",
)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points(z) -> int:
    return int(np.size(z))


# Work done by one call, from its arguments: name -> (span work, extra counters).
def _eval_blaschke(args, kwargs):
    return int(_arg(args, kwargs, 1, "n")) * _points(_arg(args, kwargs, 2, "z")), {}


def _basis_evals(args, kwargs):
    return _arg(args, kwargs, 0, "basis").order * _points(_arg(args, kwargs, 1, "z")), {}


def _coefficients(args, kwargs):
    f, basis = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "basis")
    n = basis.order
    terms = 2 * n - 1 if _arg(args, kwargs, 2, "include_negative", False) and n else n
    return 0, {"operators.coefficients.quad_terms": f.resolution * terms}


def _sigma_positive(args, kwargs):
    points = _points(_arg(args, kwargs, 2, "z"))
    return _arg(args, kwargs, 1, "basis").order * points, {"operators.sigma_positive.points": points}


def _sigma_rusak(args, kwargs):
    f, z = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 2, "z")
    return 0, {"operators.sigma_rusak.kernel_entries": f.resolution * _points(z)}


WORK = {
    "blaschke.eval_blaschke": _eval_blaschke,
    "tm_basis.phi_jet": _basis_evals,
    "tm_basis.phi_values": _basis_evals,
    "operators.coefficients": _coefficients,
    "operators.sigma_positive": _sigma_positive,
    "operators.sigma_rusak": _sigma_rusak,
}
# Evaluations counted per sigma_positive point: made by these, directly under it.
BASIS_WORK = ("blaschke.eval_blaschke", "tm_basis.phi_jet", "tm_basis.phi_values")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.work = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _open(self, fid: int, work: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.work.append(work)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units = 0
            if work is not None:
                try:
                    units, extra = work(args, kwargs)
                except (TypeError, ValueError, AttributeError):
                    units, extra = 0, {}  # a malformed call: the function itself rejects it
                counts.update(extra)
            if name == "quadrature.refined_minimum":
                args = (self._counted(_arg(args, kwargs, 0, "fn")),) + args[1:] if args else args
                if "fn" in kwargs:
                    kwargs["fn"] = self._counted(kwargs["fn"])
            idx = self._open(fid, units)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
            if name == "quadrature.default_resolution":
                counts["quadrature.grid_points"] += int(result)
            return result

        return traced

    def _counted(self, fn):
        counts = self.counts

        def sampled(theta):
            size = _points(theta)
            counts["quadrature.refined_minimum.fn_samples"] += size
            counts["quadrature.refined_minimum.scalar_calls"] += size == 1
            return fn(theta)

        return sampled

    def install(self, lib) -> None:
        """Wrap every public function of the seven modules wherever it is bound."""
        namespaces = [m for k, m in sys.modules.items() if k == "tmfejer" or k.startswith("tmfejer.")]
        for short in MODULES:
            module = getattr(lib, short)
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original) or original.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, traced)

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer metrics from the recorded spans and counts."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        raised = np.frombuffer(self.raised, dtype=np.int8)
        work = np.frombuffer(self.work, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child

        nfn = len(self.names)
        fn_self = np.bincount(fn, weights=self_s, minlength=nfn)
        fn_calls = np.bincount(fn, minlength=nfn)
        fn_raised = np.bincount(fn, weights=raised, minlength=nfn)
        fn_work = np.bincount(fn, weights=work, minlength=nfn)
        ids = {name: i for i, name in enumerate(self.names)}
        per = 1.0 / max(passes, 1)

        out: dict = {}
        for short in MODULES:
            mine = [i for i, name in enumerate(self.names) if name.split(".")[0] == short]
            out[f"{short}.self_s"] = float(fn_self[mine].sum()) * per
            out[f"{short}.calls"] = float(fn_calls[mine].sum()) * per
            out[f"{short}.raised"] = float(fn_raised[mine].sum()) * per

        def fstat(name, stat):
            i = ids[name]
            return {"self_s": fn_self[i], "calls": fn_calls[i], "work": fn_work[i]}[stat] * per

        out["blaschke.eval_blaschke.self_s"] = fstat("blaschke.eval_blaschke", "self_s")
        out["blaschke.eval_blaschke.pole_evals"] = fstat("blaschke.eval_blaschke", "work")
        for name in ("tm_basis.phi_jet", "tm_basis.phi_values"):
            out[f"{name}.self_s"] = fstat(name, "self_s")
            out[f"{name}.basis_evals"] = fstat(name, "work")
        for name in ("coefficients", "sigma_positive", "sigma_rusak", "fejer_kernel", "delta"):
            out[f"operators.{name}.self_s"] = fstat(f"operators.{name}", "self_s")
        for key in (
            "operators.coefficients.quad_terms",
            "operators.sigma_positive.points",
            "operators.sigma_rusak.kernel_entries",
            "quadrature.refined_minimum.fn_samples",
            "quadrature.refined_minimum.scalar_calls",
            "quadrature.grid_points",
        ):
            out[key] = self.counts[key] * per

        sp = ids["operators.sigma_positive"]
        under_sp = has_parent & (fn[np.where(has_parent, parent, 0)] == sp)
        basis_ids = [ids[name] for name in BASIS_WORK]
        numerator = work[under_sp & np.isin(fn, basis_ids)].sum()
        denominator = work[fn == sp].sum()
        out["operators.basis_evals_per_point"] = float(numerator / denominator) if denominator else 0.0

        out["quadrature.refined_minimum.self_s"] = fstat("quadrature.refined_minimum", "self_s")
        out["corpus.random_unit_density.self_s"] = fstat("corpus.random_unit_density", "self_s")
        out["corpus.random_unit_density.calls"] = fstat("corpus.random_unit_density", "calls")
        for name in EXPERIMENTS:
            out[f"analysis.{name}.self_s"] = fstat(f"analysis.{name}", "self_s")
        out["cli.main.self_s"] = fstat("cli.main", "self_s")
        return {k: float(v) for k, v in out.items()}

    def save(self, path) -> None:
        """Write the spans out: function names and the flat span arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )
