"""Span tracing of baryflow from outside the package.

``Tracer.install`` wraps selected public functions of each ``baryflow``
module (one module is one layer) and patches every module attribute that
refers to the original, so call sites that import a name directly
(``from .gaussian import bures_w2_sq``) are reached too. Spans are kept in
memory as (name, start, end, parent, run id, info) and written out when the
benchmark ends. ``uninstall`` puts every original back.

``layer_metrics`` turns the spans into the per-layer metrics listed in
``PER_LAYER``; times and counts are per CLI invocation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np
from baryflow.ot import _is_uniform


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run_id: int
    info: dict | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _cost_shape(cost):
    return np.shape(getattr(cost, "values", cost))


def _exact_path(args, kwargs):
    """Name the path ``ot.solve_exact`` takes for these arguments: the
    assignment reduction for uniform weights with an integer size ratio,
    the HiGHS LP otherwise. The weights go through the program's own
    uniformity test, after the conversion ``solve_exact`` applies."""
    a, b, cost = args[:3]
    n, m = _cost_shape(cost)
    a, b = (np.atleast_1d(np.asarray(w, dtype=float)) for w in (a, b))
    if _is_uniform(a) and _is_uniform(b) and max(n, m) % min(n, m) == 0:
        return "ot.solve_exact.assign"
    return "ot.solve_exact.lp"


def _plan_info(args, kwargs, result):
    n, m = _cost_shape(args[2])
    return {"entries": n * m}


def _entropic_info(args, kwargs, result):
    # solve_entropic sets marginal_tol to max(1e-8, observed violation)
    plan, _ = result
    return {"entries": plan.coupling.size, "marginal_tol": plan.marginal_tol}


def _msda_info(args, kwargs, result):
    return {"timings_ms": dict(result.timings_ms)}


def _gmm_flow_info(args, kwargs, result):
    return {"n_iter": len(result[1]) - 1}


# (module, function, span classifier or None, info collector or None)
TARGETS = (
    ("ot", "solve_exact", _exact_path, _plan_info),
    ("ot", "solve_entropic", None, _entropic_info),
    ("ot", "solve_auto", None, None),
    ("ot", "joint_cost", None, None),
    ("ot", "barycentric_map", None, None),
    ("gaussian", "bures_w2_sq", None, None),
    ("gaussian", "bures_w2_grad", None, None),
    ("gaussian", "mw2_cost_matrix", None, None),
    ("gaussian", "em_fit", None, None),
    ("gaussian", "load_gmm", None, None),
    ("gaussian", "save_gmm", None, None),
    ("flow_gmm", "mw2_fixed_plan_value_grad", None, None),
    ("flow_gmm", "run_gmm_flow", None, _gmm_flow_info),
    ("functionals", "hinge_repulsion", None, None),
    ("flow_empirical", "flow_step", None, None),
    ("flow_empirical", "run_flow", None, None),
    ("pipeline", "msda_adapt", None, _msda_info),
    ("datasets", "load_csv", None, None),
    ("datasets", "save_csv", None, None),
    ("datasets", "synthetic_domain_specs", None, None),
    ("datasets", "synthetic_msda", None, None),
    ("cli", "main", None, None),
)
# Methods patched on their class: plan construction and validation.
METHOD_TARGETS = (("ot", "TransportPlan", "__post_init__", "ot.TransportPlan"),)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "baryflow" or name.startswith("baryflow."))]


class Tracer:
    """Records spans around the wrapped functions while ``recording``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, classify, collect):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            label = classify(args, kwargs) if classify else name
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = Span(label, 0, 0, stack[-1] if stack else -1,
                        tracer.run_id, None)
            spans.append(span)
            stack.append(idx)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if collect:
                span.info = collect(args, kwargs, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target and patch each module attribute naming it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for mod_name, fn_name, classify, collect in TARGETS:
            mod = importlib.import_module(f"baryflow.{mod_name}")
            orig = getattr(mod, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, classify, collect)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        for mod_name, cls_name, meth, span_name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"baryflow.{mod_name}"), cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(span_name, orig, None, None))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run_id\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start_ns},{s.end_ns},{s.parent},"
                         f"{s.run_id}\n")


def installed_wrappers() -> list[str]:
    """Names of baryflow module attributes that are benchmark wrappers."""
    found = []
    for m in _package_modules():
        for attr, val in vars(m).items():
            if hasattr(val, "__bench_original__"):
                found.append(f"{m.__name__}.{attr}")
    for mod_name, cls_name, meth, _ in METHOD_TARGETS:
        mod = sys.modules.get(f"baryflow.{mod_name}")
        if mod is not None and hasattr(
                getattr(mod, cls_name).__dict__[meth], "__bench_original__"):
            found.append(f"baryflow.{mod_name}.{cls_name}.{meth}")
    return found


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit); every one is reported on every workload, 0 where unused
PER_LAYER = (
    ("ot.solve_exact.assign.ms", "ms"), ("ot.solve_exact.assign.calls", "count"),
    ("ot.solve_exact.assign.flow_share", "%"),
    ("ot.solve_exact.lp.ms", "ms"), ("ot.solve_exact.lp.calls", "count"),
    ("ot.solve_exact.lp.flow_share", "%"),
    ("ot.solve_entropic.ms", "ms"), ("ot.solve_entropic.calls", "count"),
    ("ot.solve_entropic.flow_share", "%"),
    ("ot.solve_entropic.unconverged_frac", "ratio"),
    ("ot.solve_entropic.violation_max", "mass"),
    ("ot.solve_auto.ms", "ms"), ("ot.solve_auto.calls", "count"),
    ("ot.joint_cost.ms", "ms"), ("ot.joint_cost.calls", "count"),
    ("ot.barycentric_map.ms", "ms"),
    ("ot.TransportPlan.ms", "ms"),
    ("ot.coupling_entries", "count"),
    ("gaussian.bures_w2_sq.ms", "ms"), ("gaussian.bures_w2_sq.calls", "count"),
    ("gaussian.bures_w2_grad.ms", "ms"), ("gaussian.bures_w2_grad.calls", "count"),
    ("gaussian.bures.flow_share", "%"),
    ("gaussian.mw2_cost_matrix.ms", "ms"),
    ("gaussian.em_fit.ms", "ms"),
    ("flow_gmm.mw2_fixed_plan_value_grad.ms", "ms"),
    ("flow_gmm.mw2_fixed_plan_value_grad.calls", "count"),
    ("flow_gmm.step_ms", "ms"),
    ("functionals.hinge_repulsion.ms", "ms"),
    ("functionals.hinge_repulsion.calls", "count"),
    ("flow_empirical.flow_step.calls", "count"),
    ("flow_empirical.flow_step.p50_ms", "ms"),
    ("flow_empirical.flow_step.tail_ms", "ms"),
    ("flow_empirical.flow_step.self_ms", "ms"),
    ("flow_empirical.run_flow.init_ms", "ms"),
    ("flow.ms", "ms"),
    ("pipeline.barycenter_ms", "ms"), ("pipeline.align_ms", "ms"),
    ("pipeline.classify_ms", "ms"),
    ("datasets.io_ms", "ms"), ("datasets.synthetic_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("setup.import.scipy_ms", "ms"), ("setup.import.baryflow_ms", "ms"),
    ("setup.import.total_ms", "ms"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)

FLOW_SPANS = ("flow_empirical.run_flow", "flow_gmm.run_gmm_flow")
IO_SPANS = ("datasets.load_csv", "datasets.save_csv", "gaussian.load_gmm",
            "gaussian.save_gmm")
SYNTHETIC_SPANS = ("datasets.synthetic_domain_specs", "datasets.synthetic_msda")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it, as
    (percentile, value); (None, None) when there are too few samples."""
    v = sorted(values)
    n = len(v)
    for p in TAIL_PERCENTILES:
        idx = max(0, int(np.ceil(p / 100.0 * n)) - 1)
        if n - idx - 1 >= 10:
            return p, v[idx]
    return None, None


def layer_metrics(spans: list[Span], n_runs: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_runs`` CLI invocations.

    Times (``.ms``) and ``.calls`` are per invocation. A span's self time is
    its duration minus its children's; children never overlap because the
    program runs on one thread. ``flow_share`` is the share of flow time
    (``run_flow``/``run_gmm_flow``) spent in that layer.
    """
    children_ms = [0.0] * len(spans)
    in_flow = [False] * len(spans)
    gmm_flow = [-1] * len(spans)  # enclosing run_gmm_flow span, or -1
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            children_ms[p] += s.ms
            in_flow[i] = in_flow[p] or spans[p].name in FLOW_SPANS
            gmm_flow[i] = p if spans[p].name == "flow_gmm.run_gmm_flow" else gmm_flow[p]

    total = {}
    calls = {}
    flow_total = {}
    for i, s in enumerate(spans):
        total[s.name] = total.get(s.name, 0.0) + s.ms
        calls[s.name] = calls.get(s.name, 0) + 1
        if in_flow[i]:
            flow_total[s.name] = flow_total.get(s.name, 0.0) + s.ms

    def ms(*names):
        return sum(total.get(n, 0.0) for n in names) / n_runs

    def count(name):
        return calls.get(name, 0) / n_runs

    flow_ms = sum(s.ms for i, s in enumerate(spans)
                  if s.name in FLOW_SPANS and not in_flow[i])

    def share(*names):
        if flow_ms == 0:
            return 0.0
        return 100.0 * sum(flow_total.get(n, 0.0) for n in names) / flow_ms

    out = {}
    for path in ("assign", "lp"):
        name = f"ot.solve_exact.{path}"
        out[f"{name}.ms"] = ms(name)
        out[f"{name}.calls"] = count(name)
        out[f"{name}.flow_share"] = share(name)
    ent = [s for s in spans if s.name == "ot.solve_entropic"]
    out["ot.solve_entropic.ms"] = ms("ot.solve_entropic")
    out["ot.solve_entropic.calls"] = count("ot.solve_entropic")
    out["ot.solve_entropic.flow_share"] = share("ot.solve_entropic")
    out["ot.solve_entropic.unconverged_frac"] = (
        sum(s.info["marginal_tol"] > 1e-8 for s in ent) / len(ent) if ent else 0.0)
    out["ot.solve_entropic.violation_max"] = max(
        (s.info["marginal_tol"] for s in ent), default=0.0)
    out["ot.solve_auto.ms"] = ms("ot.solve_auto")
    out["ot.solve_auto.calls"] = count("ot.solve_auto")
    out["ot.joint_cost.ms"] = ms("ot.joint_cost")
    out["ot.joint_cost.calls"] = count("ot.joint_cost")
    out["ot.barycentric_map.ms"] = ms("ot.barycentric_map")
    out["ot.TransportPlan.ms"] = ms("ot.TransportPlan")
    out["ot.coupling_entries"] = sum(
        s.info["entries"] for s in spans
        if s.info and "entries" in s.info) / n_runs

    for fn in ("bures_w2_sq", "bures_w2_grad"):
        out[f"gaussian.{fn}.ms"] = ms(f"gaussian.{fn}")
        out[f"gaussian.{fn}.calls"] = count(f"gaussian.{fn}")
    out["gaussian.bures.flow_share"] = share("gaussian.bures_w2_sq",
                                             "gaussian.bures_w2_grad")
    out["gaussian.mw2_cost_matrix.ms"] = ms("gaussian.mw2_cost_matrix")
    out["gaussian.em_fit.ms"] = ms("gaussian.em_fit")

    name = "flow_gmm.mw2_fixed_plan_value_grad"
    out[f"{name}.ms"] = ms(name)
    out[f"{name}.calls"] = count(name)
    gmm_ms = sum(s.ms for s in spans if s.name == "flow_gmm.run_gmm_flow")
    gmm_em_ms = sum(s.ms for i, s in enumerate(spans)
                    if s.name == "gaussian.em_fit" and gmm_flow[i] >= 0)
    gmm_iters = sum(s.info["n_iter"] for s in spans
                    if s.name == "flow_gmm.run_gmm_flow")
    out["flow_gmm.step_ms"] = (gmm_ms - gmm_em_ms) / gmm_iters if gmm_iters else 0.0

    out["functionals.hinge_repulsion.ms"] = ms("functionals.hinge_repulsion")
    out["functionals.hinge_repulsion.calls"] = count("functionals.hinge_repulsion")

    steps = [i for i, s in enumerate(spans) if s.name == "flow_empirical.flow_step"]
    step_ms = [spans[i].ms for i in steps]
    out["flow_empirical.flow_step.calls"] = count("flow_empirical.flow_step")
    out["flow_empirical.flow_step.p50_ms"] = float(np.median(step_ms)) if steps else 0.0
    tail_pct, tail_ms = tail_percentile(step_ms)
    out["flow_empirical.flow_step.tail_ms"] = tail_ms or 0.0
    out["flow_empirical.flow_step.tail_pct"] = tail_pct or 0.0
    out["flow_empirical.flow_step.self_ms"] = (
        sum(spans[i].ms - children_ms[i] for i in steps) / len(steps) if steps else 0.0)
    init_ms = []
    first_step = {}
    for i in steps:
        first_step.setdefault(spans[i].parent, spans[i].start_ns)
    for i, s in enumerate(spans):
        if s.name == "flow_empirical.run_flow":
            init_ms.append((first_step.get(i, s.end_ns) - s.start_ns) / 1e6)
    out["flow_empirical.run_flow.init_ms"] = (
        sum(init_ms) / len(init_ms) if init_ms else 0.0)
    out["flow.ms"] = flow_ms / n_runs

    phases = {"barycenter_ms": 0.0, "align_ms": 0.0, "classify_ms": 0.0}
    for s in spans:
        if s.name == "pipeline.msda_adapt":
            for key in phases:
                phases[key] += s.info["timings_ms"][key]
    for key, val in phases.items():
        out[f"pipeline.{key}"] = val / n_runs

    out["datasets.io_ms"] = ms(*IO_SPANS)
    out["datasets.synthetic_ms"] = ms(*SYNTHETIC_SPANS)
    out["cli.overhead_ms"] = sum(
        s.ms - children_ms[i] for i, s in enumerate(spans)
        if s.name == "cli.main") / n_runs
    out["trace.spans"] = len(spans) / n_runs
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import times in ms from ``python -X importtime`` output: all
    scipy modules, all baryflow modules, and everything imported."""
    totals = {"scipy": 0.0, "baryflow": 0.0, "total": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        self_us = float(fields[0])
        module = fields[2].strip()
        top = module.split(".")[0]
        totals["total"] += self_us / 1e3
        if top in totals:
            totals[top] += self_us / 1e3
    return totals
