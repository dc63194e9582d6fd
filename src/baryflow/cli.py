"""Command-line entry point.

Subcommands (each takes a JSON config file):

* ``barycenter`` — run an empirical or GMM barycenter flow, write the final
  measure/mixture, the objective trace CSV, and a run report.
* ``toy``        — location-scatter family comparison: run the selected
  solvers and write a per-solver distance-to-reference table.
* ``msda``       — synthetic (or CSV-backed) multi-source domain adaptation
  with the functional ablation table.
* ``gen``        — write generated datasets as CSV.
* ``validate``   — parse a config and load or generate its inputs, as the
  command would, then exit without writing anything.

Configs are validated strictly (unknown keys are rejected) before any work.
A section that configures a library class or function takes its keys, their
types and their defaults from that signature (``_build``); the CLI supplies
only the values the library requires. A ValueError the library raises while a
config is prepared is a config error.
Exit codes: 0 success, 1 config error (usage errors included), 2 numerical
failure. A ValueError the library raises once the run has started is a
numerical failure: the config passed every check, so a check inside the run
met a value the run itself produced (a flow that diverged to non-finite costs
or logits). Output goes to files under ``output_dir``, which is created only
once a command's results exist, so a failed run leaves no directory behind;
stdout carries human-readable progress. Measures and tables are CSV files
written by ``datasets.write_table`` (floats with 17 significant digits,
byte-stable for a fixed seed), mixtures are GMM JSON files, and
``run_report.json`` is the one machine-readable report: the config, versions,
wall-clock timings, the artifact paths and the command's summary.

The class names of a run's CSV labels stay here: ``datasets.share_classes``
maps them to ids in one sorted order per run, the library sees ids alone, and
the names are written back only to ``final_measure.csv``. The label columns
of ``final_mixture.json`` follow that order.

Importing the CLI loads numpy only. The assignment, LP and kd-tree paths
import scipy on first use, so ``validate`` and a run that takes none of them
(the sorted 1-D exact path, a GMM flow) never load it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__, ot
from .datasets import (
    AffineMap,
    default_affine_family,
    load_csv,
    pd_affine_family,
    save_csv,
    share_classes,
    swiss_roll,
    location_scatter_family,
    synthetic_domain_specs,
    synthetic_msda,
    write_table,
)
from .flow_empirical import (
    EmpiricalFlowConfig,
    EmpiricalSampler,
    GaussianSampler,
    GmmSampler,
    fixed_point_baseline,
    run_flow,
)
from .flow_gmm import GmmFlowConfig, run_gmm_flow
from .functionals import FunctionalSpec, check_inputs
from .gaussian import (
    LabeledGMM,
    em_fit,
    fixed_point_gaussian_barycenter,
    load_gmm,
    sample_reparam,
    save_gmm,
)
from .measures import BarycentricCoordinates, EmpiricalMeasure
from .pipeline import BARYCENTER_KINDS, msda_adapt, w2_to_reference


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config plumbing

def _check_keys(d: dict, allowed, ctx: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{ctx}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _get(d: dict, key: str, types, ctx: str, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{ctx}: missing required key {key!r}")
        return default
    val = d[key]
    if types is bool:
        if not isinstance(val, bool):
            raise ConfigError(f"{ctx}: key {key!r} must be a boolean")
        return val
    if types is float and isinstance(val, bool):
        raise ConfigError(f"{ctx}: key {key!r} must be a number")
    if types is float and isinstance(val, int):
        return float(val)
    if types is int and (isinstance(val, bool) or not isinstance(val, int)):
        raise ConfigError(f"{ctx}: key {key!r} must be an integer")
    if not isinstance(val, types):
        name = types.__name__ if isinstance(types, type) else str(types)
        raise ConfigError(f"{ctx}: key {key!r} must be of type {name}")
    return val


def _get_numbers(d: dict, key: str, ctx: str) -> np.ndarray:
    """A list of numbers as a float array. Booleans and numeric strings are
    rejected, as ``_get`` rejects them for a number key; numpy would read
    them as 1.0, 0.0 or 0.5."""
    val = _get(d, key, list, ctx, required=True)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in val):
        raise ConfigError(f"{ctx}: key {key!r} must be a list of numbers")
    return np.asarray(val, dtype=float)


def _get_choices(d: dict, key: str, ctx: str, choices) -> list:
    """A list of distinct entries of ``choices``, all of them by default.
    An empty list would run nothing and a repeated entry would run twice,
    so both are rejected, as is an unknown entry."""
    val = _get(d, key, list, ctx, list(choices))
    if not val:
        raise ConfigError(f"{ctx}: key {key!r} must not be empty")
    for v in val:
        if v not in choices:
            raise ConfigError(f"{ctx}: key {key!r}: unknown entry {v!r}; "
                              f"allowed: {list(choices)}")
    if len(set(val)) < len(val):
        raise ConfigError(f"{ctx}: key {key!r} repeats an entry: {val}")
    return val


# Parameter annotations a config key can set, and the `_get` type of each.
_KEY_TYPES = {int: int, float: float, str: str, bool: bool}


def _build(fn, section: dict, ctx: str, defaults=None, extra=(), /, **fixed):
    """Call ``fn`` with the keys of one config section.

    The section's keys are the parameters of ``fn`` annotated as in
    ``_KEY_TYPES`` that the caller does not pass in ``fixed``, plus the
    CLI-only keys in ``extra``, which the caller reads itself. A key left
    out takes ``fn``'s own default, or ``defaults[key]`` for a parameter
    ``fn`` requires. A ValueError from ``fn`` is a ConfigError.
    """
    hints = typing.get_type_hints(fn)
    types = {name: _KEY_TYPES[hints[name]]
             for name in inspect.signature(fn).parameters
             if name not in fixed and hints.get(name) in _KEY_TYPES}
    _check_keys(section, [*types, *extra], ctx)
    kwargs = {**(defaults or {}), **fixed}
    kwargs.update((k, _get(section, k, t, ctx)) for k, t in types.items()
                  if k in section)
    try:
        return fn(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from None


def _load(loader, raw, ctx: str, *args):
    """``loader(path, *args)`` for a file a config names; a missing or
    malformed file is a ConfigError."""
    if not isinstance(raw, str):
        raise ConfigError(f"{ctx}: paths must be strings, got {raw!r}")
    if not Path(raw).exists():
        raise ConfigError(f"{ctx}: path {raw!r} does not exist")
    try:
        return loader(Path(raw), *args)
    except (OSError, ValueError, KeyError) as e:
        raise ConfigError(f"{ctx}: {e}") from None


def _check_unread(cfg: dict, keys, mode: str, ctx: str) -> None:
    """Reject the ``keys`` of ``cfg`` that ``mode`` never reads."""
    for key in keys:
        if key in cfg:
            raise ConfigError(f"{ctx}: key {key!r} does not apply to {mode}")


def _check_dims(dims, ctx: str) -> None:
    """``dims`` pairs a name with a feature dimension; a run has one."""
    (first, d0), *rest = dims
    for name, d in rest:
        if d != d0:
            raise ConfigError(f"{ctx}: feature dimensions differ: {name} has "
                              f"{d}, {first} has {d0}")


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {str(path)!r} does not exist")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read the config ({e})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


# The CLI's values for the parameters each flow config requires.
FLOW_CONFIGS = {
    "empirical": (EmpiricalFlowConfig,
                  {"n_particles": 128, "batch_size": 128, "n_iter": 150}),
    "gmm": (GmmFlowConfig, {"n_components": 4, "n_iter": 300}),
}
SWISS_ROLL_DEFAULTS = {"n": 1000}


def _parse_flow(kind: str, cfg: dict, key: str, ctx: str, **fixed):
    cls, defaults = FLOW_CONFIGS[kind]
    return _build(cls, _get(cfg, key, dict, ctx, {}), f"{ctx}: {key}",
                  defaults, **fixed)


def _parse_functional(cfg: dict, ctx: str, target_measure=None) -> FunctionalSpec:
    d = _get(cfg, "functional", dict, ctx, {})
    ctx = f"{ctx}: functional"
    if "target_csv" in d:
        target_measure, _ = _load(load_csv, d["target_csv"], ctx)
    return _build(FunctionalSpec, d, ctx, None, ("target_csv",),
                  target_measure=target_measure)


def _parse_coordinates(cfg: dict, k: int, ctx: str) -> BarycentricCoordinates:
    if "coordinates" not in cfg:
        return BarycentricCoordinates.uniform(k)
    coords = _get_numbers(cfg, "coordinates", ctx)
    if len(coords) != k:
        raise ConfigError(f"{ctx}: coordinates must be a list of {k} numbers")
    return BarycentricCoordinates(coords)


INPUT_KINDS = ("csv", "gaussian", "gmm_json", "swiss_roll")


def _parse_input(d: dict, idx: int, rng: np.random.Generator):
    """Returns (input, class names): the measure of a csv or swiss_roll
    entry or the mixture of a gaussian or gmm_json one, and the names
    ``load_csv`` returns for a csv entry, None for the others."""
    ctx = f"inputs[{idx}]"
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    kind = _get(d, "kind", str, ctx, required=True)
    if kind == "csv":
        _check_keys(d, ["kind", "path", "label_column", "components_per_class"], ctx)
        return _load(load_csv, _get(d, "path", str, ctx, required=True), ctx,
                     _get(d, "label_column", str, ctx))
    if kind == "gaussian":
        _check_keys(d, ["kind", "mean", "std"], ctx)
        mean = _get_numbers(d, "mean", ctx)
        if isinstance(d.get("std"), list):
            std = _get_numbers(d, "std", ctx)
            if std.shape != mean.shape:
                raise ConfigError(f"{ctx}: std needs one entry per coordinate "
                                  f"of mean")
        else:
            std = np.full(mean.shape, _get(d, "std", float, ctx, 1.0))
        return LabeledGMM([1.0], mean[None], np.diag(std)[None]), None
    if kind == "gmm_json":
        _check_keys(d, ["kind", "path"], ctx)
        return _load(load_gmm, _get(d, "path", str, ctx, required=True), ctx), None
    if kind == "swiss_roll":
        return _build(swiss_roll, d, ctx, SWISS_ROLL_DEFAULTS,
                      ("kind", "components_per_class"), seed=rng), None
    raise ConfigError(f"{ctx}: kind must be one of {INPUT_KINDS}")


# The empirical flow's sampler of an input of each kind; a gaussian input
# draws without a component choice.
SAMPLERS = {"csv": EmpiricalSampler, "swiss_roll": EmpiricalSampler,
            "gmm_json": GmmSampler,
            "gaussian": lambda g: GaussianSampler(g.means[0],
                                                  np.diagonal(g.chols[0]))}


def _check_em_counts(measure, need: int, where: str, ctx: str,
                     names) -> None:
    """EM fits ``need`` components to each class of a labeled measure, and a
    component needs a sample; the error names the input, the class (by
    ``names``, or by its id for integer labels) and both counts."""
    counts = np.bincount(measure.hard_labels(), minlength=measure.n_classes)
    c = int(np.argmin(counts))
    if counts[c] < need:
        found = "no sample" if counts[c] == 0 else f"only {counts[c]} samples"
        name = c if names is None else repr(names[c])
        raise ConfigError(f"{ctx}: EM fits {need} component(s) to each class "
                          f"of every labeled input; {where} has {found} of "
                          f"class {name}")


# ---------------------------------------------------------------------------
# artifacts

def _table(header, rows):
    """A writer of ``rows`` as a CSV table under ``header``."""
    return lambda path: write_table(path, header, rows)


@functools.cache
def _git_describe() -> str:
    """``git describe`` of the source tree, read once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


REPORT_SCHEMA_VERSION = 1


def write_report(out_dir: Path, command: str, config: dict, timings: dict,
                 artifacts: list, summary: dict) -> Path:
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": config,
        "git_describe": _git_describe(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "baryflow": __version__,
        },
        "timings_ms": timings,
        "artifacts": [str(a) for a in artifacts],
        "summary": summary,
    }
    path = out_dir / "run_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# barycenter command

BARY_KEYS = ["flow", "coordinates", "inputs", "flow_config", "functional"]


def _prepare_barycenter(cfg: dict, seed: int, ctx: str):
    flow_kind = _get(cfg, "flow", str, ctx, required=True)
    if flow_kind not in FLOW_CONFIGS:
        raise ConfigError(f"{ctx}: flow must be one of {sorted(FLOW_CONFIGS)}")
    inputs_cfg = _get(cfg, "inputs", list, ctx, required=True)
    if not inputs_cfg:
        raise ConfigError(f"{ctx}: inputs must be a non-empty list")
    coords = _parse_coordinates(cfg, len(inputs_cfg), ctx)
    functional = _parse_functional(cfg, ctx)
    flow_cfg = _parse_flow(flow_kind, cfg, "flow_config", ctx,
                           coordinates=coords, functional=functional, seed=seed)

    rng = np.random.default_rng(seed)
    # the labeled inputs of a run share one class mapping
    items, names = share_classes(
        *zip(*[_parse_input(d, i, rng) for i, d in enumerate(inputs_cfg)]),
        [d.get("path", f"inputs[{i}]") for i, d in enumerate(inputs_cfg)])
    for i, (d, x) in enumerate(zip(inputs_cfg, items)):
        # only the GMM flow fits labeled data by EM, per class
        if "components_per_class" in d and (
                flow_kind == "empirical" or x.n_classes is None):
            raise ConfigError(f"inputs[{i}]: components_per_class applies "
                              f"only to a labeled input of the gmm flow")
    dims = [(f"inputs[{i}]", x.dim) for i, x in enumerate(items)]
    if functional.target_measure is not None:
        dims.append(("functional: target_csv", functional.target_measure.dim))
    _check_dims(dims, ctx)
    if flow_kind == "empirical":
        inputs = [SAMPLERS[d["kind"]](x) for d, x in zip(inputs_cfg, items)]
    else:  # the GMM flow sees the labels of the fitted mixtures
        inputs = []
        for i, (d, x) in enumerate(zip(inputs_cfg, items)):
            if isinstance(x, LabeledGMM):
                inputs.append(x)
            elif x.n_classes is None:
                inputs.append(em_fit(x.points, seed=rng,
                                     components_per_class=flow_cfg.n_components))
            else:
                k = _get(d, "components_per_class", int, f"inputs[{i}]", 1)
                _check_em_counts(x, k, f"inputs[{i}]", ctx, names)
                inputs.append(em_fit(x.points, x.hard_labels(),
                                     components_per_class=k, seed=rng))
        items = inputs
    check_inputs(items, flow_cfg)
    n_classes = items[0].n_classes
    if flow_kind == "gmm" and flow_cfg.init_mode == "em" and n_classes is not None:
        flow_cfg.per_class(n_classes)  # the em init's split over the classes

    def run():
        t0 = time.perf_counter()
        if flow_kind == "empirical":
            final, trace = run_flow(inputs, flow_cfg)
            final_file = ("final_measure.csv",
                          lambda p: save_csv(final, p, names))
        else:
            final, trace = run_gmm_flow(inputs, flow_cfg)
            final_file = ("final_mixture.json", lambda p: save_gmm(final, p))
        timings = {"flow_ms": 1e3 * (time.perf_counter() - t0)}
        trace_table = _table(["iter", "B_hat", "V", "U", "G", "F", "param_norm"],
                             [dataclasses.astuple(r) for r in trace])
        files = [final_file, ("trace.csv", trace_table)]
        summary = {"final_objective": trace[-1].f, "n_iterations": trace[-1].iter}
        return timings, files, summary

    return run


# ---------------------------------------------------------------------------
# toy command

TOY_KEYS = ["base", "n_family", "n_samples", "noise_std", "solvers",
            "eval_points", "flow", "gmm"]
TOY_SOLVERS = ("wgf", "wgf_gmm", "fixed_point")


def _prepare_toy(cfg: dict, seed: int, ctx: str):
    base = _get(cfg, "base", str, ctx, "gaussian")
    if base not in ("gaussian", "swiss_roll"):
        raise ConfigError(f"{ctx}: base must be 'gaussian' or 'swiss_roll'")
    if base == "gaussian":
        _check_unread(cfg, ["noise_std"], "base 'gaussian'", ctx)
    k = _get(cfg, "n_family", int, ctx, 4)
    n = _get(cfg, "n_samples", int, ctx, 256)
    eval_points = _get(cfg, "eval_points", int, ctx, 500)
    for key, val in (("n_family", k), ("n_samples", n),
                     ("eval_points", eval_points)):
        if val < 1:
            raise ConfigError(f"{ctx}: {key} must be >= 1")
    solvers = _get_choices(cfg, "solvers", ctx, TOY_SOLVERS)
    coords = BarycentricCoordinates.uniform(k)
    emp_cfg = _parse_flow("empirical", cfg, "flow", ctx, coordinates=coords,
                          seed=seed)
    gmm_cfg = _parse_flow("gmm", cfg, "gmm", ctx, coordinates=coords, seed=seed)

    rng = np.random.default_rng(seed)
    if base == "gaussian":
        mean0 = np.zeros(2)
        cov0 = np.array([[1.0, 0.3], [0.3, 0.6]])
        chol0 = np.linalg.cholesky(cov0)
        q0 = EmpiricalMeasure(rng.standard_normal((n, 2)) @ chol0.T + mean0)
        # family centered away from the origin so the gaussian-scaled init
        # starts at a substantial distance from the barycenter
        maps = pd_affine_family(k, dim=2, seed=rng, shift_scale=1.5)
        maps = [AffineMap(m.a, m.b + np.array([4.0, 3.0])) for m in maps]
        # the family of a Gaussian base has a computable barycenter
        oracle = fixed_point_gaussian_barycenter(
            [m.apply(mean0[None])[0] for m in maps],
            [np.linalg.cholesky(m.a @ cov0 @ m.a.T) for m in maps], coords.lam)
        ref_pts, _, _ = sample_reparam(oracle, n, rng)
        reference = EmpiricalMeasure(ref_pts)
    else:
        q0 = swiss_roll(n, _get(cfg, "noise_std", float, ctx, 0.05), seed=rng)
        maps = default_affine_family(k, seed=rng)
        # the coordinate average of the maps: the pushforward reference for
        # a qualitative (non-PD) family
        avg = AffineMap(np.mean([m.a for m in maps], axis=0),
                        np.mean([m.b for m in maps], axis=0))
        reference = EmpiricalMeasure(avg.apply(q0.points))
    inputs = location_scatter_family(q0, maps)
    check_inputs(inputs, emp_cfg)
    if "wgf_gmm" in solvers:  # its mixtures are EM fits of the points alone
        gmms = [em_fit(m.points, components_per_class=gmm_cfg.n_components,
                       seed=np.random.default_rng(seed + 17 * i))
                for i, m in enumerate(inputs)]
        check_inputs(gmms, gmm_cfg)

    def run():
        rows = []
        timings = {}
        samplers = [EmpiricalSampler(m) for m in inputs]
        initial, _ = run_flow(samplers, dataclasses.replace(emp_cfg, n_iter=0))
        rows.append(("init", w2_to_reference(initial, reference,
                                             max_points=eval_points, seed=seed)))
        for solver in solvers:
            t0 = time.perf_counter()
            if solver == "wgf":
                result, _ = run_flow(samplers, emp_cfg)
            elif solver == "fixed_point":
                result = fixed_point_baseline(inputs, emp_cfg)
            else:
                mixture, _ = run_gmm_flow(gmms, gmm_cfg)
                pts, _, _ = sample_reparam(mixture, n, np.random.default_rng(seed + 1))
                result = EmpiricalMeasure(pts)
            w2 = w2_to_reference(result, reference, max_points=eval_points, seed=seed)
            timings[f"{solver}_ms"] = 1e3 * (time.perf_counter() - t0)
            rows.append((solver, w2))
        table = _table(["solver", "w2_to_ref"], rows)
        return timings, [("toy_table.csv", table)], {"table": dict(rows)}

    return run


# ---------------------------------------------------------------------------
# msda command

MSDA_KEYS = ["task", "sources_csv", "target_csv", "label_column", "method",
             "combos", "flow", "gmm", "functional"]
MSDA_COMBOS = ("B", "B+V", "B+U", "B+V+U")
# Target points the target potential sees. The potential couples them to
# the particles of the empirical flow or to the Monte-Carlo draws of the GMM
# flow, both 128 by default, and equal sizes make its plan a square uniform
# problem, which the exact solver reduces to an assignment.
TARGET_BATCH = 128


def _prepare_msda(cfg: dict, seed: int, ctx: str):
    method = _get(cfg, "method", str, ctx, "empirical")
    if method not in BARYCENTER_KINDS:
        raise ConfigError(f"{ctx}: method must be one of {BARYCENTER_KINDS}")
    combos = _get_choices(cfg, "combos", ctx, MSDA_COMBOS)
    rng = np.random.default_rng(seed)

    if "sources_csv" in cfg or "target_csv" in cfg:
        _check_unread(cfg, ["task"], "CSV inputs", ctx)
        paths = _get(cfg, "sources_csv", list, ctx, required=True)
        tpath = _get(cfg, "target_csv", str, ctx, required=True)
        label_col = _get(cfg, "label_column", str, ctx, "label")
        loaded = [_load(load_csv, p, ctx, label_col) for p in [*paths, tpath]]
        if not paths:
            raise ConfigError(f"{ctx}: sources_csv must be a non-empty list")
        (*sources, target), names = share_classes(*zip(*loaded),
                                                  [*paths, tpath])
        target_features = EmpiricalMeasure(target.points, target.weights)
        eval_labels = target.hard_labels()
    else:
        _check_unread(cfg, ["label_column"], "the synthetic task", ctx)
        names = None
        specs = _build(synthetic_domain_specs, _get(cfg, "task", dict, ctx, {}),
                       f"{ctx}: task", seed=rng)
        data = synthetic_msda(specs, seed=rng)
        sources = list(data.sources)
        target_features = data.target_features
        eval_labels = data.target_labels

    coords = BarycentricCoordinates.uniform(len(sources))
    idx = rng.choice(target_features.n,
                     size=min(TARGET_BATCH, target_features.n), replace=False)
    target_sub = EmpiricalMeasure(target_features.points[idx])
    functional = _parse_functional(cfg, ctx, target_measure=target_sub)
    _check_dims([(f"sources[{i}]", s.dim) for i, s in enumerate(sources)]
                + [("target", target_features.dim),
                   ("functional: target_csv", functional.target_measure.dim)], ctx)
    if method == "discrete_baseline" and functional.any_active:
        raise ConfigError(f"{ctx}: method 'discrete_baseline' applies no "
                          f"energy; functional weights must be 0")
    kind, key = ("gmm", "gmm") if method == "gmm" else ("empirical", "flow")
    _check_unread(cfg, [k for k in ("gmm", "flow") if k != key],
                  f"method {method!r}", ctx)
    flow_cfg = _parse_flow(kind, cfg, key, ctx, coordinates=coords,
                           functional=functional, seed=seed)
    check_inputs(sources, flow_cfg)
    if method == "gmm":
        need = flow_cfg.per_class(sources[0].n_classes)
        for i, s in enumerate(sources):
            _check_em_counts(s, need, f"sources[{i}]", ctx, names)
    runs = [(combo, dataclasses.replace(flow_cfg, functional=functional.with_mask(
        "V" in combo, "U" in combo))) for combo in combos]

    def run():
        rows = []
        timings = {}
        reports = {}
        for combo, run_cfg in runs:
            t0 = time.perf_counter()
            rep = msda_adapt(sources, target_features, eval_labels, method, run_cfg)
            timings[f"{combo}_ms"] = 1e3 * (time.perf_counter() - t0)
            rows.append((combo, rep.accuracy_adapted, rep.accuracy_source_only))
            reports[combo] = {"accuracy_adapted": rep.accuracy_adapted,
                              "accuracy_source_only": rep.accuracy_source_only,
                              "timings_ms": rep.timings_ms}
        table = _table(["combo", "accuracy_adapted", "accuracy_source_only"], rows)
        summary = {"method": method, "reports": reports}
        return timings, [("ablation_table.csv", table)], summary

    return run


# ---------------------------------------------------------------------------
# gen command

GEN_KEYS = ["dataset"]
GEN_KINDS = ("swiss_roll", "location_scatter", "synthetic_msda")


def _prepare_gen(cfg: dict, seed: int, ctx: str):
    ds = _get(cfg, "dataset", dict, ctx, required=True)
    ctx = f"{ctx}: dataset"
    kind = _get(ds, "kind", str, ctx, required=True)
    rng = np.random.default_rng(seed)
    files = []  # (file name, measure)

    if kind == "swiss_roll":
        m = _build(swiss_roll, ds, ctx, SWISS_ROLL_DEFAULTS, ("kind",), seed=rng)
        files.append(("swiss_roll.csv", m))
    elif kind == "location_scatter":
        _check_keys(ds, ["kind", "n", "k", "noise_std", "family"], ctx)
        k = _get(ds, "k", int, ctx, 4)
        q0 = swiss_roll(_get(ds, "n", int, ctx, 1000),
                        _get(ds, "noise_std", float, ctx, 0.05), seed=rng)
        family = _get(ds, "family", str, ctx, "default")
        if family == "default":
            maps = default_affine_family(k, seed=rng)
        elif family == "pd":
            maps = pd_affine_family(k, dim=2, seed=rng, shift_scale=3.0)
        else:
            raise ConfigError(f"{ctx}: family must be 'default' or 'pd'")
        files += [(f"family_{i}.csv", m)
                  for i, m in enumerate(location_scatter_family(q0, maps))]
    elif kind == "synthetic_msda":
        specs = _build(synthetic_domain_specs, ds, ctx, None, ("kind",), seed=rng)
        data = synthetic_msda(specs, seed=rng)
        files += [(f"source_{i}.csv", s) for i, s in enumerate(data.sources)]
        files.append(("target.csv", EmpiricalMeasure.from_hard_labels(
            data.target_features.points, data.target_labels,
            int(data.target_labels.max()) + 1)))
    else:
        raise ConfigError(f"{ctx}: kind must be one of {GEN_KINDS}")

    def run():
        writers = [(name, lambda p, m=m: save_csv(m, p)) for name, m in files]
        return {}, writers, {"kind": kind}

    return run


# ---------------------------------------------------------------------------

# A command is ``(prepare, keys)``: ``prepare(cfg, seed, ctx)`` reads its own
# ``keys`` and loads or generates its inputs, and returns the run step, which
# computes and returns (timings, files, summary), ``files`` being a list of
# (file name, writer of a path). Neither step touches output_dir; `main` reads
# the keys every command shares and, once the run step has returned, writes
# the files and the run report. `validate` stops after prepare.
COMMON_KEYS = ["command", "seed", "output_dir"]
COMMANDS = {
    "barycenter": (_prepare_barycenter, BARY_KEYS),
    "toy": (_prepare_toy, TOY_KEYS),
    "msda": (_prepare_msda, MSDA_KEYS),
    "gen": (_prepare_gen, GEN_KEYS),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1), not with argparse's
    exit 2, which here means a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="baryflow",
                     description="Wasserstein barycenters by gradient flow")
    parser.add_argument("subcommand",
                        choices=sorted(COMMANDS) + ["validate"])
    parser.add_argument("config", help="path to a JSON run config")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        command = _get(cfg, "command", str, "config", required=True)
        if command not in COMMANDS:
            raise ConfigError(f"config: command must be one of {sorted(COMMANDS)}")
        if args.subcommand not in ("validate", command):
            raise ConfigError(
                f"config declares command {command!r}; invoked as "
                f"{args.subcommand!r}")
        prepare, keys = COMMANDS[command]
        ctx = f"{command} config"
        _check_keys(cfg, COMMON_KEYS + keys, ctx)
        seed = _get(cfg, "seed", int, ctx, 0)
        if seed < 0:
            raise ConfigError(f"{ctx}: seed must be >= 0")
        out = Path(_get(cfg, "output_dir", str, ctx, required=True))
        # the directory is made after the run, so a file in its way is
        # found now
        above = next(p for p in (out, *out.parents) if p.exists())
        if not above.is_dir():
            raise ConfigError(f"{ctx}: output_dir {str(out)!r}: "
                              f"{str(above)!r} is not a directory")
        try:
            run = prepare(cfg, seed, ctx)
        except ValueError as e:
            # preparing reads the config and builds the inputs it describes
            raise ConfigError(f"{ctx}: {e}") from None
        if args.subcommand == "validate":
            print(f"config ok: command={command}")
            return 0
        try:
            timings, files, summary = run()
        except ValueError as e:
            # the config passed; a check in the run met a diverged value
            print(f"baryflow-error[numeric]: {e}", file=sys.stderr)
            return 2
        # created only now, so a failed run leaves no directory behind
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files:
            write(out / name)
        paths = [out / name for name, _ in files]
        report = write_report(out, command, cfg, timings, paths, summary)
        print(f"{command}: wrote {', '.join(map(str, paths + [report]))}")
        return 0
    except ConfigError as e:
        print(f"baryflow-error[config]: {e}", file=sys.stderr)
        return 1
    except (ot.ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"baryflow-error[numeric]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
