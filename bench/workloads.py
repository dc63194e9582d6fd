"""Benchmark workloads: inputs generated from a seed, and output checks.

Each workload turns ``(seed, index)`` into one CLI instance: a JSON config
plus any input files it names, written under a work directory. The program
sees only those files. After every run the workload checks the artifacts and
returns the quality numbers they carry; a failed check raises ``CheckFailed``.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Iteration budgets: each instance takes about 1.2 to 1.6 s on a 2-core
# Xeon, so a run makes two cycles of its instances, with set-up samples
# between them, within --seconds.
N_ITER = {"bary1d": 30, "gmm5d": 22, "msda2d": 40, "entropic2d": 5}
# Instances per run: quality is their mean, so a run covers several inputs.
INSTANCES = 6


class CheckFailed(Exception):
    """An artifact failed the workload's output check."""


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    command: str
    config_path: Path
    out_dir: Path
    n_iter: int


def instance_seed(seed: int, index: int) -> int:
    """The program's own seed for instance ``index`` of a benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _read_trace(out_dir: Path) -> list[dict]:
    with open(out_dir / "trace.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    if not rows:
        raise CheckFailed("trace.csv has no rows")
    return rows


def _objective_quality(out_dir: Path) -> dict:
    """Initial and final objective from trace.csv; the final one must be
    finite and below the initial one."""
    rows = _read_trace(out_dir)
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        raise CheckFailed("trace.csv holds a non-finite value")
    f0, f1 = rows[0]["F"], rows[-1]["F"]
    if not f1 < f0:
        raise CheckFailed(f"final F {f1!r} is not below initial F {f0!r}")
    return {"objective_initial": f0, "objective_final": f1,
            "objective_reduction": f0 / f1, "objective_removed": 1.0 - f1 / f0}


# ---------------------------------------------------------------------------
# bary1d: the criterion-5 task, N(0,1) and N(4,1) in 1-D, exact solver

# Objective at the oracle barycenter N(2, 1): 1/2 W2^2 to each input, and
# W2^2 between 1-D Gaussians is (mean gap)^2 + (std gap)^2 = 4.
BARY1D_F_ORACLE = 4.0

def _bary1d_config(rng, seed, work, out, n_iter):
    return "barycenter", {
        "command": "barycenter", "seed": seed, "output_dir": str(out),
        "flow": "empirical",
        "inputs": [{"kind": "gaussian", "mean": [0.0], "std": 1.0},
                   {"kind": "gaussian", "mean": [4.0], "std": 1.0}],
        "flow_config": {"n_particles": 256, "batch_size": 128,
                        "n_iter": n_iter, "step_size": 0.15,
                        "solver": "exact"},
    }


def _bary1d_check(out_dir: Path) -> dict:
    with open(out_dir / "final_measure.csv", newline="") as fh:
        x = np.array([float(r["f0"]) for r in csv.DictReader(fh)])
    mean, std = float(x.mean()), float(x.std())
    if not (1.8 <= mean <= 2.2 and 0.85 <= std <= 1.15):
        raise CheckFailed(f"final mean {mean:.4f} / std {std:.4f} outside "
                          "[1.8, 2.2] / [0.85, 1.15]")
    # W2 to the oracle N(2, 1) in 1-D: sorted particles against its quantiles
    oracle = NormalDist(2.0, 1.0)
    n = x.shape[0]
    q = np.array([oracle.inv_cdf((i + 0.5) / n) for i in range(n)])
    w2 = float(np.sqrt(np.mean((np.sort(x) - q) ** 2)))
    # The flow has converged by mid-run; the mean of the later mini-batch
    # objectives averages out batch noise that a single last row carries.
    rows = _read_trace(out_dir)
    f_tail = statistics.fmean(r["F"] for r in rows[len(rows) // 2:])
    return {"final_mean": mean, "final_std": std, "w2_to_oracle": w2,
            "objective_tail": f_tail, "oracle_ratio": BARY1D_F_ORACLE / f_tail,
            **_objective_quality(out_dir)}


# ---------------------------------------------------------------------------
# gmm5d: three random 6-component mixtures in 5-D, GMM flow with EM init

def _random_gmm(rng, k=6, d=5):
    means = rng.normal(0.0, 2.0, (k, d))
    chols = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cov = (q * rng.uniform(0.25, 2.0, d)) @ q.T
        chols.append(np.linalg.cholesky((cov + cov.T) / 2.0).tolist())
    return {"schema_version": 1,
            "weights": rng.dirichlet(np.full(k, 2.0)).tolist(),
            "means": means.tolist(), "cholesky_rows": chols, "labels": None}


def _gmm5d_config(rng, seed, work, out, n_iter):
    inputs = []
    for i in range(3):
        path = work / f"input_{i}.json"
        _write_json(path, _random_gmm(rng))
        inputs.append({"kind": "gmm_json", "path": str(path)})
    return "barycenter", {
        "command": "barycenter", "seed": seed, "output_dir": str(out),
        "flow": "gmm", "inputs": inputs,
        "flow_config": {"n_components": 6, "n_iter": n_iter,
                        "init_mode": "em"},
    }


def _gmm5d_check(out_dir: Path) -> dict:
    from baryflow.gaussian import load_gmm
    try:
        gmm = load_gmm(out_dir / "final_mixture.json")
    except (OSError, ValueError, KeyError) as e:
        raise CheckFailed(f"final mixture does not reload: {e}") from None
    if gmm.n_components != 6 or gmm.dim != 5:
        raise CheckFailed("final mixture has the wrong shape")
    return _objective_quality(out_dir)


# ---------------------------------------------------------------------------
# msda2d: the default synthetic task through the MSDA ablation

MSDA_COMBOS = ("B", "B+V", "B+U", "B+V+U")


def _msda2d_config(rng, seed, work, out, n_iter):
    return "msda", {
        "command": "msda", "seed": seed, "output_dir": str(out),
        "method": "empirical", "combos": list(MSDA_COMBOS),
        "flow": {"n_particles": 128, "batch_size": 64, "n_iter": n_iter,
                 "label_weight": 8.0, "init": "subsample"},
        "functional": {"repulsion_weight": 0.05, "target_weight": 0.1},
    }


def _msda2d_check(out_dir: Path) -> dict:
    with open(out_dir / "ablation_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if tuple(r["combo"] for r in rows) != MSDA_COMBOS:
        raise CheckFailed("ablation table does not hold the four combos")
    adapted = [float(r["accuracy_adapted"]) for r in rows]
    source = [float(r["accuracy_source_only"]) for r in rows]
    for combo, a, s in zip(MSDA_COMBOS, adapted, source):
        if not (0.0 <= a <= 1.0 and 0.0 <= s <= 1.0):
            raise CheckFailed(f"{combo}: accuracy outside [0, 1]")
        if not a > s:
            raise CheckFailed(f"{combo}: adapted accuracy {a} is not above "
                              f"source-only {s}")
    return {"accuracy_adapted": sum(adapted) / len(adapted),
            "accuracy_source_only": source[0]}


# ---------------------------------------------------------------------------
# entropic2d: three 2-D Gaussians, Sinkhorn flow plans, a target potential

def _entropic2d_config(rng, seed, work, out, n_iter):
    center = np.array([4.0, 3.0])
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.arange(3) * 2.0 * np.pi / 3.0
    means = center + 2.0 * np.c_[np.cos(angles), np.sin(angles)]
    stds = rng.uniform(1.4, 1.6, (3, 2))
    target = center + rng.normal(0.0, 0.5, 2) + 1.5 * rng.standard_normal((128, 2))
    target_path = work / "target.csv"
    with open(target_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f0", "f1"])
        w.writerows([[format(float(v), ".17g") for v in p] for p in target])
    return "barycenter", {
        "command": "barycenter", "seed": seed, "output_dir": str(out),
        "flow": "empirical",
        "inputs": [{"kind": "gaussian", "mean": m.tolist(), "std": s.tolist()}
                   for m, s in zip(means, stds)],
        "flow_config": {"n_particles": 96, "batch_size": 64, "n_iter": n_iter,
                        "solver": "entropic"},
        "functional": {"target_weight": 0.1, "target_csv": str(target_path)},
    }


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    config: object
    check: object
    # key of the check's result that is this workload's `quality` metric
    quality_key: str


WORKLOADS = {
    "bary1d": Workload(_bary1d_config, _bary1d_check, "oracle_ratio"),
    "gmm5d": Workload(_gmm5d_config, _gmm5d_check, "objective_reduction"),
    "msda2d": Workload(_msda2d_config, _msda2d_check, "accuracy_adapted"),
    "entropic2d": Workload(_entropic2d_config, _objective_quality,
                           "objective_removed"),
}


def make_instances(name: str, seed: int, work_dir: Path,
                   count: int = INSTANCES) -> list[Instance]:
    """Write ``count`` instances of workload ``name`` for ``seed``."""
    wl = WORKLOADS[name]
    n_iter = N_ITER[name]
    out = []
    for i in range(count):
        inst_dir = work_dir / f"instance_{i}"
        inst_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, i, 1])
        program_seed = instance_seed(seed, i)
        command, cfg = wl.config(rng, program_seed, inst_dir, inst_dir / "out",
                                 n_iter)
        path = inst_dir / "config.json"
        _write_json(path, cfg)
        out.append(Instance(i, program_seed, command, path, inst_dir / "out",
                            n_iter))
    return out


def check(name: str, inst: Instance) -> dict:
    """Check an instance's artifacts; returns its quality numbers."""
    try:
        return WORKLOADS[name].check(inst.out_dir)
    except (OSError, KeyError, ValueError) as e:
        raise CheckFailed(f"unreadable artifact: {e!r}") from None
