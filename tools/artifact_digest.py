"""Digest the artifacts of a fixed set of CLI runs for one source tree.

Usage: python3 tools/artifact_digest.py SRC_ROOT WORK_DIR
       python3 tools/artifact_digest.py --compare WORK_A WORK_B

Runs each config below through ``baryflow.cli.main``, imported from
``SRC_ROOT/src``, with outputs under ``WORK_DIR``, and prints one line
``run file sha256`` per artifact. The digest of ``run_report.json`` is taken
after normalizing it (``normalized_report``): the wall-clock timings and
``git_describe`` are removed and ``WORK_DIR`` becomes a fixed token. A run
that exits non-zero prints ``run exit CODE``. Two source trees write the
same artifacts and reports when the outputs for both are equal, so a change
that must keep them byte-identical is checked by ``diff`` of two runs of
this script.

``--compare`` reads the outputs of two earlier runs of this script, from
their work directories, and prints one line ``run file`` per artifact with
``identical``, ``max_rel_diff X`` (the largest relative difference over the
numeric CSV cells and JSON leaves; other cells must be equal) or
``mismatch: REASON`` when the two differ in structure. ``run_report.json``
is compared after ``normalized_report``. It checks a change whose artifacts
may move only by rounding: it exits 1 when an artifact is a mismatch, exists
under one work directory only, or has ``max_rel_diff`` above
ROUNDING_BOUND (1e-12), and 0 otherwise.

The runs: the five configs of acceptance criterion 12, instance 0 of seed 0
of each benchmark workload (from ``SRC_ROOT/bench/workloads.py``), ``toy``
with ``fixed_point`` on a ``swiss_roll`` base, ``msda`` with
``discrete_baseline`` and with ``gmm``, ``gen`` ``location_scatter`` and
``synthetic_msda``, ``barycenter`` with exact plans between 48 particles and
batches of 32 (uniform, sizes not dividing) on two labeled ``swiss_roll``
inputs, ``barycenter`` with exact plans between 96 particles and batches of
64 (the lcm assignment path, with starting prices) on two unlabeled 2-D
``gaussian`` inputs far from the origin, ``barycenter`` with the gmm flow
from a random diagonal initial state on two labeled ``swiss_roll`` inputs,
``barycenter`` with the gmm flow moving the weights (``flow_weights``) on
two labeled ``swiss_roll`` inputs fitted with two components per class,
``barycenter`` with the gmm flow between mixtures of 12 components (three
per class of two labeled ``swiss_roll`` inputs), whose 144-entry weighted
plans take the HiGHS LP of ``ot._linprog_plan``,
``barycenter`` with the gmm flow and the two Monte-Carlo energies (target
potential on a CSV batch this script writes, internal energy),
``barycenter`` on two CSV inputs this script writes, labeled with the class
names {cat, dog, fish}, ``barycenter`` with the gmm flow on the same two
inputs, ``msda`` with ``gmm`` on the same two inputs as sources and the
first as target, ``barycenter`` with the gmm flow on two 1-D
mixtures this script writes at scale 1e-6, whose factors converge below
1e-6, and ``barycenter`` with exact plans between 1-D particles and batches
(the sorted path of ``ot.solve_line``) and the target potential on a 1-D
CSV batch this script writes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

CLASS_NAMES = ("cat", "dog", "fish")


def class_name_inputs(run_dir: Path) -> list[dict]:
    """Two 2-D CSV inputs under ``run_dir``, labeled by class name, each with
    every name of CLASS_NAMES."""
    inputs = []
    for i in range(2):
        rows = "".join(f"{0.5 * j + i},{j * 7 % 5 - 2.0},"
                       f"{CLASS_NAMES[j % 3]}\n" for j in range(12))
        path = run_dir / f"input_{i}.csv"
        path.write_text("f0,f1,label\n" + rows)
        inputs.append({"kind": "csv", "path": str(path), "label_column": "label"})
    return inputs


def target_csv(run_dir: Path) -> str:
    """An unlabeled 2-D target batch of 24 points, written under ``run_dir``."""
    path = run_dir / "target.csv"
    path.write_text("f0,f1\n" + "".join(
        f"{0.5 * j - 6.0},{j * 5 % 7 - 3.0}\n" for j in range(24)))
    return str(path)


def line_target_csv(run_dir: Path) -> str:
    """An unlabeled 1-D target batch of 24 points, written under ``run_dir``."""
    path = run_dir / "target.csv"
    path.write_text("f0\n" + "".join(
        f"{(j * 7 % 24) * 0.25 - 1.0}\n" for j in range(24)))
    return str(path)


def small_scale_inputs(run_dir: Path) -> list[dict]:
    """Two 1-D two-component mixtures of ``gmm_json`` files under
    ``run_dir``: unit-scale means and factors, scaled by 1e-6."""
    inputs = []
    for i, (shift, stds) in enumerate([(0.0, (0.5, 0.5)), (1.0, (0.6, 0.4))]):
        doc = {"weights": [0.5, 0.5],
               "means": [[1e-6 * shift], [1e-6 * (shift + 10.0)]],
               "cholesky_rows": [[[1e-6 * s]] for s in stds]}
        path = run_dir / f"input_{i}.json"
        path.write_text(json.dumps(doc))
        inputs.append({"kind": "gmm_json", "path": str(path)})
    return inputs


GAUSSIANS_1D = [{"kind": "gaussian", "mean": [0.0], "std": 1.0},
                {"kind": "gaussian", "mean": [4.0], "std": 1.0}]

CONFIGS = {
    # acceptance criterion 12
    "c12-barycenter-empirical": {
        "command": "barycenter", "seed": 5, "flow": "empirical",
        "inputs": GAUSSIANS_1D,
        "flow_config": {"n_particles": 32, "batch_size": 32, "n_iter": 20}},
    "c12-barycenter-gmm": {
        "command": "barycenter", "seed": 5, "flow": "gmm",
        "inputs": GAUSSIANS_1D,
        "flow_config": {"n_components": 1, "n_iter": 40, "step_size": 0.1}},
    "c12-toy": {
        "command": "toy", "seed": 2, "base": "gaussian", "n_family": 3,
        "n_samples": 128, "eval_points": 128,
        "flow": {"n_particles": 32, "batch_size": 32, "n_iter": 20},
        "gmm": {"n_components": 1, "n_iter": 40}},
    "c12-msda": {
        "command": "msda", "seed": 1, "method": "empirical",
        "task": {"n_samples": 128}, "combos": ["B", "B+V+U"],
        "flow": {"n_particles": 64, "batch_size": 64, "n_iter": 30,
                 "label_weight": 8.0, "init": "subsample"},
        "functional": {"repulsion_weight": 0.05, "target_weight": 0.1}},
    "c12-gen": {
        "command": "gen", "seed": 4,
        "dataset": {"kind": "swiss_roll", "n": 300, "noise_std": 0.1}},
    # paths the criterion-12 configs and the workloads do not take
    "toy-fixed-point-swiss-roll": {
        "command": "toy", "seed": 3, "base": "swiss_roll", "n_family": 3,
        "n_samples": 96, "eval_points": 96, "solvers": ["fixed_point"],
        "flow": {"n_particles": 32, "batch_size": 32, "n_iter": 10,
                 "label_weight": 1.0}},
    "msda-discrete-baseline": {
        "command": "msda", "seed": 2, "method": "discrete_baseline",
        "task": {"n_samples": 96}, "combos": ["B"],
        "flow": {"n_particles": 48, "batch_size": 48, "n_iter": 10}},
    "msda-gmm": {
        "command": "msda", "seed": 3, "method": "gmm",
        "task": {"n_samples": 96}, "combos": ["B", "B+V+U"],
        "gmm": {"n_components": 3, "n_iter": 15, "label_weight": 1.0},
        "functional": {"entropy_weight": 0.05, "repulsion_weight": 0.05}},
    "gen-location-scatter": {
        "command": "gen", "seed": 6,
        "dataset": {"kind": "location_scatter", "n": 200, "k": 3,
                    "family": "pd"}},
    "gen-synthetic-msda": {
        "command": "gen", "seed": 7,
        "dataset": {"kind": "synthetic_msda", "n_samples": 64}},
    "barycenter-exact-lcm": {
        "command": "barycenter", "seed": 9, "flow": "empirical",
        "inputs": [{"kind": "swiss_roll", "n": 64, "noise_std": 0.3},
                   {"kind": "swiss_roll", "n": 80, "noise_std": 0.5}],
        "flow_config": {"n_particles": 48, "batch_size": 32, "n_iter": 10,
                        "label_weight": 1.0, "solver": "exact"}},
    "barycenter-exact-lcm-far": {
        "command": "barycenter", "seed": 14, "flow": "empirical",
        "inputs": [{"kind": "gaussian", "mean": [6.0, 5.0], "std": 1.0},
                   {"kind": "gaussian", "mean": [9.0, 2.0], "std": 0.5}],
        "flow_config": {"n_particles": 96, "batch_size": 64, "n_iter": 10,
                        "solver": "exact"}},
    "barycenter-gmm-random-init": {
        "command": "barycenter", "seed": 10, "flow": "gmm",
        "inputs": [{"kind": "swiss_roll", "n": 96, "noise_std": 0.3},
                   {"kind": "swiss_roll", "n": 96, "noise_std": 0.5}],
        "flow_config": {"n_components": 4, "n_iter": 10, "label_weight": 1.0,
                        "init_mode": "random", "diag_only": True}},
    "barycenter-gmm-flow-weights": {
        "command": "barycenter", "seed": 12, "flow": "gmm",
        "inputs": [{"kind": "swiss_roll", "n": 96, "noise_std": 0.3,
                    "components_per_class": 2},
                   {"kind": "swiss_roll", "n": 96, "noise_std": 0.5,
                    "components_per_class": 2}],
        "flow_config": {"n_components": 4, "n_iter": 10, "label_weight": 1.0,
                        "flow_weights": True}},
    "barycenter-gmm-lp": {
        "command": "barycenter", "seed": 16, "flow": "gmm",
        "inputs": [{"kind": "swiss_roll", "n": 120, "noise_std": 0.3,
                    "components_per_class": 3},
                   {"kind": "swiss_roll", "n": 120, "noise_std": 0.5,
                    "components_per_class": 3}],
        "flow_config": {"n_components": 12, "n_iter": 5,
                        "label_weight": 1.0}},
    # a callable config is built from its run directory
    "barycenter-gmm-energies": lambda run_dir: {
        "command": "barycenter", "seed": 11, "flow": "gmm",
        "inputs": [{"kind": "swiss_roll", "n": 96, "noise_std": 0.3},
                   {"kind": "swiss_roll", "n": 96, "noise_std": 0.5}],
        "flow_config": {"n_components": 4, "n_iter": 5, "mc_samples": 64},
        "functional": {"target_weight": 0.1, "internal_weight": 0.05,
                       "target_csv": target_csv(run_dir)}},
    "barycenter-csv-class-names": lambda run_dir: {
        "command": "barycenter", "seed": 8, "flow": "empirical",
        "inputs": class_name_inputs(run_dir),
        "flow_config": {"n_particles": 12, "batch_size": 12, "n_iter": 10,
                        "label_weight": 1.0, "init": "subsample"}},
    "barycenter-gmm-csv-class-names": lambda run_dir: {
        "command": "barycenter", "seed": 17, "flow": "gmm",
        "inputs": class_name_inputs(run_dir),
        "flow_config": {"n_components": 3, "n_iter": 10}},
    "msda-csv-class-names": lambda run_dir: {
        "command": "msda", "seed": 18, "method": "gmm",
        "sources_csv": [d["path"] for d in class_name_inputs(run_dir)],
        "target_csv": str(run_dir / "input_0.csv"),
        "gmm": {"n_components": 3, "n_iter": 5}},
    "barycenter-gmm-small-scale": lambda run_dir: {
        "command": "barycenter", "seed": 13, "flow": "gmm",
        "inputs": small_scale_inputs(run_dir),
        "flow_config": {"n_components": 2, "n_iter": 20}},
    "barycenter-line-target": lambda run_dir: {
        "command": "barycenter", "seed": 15, "flow": "empirical",
        "inputs": GAUSSIANS_1D,
        "flow_config": {"n_particles": 24, "batch_size": 16, "n_iter": 10,
                        "solver": "exact"},
        "functional": {"target_weight": 0.2,
                       "target_csv": line_target_csv(run_dir)}},
}
WORKLOADS = ("bary1d", "gmm5d", "msda2d", "entropic2d")
WORK_TOKEN = "<WORK_DIR>"
# the largest relative move of a numeric artifact value that --compare
# accepts as rounding
ROUNDING_BOUND = 1e-12


def normalized_report(path: Path, work: Path) -> bytes:
    """``run_report.json`` without what differs between equal runs: the
    top-level and per-combo ``timings_ms``, ``git_describe`` and the work
    directory in paths."""
    report = json.loads(path.read_text())
    del report["timings_ms"], report["git_describe"]
    for combo in report["summary"].get("reports", {}).values():
        del combo["timings_ms"]
    text = json.dumps(report, indent=1, sort_keys=True)
    return text.replace(str(work), WORK_TOKEN).encode()


class Mismatch(Exception):
    """Two artifacts differ in structure, or in a non-numeric value."""


def _rel_diff(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _cells(text: str) -> list[list]:
    """CSV rows, with each cell that parses as a number as a float."""
    def cell(c):
        try:
            return float(c)
        except ValueError:
            return c
    return [[cell(c) for c in row] for row in csv.reader(text.splitlines())]


def _diff(a, b, where: str = "") -> float:
    """Largest relative difference of the numeric leaves of two JSON values
    (or CSV rows); Mismatch if anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where or '/'}: keys differ")
        return max((_diff(a[k], b[k], f"{where}/{k}") for k in a),
                   default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where or '/'}: {len(a)} vs {len(b)} items")
        return max((_diff(x, y, f"{where}/{i}")
                    for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return _rel_diff(a, b)
    if a != b:
        raise Mismatch(f"{where or '/'}: {a!r} vs {b!r}")
    return 0.0


def compare(work_a: Path, work_b: Path) -> bool:
    """Print how each artifact under ``work_b`` differs from ``work_a``;
    return whether every artifact is on both sides and within
    ROUNDING_BOUND."""
    def artifacts(work):
        return {f.relative_to(work) for f in work.glob("**/out/*")}

    def read(work, rel):
        f = work / rel
        data = (normalized_report(f, work) if f.name == "run_report.json"
                else f.read_bytes())
        return data.decode()

    found_a, found_b = artifacts(work_a), artifacts(work_b)
    ok = True
    for rel in sorted(found_a | found_b):
        label = f"{rel.parts[0]} {rel.name}"
        if rel not in found_a or rel not in found_b:
            print(label, "mismatch: only in",
                  work_a if rel in found_a else work_b)
            ok = False
            continue
        a, b = read(work_a, rel), read(work_b, rel)
        if a == b:
            print(label, "identical")
            continue
        try:
            worst = (_diff(_cells(a), _cells(b)) if rel.suffix == ".csv"
                     else _diff(json.loads(a), json.loads(b)))
        except Mismatch as e:
            print(label, "mismatch:", e)
            ok = False
        else:
            print(label, "max_rel_diff", f"{worst:.3g}")
            ok = ok and worst <= ROUNDING_BOUND
    return ok


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return 0 if compare(Path(argv[1]).resolve(),
                            Path(argv[2]).resolve()) else 1
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_root, work = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    # the benchmark's directory is imported, never written to
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src_root / "src"), str(src_root / "bench")]
    from baryflow.cli import main as cli_main
    import workloads

    runs = []  # (name, command, config path, output directory)
    for name, cfg in CONFIGS.items():
        out = work / name / "out"
        path = work / name / "config.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(cfg):
            cfg = cfg(path.parent)
        path.write_text(json.dumps({**cfg, "output_dir": str(out)}))
        runs.append((name, cfg["command"], path, out))
    for name in WORKLOADS:
        (inst,) = workloads.make_instances(name, 0, work / name, count=1)
        runs.append((name, inst.command, inst.config_path, inst.out_dir))

    for name, command, path, out in runs:
        with contextlib.redirect_stdout(sys.stderr):  # progress names paths
            code = cli_main([command, str(path)])
        if code != 0:
            print(name, "exit", code)
            continue
        for f in sorted(out.iterdir()):
            data = (normalized_report(f, work) if f.name == "run_report.json"
                    else f.read_bytes())
            print(name, f.name, hashlib.sha256(data).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
