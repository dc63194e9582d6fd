"""Importing baryflow, its CLI and ``validate`` load no scipy module, nor
do a sorted 1-D empirical run, a small weighted solve on the transportation
simplex, a small weighted Sinkhorn solve, and a GMM flow run (EM fit, Bures
gradients and component plans on that simplex); the solver paths that need
scipy load it on first use.

The checks run in one fresh interpreter (the rest of the suite imports scipy
in-process), which prints the scipy modules loaded after each step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1]: a JSON list of [step, command, argument]; command None imports
# the module named by the step, "solve_exact" and "solve_entropic" solve a
# weighted n x n problem with n the argument (None: the smallest n above the
# simplex size limit), and a CLI command runs on the config path in the
# argument. Prints {step: [loaded scipy modules]}.
CHILD = """
import importlib, json, math, sys
loaded = {}
for step, command, arg in json.loads(sys.argv[1]):
    if command is None:
        importlib.import_module(step)
    elif command in ("solve_exact", "solve_entropic"):
        import numpy as np
        from baryflow import ot
        n = arg or math.isqrt(ot.SIMPLEX_SIZE_LIMIT) + 1
        x = np.column_stack([np.arange(n), np.arange(n) % 3.0])
        w = np.arange(1.0, n + 1) / (n * (n + 1) / 2)
        c = ot.squared_distances(x, x + 0.5)
        if command == "solve_exact":
            ot.solve_exact(w, w[::-1], c)
        else:
            ot.solve_entropic(w, w[::-1], c, epsilon=0.05 * np.median(c))
    else:
        from baryflow.cli import main
        code = main([command, arg])
        if code != 0:
            sys.exit(f"{step}: exit {code}")
    loaded[step] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""

GAUSSIANS_1D = [{"kind": "gaussian", "mean": [0.0], "std": 1.0},
                {"kind": "gaussian", "mean": [4.0], "std": 1.0}]


def gmm_json(path: Path, shift: float) -> dict:
    """A gmm_json input: a 2-D mixture of two unlabeled components."""
    path.write_text(json.dumps({
        "schema_version": 1, "weights": [0.4, 0.6],
        "means": [[shift, 0.0], [shift + 2.0, 1.0]],
        "cholesky_rows": [[[1.0, 0.0], [0.2, 0.8]], [[0.7, 0.0], [0.0, 1.1]]],
        "labels": None}))
    return {"kind": "gmm_json", "path": str(path)}


def configs(tmp_path: Path) -> dict:
    """Plain-dict configs, one per workload shape."""
    target = tmp_path / "target.csv"
    target.write_text("f0,f1\n" + "".join(
        f"{0.3 * i},{(i * 7) % 5 - 2.0}\n" for i in range(16)))
    return {
        "bary1d": {
            "command": "barycenter", "seed": 0, "flow": "empirical",
            "inputs": GAUSSIANS_1D,
            "flow_config": {"n_particles": 256, "batch_size": 128,
                            "n_iter": 5, "step_size": 0.15,
                            "solver": "exact"}},
        "gmm": {
            "command": "barycenter", "seed": 0, "flow": "gmm",
            "inputs": [gmm_json(tmp_path / f"g{i}.json", 4.0 * i)
                       for i in range(2)],
            "flow_config": {"n_components": 2, "n_iter": 3}},
        "msda": {
            "command": "msda", "seed": 0, "method": "empirical",
            "task": {"n_samples": 64},
            "flow": {"n_particles": 32, "batch_size": 32, "n_iter": 2,
                     "label_weight": 8.0, "init": "subsample"},
            "functional": {"repulsion_weight": 0.05, "target_weight": 0.1}},
        "entropic": {
            "command": "barycenter", "seed": 0, "flow": "empirical",
            "inputs": [{"kind": "gaussian", "mean": [0.0, 0.0], "std": 1.0},
                       {"kind": "gaussian", "mean": [4.0, 3.0], "std": 1.0}],
            "flow_config": {"n_particles": 24, "batch_size": 16, "n_iter": 2,
                            "solver": "entropic"},
            "functional": {"target_weight": 0.1, "target_csv": str(target)}},
    }


@pytest.fixture(scope="module")
def scipy_after(tmp_path_factory):
    """Scipy modules loaded after each step, in one fresh interpreter."""
    tmp = tmp_path_factory.mktemp("lazy_imports")
    paths = {}
    for name, cfg in configs(tmp).items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(
            {**cfg, "output_dir": str(tmp / f"out_{name}")}))
    steps = [["baryflow", None, None], ["baryflow.cli", None, None]]
    steps += [[f"validate-{name}", "validate", str(p)]
              for name, p in paths.items()]
    steps += [["run-bary1d", "barycenter", str(paths["bary1d"])],
              ["solve_exact-simplex", "solve_exact", 6],
              ["solve_entropic", "solve_entropic", 6],
              ["run-gmm", "barycenter", str(paths["gmm"])],
              ["solve_exact-lp", "solve_exact", None]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp / "out_bary1d" / "final_measure.csv").is_file()
    assert (tmp / "out_gmm" / "final_mixture.json").is_file()
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("step", [
    "baryflow", "baryflow.cli", "validate-bary1d", "validate-gmm",
    "validate-msda", "validate-entropic", "run-bary1d", "solve_exact-simplex",
    "solve_entropic", "run-gmm"])
def test_no_scipy_loaded(scipy_after, step):
    assert scipy_after[step] == []


def test_lp_path_loads_scipy_on_first_use(scipy_after):
    assert "scipy.optimize" in scipy_after["solve_exact-lp"]
