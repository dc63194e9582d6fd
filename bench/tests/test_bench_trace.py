"""Tests of the benchmark's tracer and harness.

Run from the repository root:

    python3 -m pytest -q bench/tests

The count tests run one instance of each workload through the CLI with the
tracer installed and compare call counts with what the code must do, which
shows that the wrappers reach every call site, including names that modules
import directly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import baryflow.cli as cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _attribute_snapshot():
    return {(m.__name__, attr): val for m in tracing._package_modules()
            for attr, val in vars(m).items() if callable(val)}


def _traced(workload, tmp_path):
    (inst,) = workloads.make_instances(workload, 0, tmp_path, count=1)
    tracer = tracing.Tracer()
    session = run.Session(cli, workloads, workload, tracer)
    tracer.install()
    try:
        wall = session.invoke(inst)
    finally:
        tracer.uninstall()
    assert session.errors == [] and wall is not None
    assert tracer.run_id == 1
    return inst.n_iter, tracing.layer_metrics(tracer.spans, 1)


def test_bary1d_counts(tmp_path):
    n_iter, m = _traced("bary1d", tmp_path)
    # two inputs, one plan each per step plus the initial evaluation
    assert m["ot.solve_exact.assign.calls"] == 2 * (n_iter + 1)
    assert m["ot.solve_exact.lp.calls"] == 0
    assert m["ot.solve_entropic.calls"] == 0
    assert m["flow_empirical.flow_step.calls"] == n_iter
    # one cost per plan, plus one re-cost per plan for the trace
    assert m["ot.joint_cost.calls"] == 2 + 4 * n_iter
    assert m["ot.coupling_entries"] == 2 * (n_iter + 1) * 256 * 128
    assert m["gaussian.bures_w2_sq.calls"] == 0


def test_gmm5d_counts(tmp_path):
    n_iter, m = _traced("gmm5d", tmp_path)
    assert m["flow_gmm.mw2_fixed_plan_value_grad.calls"] == 3 * n_iter
    # Dirichlet weights: every component plan is a non-uniform LP
    assert m["ot.solve_exact.lp.calls"] == 3 * (n_iter + 1)
    assert m["ot.solve_exact.assign.calls"] == 0
    # 6 x 6 values per cost matrix, and one value per nonzero plan entry in
    # the gradient pass, where bures_w2_grad runs beside it
    assert m["gaussian.bures_w2_grad.calls"] > 0
    assert (m["gaussian.bures_w2_sq.calls"]
            == 3 * (n_iter + 1) * 36 + m["gaussian.bures_w2_grad.calls"])
    assert m["gaussian.em_fit.ms"] > 0


def test_msda2d_counts(tmp_path):
    n_iter, m = _traced("msda2d", tmp_path)
    runs = len(workloads.MSDA_COMBOS)
    assert m["flow_empirical.flow_step.calls"] == runs * n_iter
    # the two combos with U: one value at the start, then gradient and
    # trace value per step
    assert m["functionals.hinge_repulsion.calls"] == 2 * (2 * n_iter + 1)
    # the two combos with V solve one target plan per evaluation
    assert m["ot.solve_auto.calls"] == 2 * (n_iter + 1)
    # two sources per evaluation, the target plans, one alignment per combo
    assert (m["ot.solve_exact.assign.calls"]
            == runs * 2 * (n_iter + 1) + 2 * (n_iter + 1) + runs)
    assert m["ot.solve_exact.lp.calls"] == 0
    assert m["pipeline.barycenter_ms"] > 0


def test_entropic2d_counts(tmp_path):
    n_iter, m = _traced("entropic2d", tmp_path)
    assert m["ot.solve_entropic.calls"] == 3 * (n_iter + 1)
    # 96 x 128 uniform target plans have no integer size ratio
    assert m["ot.solve_auto.calls"] == n_iter + 1
    assert m["ot.solve_exact.lp.calls"] == n_iter + 1
    assert m["ot.solve_exact.assign.calls"] == 0


def test_wrappers_reach_direct_imports_and_are_removed():
    before = _attribute_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import baryflow.flow_empirical as fe
        import baryflow.flow_gmm as fg
        for fn in (fg.bures_w2_sq, fg.bures_w2_grad, fg.mw2_cost_matrix,
                   fg.em_fit, fe.hinge_repulsion, fg.hinge_repulsion,
                   cli.load_gmm, cli.save_gmm, cli.save_csv, cli.run_flow):
            assert hasattr(fn, "__bench_original__"), fn.__name__
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert _attribute_snapshot() == before


def test_untraced_run_installs_no_wrappers(tmp_path):
    before = _attribute_snapshot()
    (inst,) = workloads.make_instances("bary1d", 0, tmp_path, count=1)
    session = run.Session(cli, workloads, "bary1d")
    assert session.invoke(inst) is not None
    assert tracing.installed_wrappers() == []
    assert _attribute_snapshot() == before


def test_self_time_and_flow_share():
    S = tracing.Span
    spans = [S("cli.main", 0, 10_000_000, -1, 0, None),
             S("flow_empirical.run_flow", 1_000_000, 9_000_000, 0, 0, None),
             S("ot.solve_exact.assign", 2_000_000, 6_000_000, 1, 0, {"entries": 6}),
             S("datasets.save_csv", 9_000_000, 9_500_000, 0, 0, None)]
    m = tracing.layer_metrics(spans, 1)
    assert m["cli.overhead_ms"] == pytest.approx(1.5)
    assert m["ot.solve_exact.assign.flow_share"] == pytest.approx(50.0)
    assert m["flow.ms"] == pytest.approx(8.0)
    assert m["datasets.io_ms"] == pytest.approx(0.5)
    assert m["ot.coupling_entries"] == 6


def test_tail_percentile_needs_ten_beyond():
    assert tracing.tail_percentile(list(range(15))) == (None, None)
    assert tracing.tail_percentile(list(range(20)))[0] == 50.0
    assert tracing.tail_percentile(list(range(1000)))[0] == 99.0


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bary1d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
