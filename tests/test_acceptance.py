"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import csv
import itertools
import json
import time

import numpy as np
import pytest

from baryflow import ot
from baryflow.cli import main as cli_main
from baryflow.datasets import synthetic_domain_specs, synthetic_msda
from baryflow.flow_empirical import EmpiricalFlowConfig, flow_step
from baryflow.flow_gmm import GmmFlowConfig, run_gmm_flow
from baryflow.functionals import (
    entropy_potential,
    hinge_repulsion,
    internal_energy_mc,
    target_potential,
)
from baryflow.gaussian import (
    LabeledGMM,
    bures_w2_grad,
    bures_w2_sq,
    fixed_point_gaussian_barycenter,
    mw2_fixed_plan_value_grad,
    mw2_sq,
    sample_reparam,
)
from baryflow.measures import BarycentricCoordinates, EmpiricalMeasure
from baryflow.pipeline import convergence_report, msda_adapt

from conftest import (
    TWO_GAUSSIAN_SEEDS,
    bures_w2_sq_cov,
    covariance_fixed_point,
    random_pd_component,
)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_01_exact_ot_oracle():
    rng = np.random.default_rng(101)
    instances = []
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        instances.append((np.random.default_rng(rng.integers(2**32)).random((n, n)),))
    solver_time = 0.0
    for (cost,) in instances:
        n = cost.shape[0]
        a = np.full(n, 1.0 / n)
        t0 = time.perf_counter()
        _, got = ot.solve_exact(a, a, cost)
        solver_time += time.perf_counter() - t0
        best = min(sum(cost[i, p[i]] for i in range(n)) / n
                   for p in itertools.permutations(range(n)))
        assert abs(got - best) <= 1e-9
    assert solver_time < 1.0
    report(1, f"1000 uniform n<=4 instances match brute force; "
              f"solver time {solver_time:.3f}s < 1s")


def test_criterion_02_1d_quantile_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        y = rng.standard_normal(n) + rng.uniform(-3, 3)
        expected = np.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
        got = ot.w2_empirical(EmpiricalMeasure(x), EmpiricalMeasure(y))
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-10
    report(2, f"200 equal-size 1-D instances match sorted matching; "
              f"worst abs error {worst:.2e} <= 1e-10")


def _chunked_empirical_w2sq(g1, g2, n_total, chunk, seed):
    rng = np.random.default_rng(seed)
    x = sample_reparam(LabeledGMM([1.0], [g1[0]], [g1[1]]), n_total, rng)[0]
    y = sample_reparam(LabeledGMM([1.0], [g2[0]], [g2[1]]), n_total, rng)[0]
    vals = []
    for i in range(n_total // chunk):
        xs, ys = x[i * chunk:(i + 1) * chunk], y[i * chunk:(i + 1) * chunk]
        cost = ot.squared_distances(xs, ys)
        _, c = ot.solve_exact(np.full(chunk, 1 / chunk),
                              np.full(chunk, 1 / chunk), cost)
        vals.append(c)
    return float(np.mean(vals))


def test_criterion_03_bures_closed_form():
    rng = np.random.default_rng(103)
    for _ in range(100):
        m1, m2 = rng.standard_normal(2) * 3
        s1, s2 = rng.uniform(0.2, 3.0, size=2)
        expected = (m1 - m2) ** 2 + (s1 - s2) ** 2
        got = bures_w2_sq(np.array([m1]), np.array([[s1]]),
                          np.array([m2]), np.array([[s2]]))
        assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    rels = {}
    for d in (2, 5):
        r = np.random.default_rng(200 + d)
        mu1, mu2 = r.normal(size=d) * 2, r.normal(size=d) * 2 + 2.0
        a, b = r.normal(size=(d, d)), r.normal(size=(d, d))
        g1 = mu1, np.linalg.cholesky(a @ a.T / d + 0.5 * np.eye(d))
        g2 = mu2, np.linalg.cholesky(b @ b.T / d + 0.5 * np.eye(d))
        # 20 000 samples per side, evaluated as 20 disjoint 1000 x 1000
        # exact couplings (the full 20k x 20k coupling is out of desk scale)
        emp = _chunked_empirical_w2sq(g1, g2, 20_000, 1000, seed=300 + d)
        true = bures_w2_sq(*g1, *g2)
        rel = abs(np.sqrt(emp) - np.sqrt(true)) / np.sqrt(true)
        rels[d] = rel
        assert rel <= 0.05
    report(3, "1-D closed form exact on 100 instances; 20k-sample MC "
              f"consistency rel err d=2: {rels[2]:.3f}, d=5: {rels[5]:.3f} "
              "(<= 0.05)")


def _fd_scalar(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_criterion_04_gradient_suite():
    rng = np.random.default_rng(104)
    h = 1e-5

    # Bures gradient
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(1, 4))
        (mu1, l1), g2 = random_pd_component(rng, d), random_pd_component(rng, d)
        dmu, dl = bures_w2_grad(mu1, l1, *g2)
        j = int(rng.integers(0, d))
        e = np.zeros(d)
        e[j] = h
        fd = (bures_w2_sq(mu1 + e, l1, *g2)
              - bures_w2_sq(mu1 - e, l1, *g2)) / (2 * h)
        worst = max(worst, abs(fd - dmu[j]) / max(1.0, abs(fd)))
        r, c = int(rng.integers(0, d)), 0
        em = np.zeros((d, d))
        em[r, c] = h
        fd = (bures_w2_sq(mu1, l1 + em, *g2)
              - bures_w2_sq(mu1, l1 - em, *g2)) / (2 * h)
        worst = max(worst, abs(fd - dl[r, c]) / max(1.0, abs(fd)))
    assert worst < 1e-4
    bures_worst = worst

    # entropy
    worst = 0.0
    for _ in range(100):
        logits = rng.standard_normal((4, 3)) * 2
        _, grad = entropy_potential(logits)
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        e = np.zeros_like(logits)
        e[i, j] = h
        fd = (entropy_potential(logits + e)[0]
              - entropy_potential(logits - e)[0]) / (2 * h)
        worst = max(worst, abs(fd - grad[i, j]) / max(1.0, abs(fd)))
    assert worst < 1e-4
    entropy_worst = worst

    # hinge repulsion, both metrics
    worst = 0.0
    for t in range(100):
        metric = "euclidean" if t % 2 == 0 else "cosine"
        pts = rng.standard_normal((5, 3)) + 2.0
        labels = rng.integers(0, 2, size=5)
        margin = 2.5 if metric == "euclidean" else 0.8
        _, grad = hinge_repulsion(pts, labels, margin, metric)
        i, j = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        e = np.zeros_like(pts)
        e[i, j] = 1e-6
        fd = (hinge_repulsion(pts + e, labels, margin, metric)[0]
              - hinge_repulsion(pts - e, labels, margin, metric)[0]) / 2e-6
        worst = max(worst, abs(fd - grad[i, j]) / max(1.0, abs(fd)))
    assert worst < 1e-4
    hinge_worst = worst

    # target potential (envelope gradient; plans stable under tiny shifts)
    worst = 0.0
    for _ in range(100):
        pts = rng.standard_normal((4, 2))
        target = EmpiricalMeasure(rng.standard_normal((5, 2)) + 0.5)
        _, grad, _ = target_potential(EmpiricalMeasure(pts), target)
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 2))

        def val(delta):
            p = pts.copy()
            p[i, j] += delta
            return target_potential(EmpiricalMeasure(p), target)[0]

        fd = (val(1e-6) - val(-1e-6)) / 2e-6
        worst = max(worst, abs(fd - grad[i, j]) / max(1.0, abs(fd)))
    assert worst < 1e-4
    target_worst = worst

    # omega-fixed MW2 gradients
    worst = 0.0
    for _ in range(100):
        k, m, d, c = 2, 2, 2, 2
        state = LabeledGMM(rng.dirichlet(np.ones(k)),
                           *zip(*(random_pd_component(rng, d) for _ in range(k))),
                           nu=rng.dirichlet(np.ones(c), size=k))
        other = LabeledGMM(rng.dirichlet(np.ones(m)),
                           *zip(*(random_pd_component(rng, d) for _ in range(m))),
                           nu=rng.dirichlet(np.ones(c), size=m))
        beta = 1.1
        _, plan = mw2_sq(state, other, beta=beta)
        omega = plan.coupling
        _, gm, gl, gn = mw2_fixed_plan_value_grad(state, other, plan, beta)

        def objective(mus, chols, nus):
            # priced in the covariance form, independent of the Bures kernel
            val = 0.0
            for i in range(k):
                for j in range(m):
                    if omega[i, j] == 0.0:
                        continue
                    val += omega[i, j] * (
                        bures_w2_sq_cov(mus[i], chols[i] @ chols[i].T,
                                        other.means[j],
                                        other.chols[j] @ other.chols[j].T)
                        + beta * ((nus[i] - other.nu[j]) ** 2).sum())
            return val

        mus, chols, nus = state.means, state.chols, np.array(state.nu)
        i = int(rng.integers(0, k))
        j = int(rng.integers(0, d))
        e = np.zeros((k, d))
        e[i, j] = h
        fd = (objective(mus + e, chols, nus) - objective(mus - e, chols, nus)) / (2 * h)
        worst = max(worst, abs(fd - gm[i, j]) / max(1.0, abs(fd)))
        el = np.zeros((k, d, d))
        el[i, j, 0] = h
        fd = (objective(mus, chols + el, nus) - objective(mus, chols - el, nus)) / (2 * h)
        worst = max(worst, abs(fd - gl[i, j, 0]) / max(1.0, abs(fd)))
        en = np.zeros((k, c))
        en[i, 0] = h
        fd = (objective(mus, chols, nus + en) - objective(mus, chols, nus - en)) / (2 * h)
        worst = max(worst, abs(fd - gn[i, 0]) / max(1.0, abs(fd)))
    assert worst < 1e-4
    mw2_worst = worst

    # Monte-Carlo internal energy with common random numbers
    worst = 0.0
    for t in range(100):
        k, d = 2, 2
        mus = rng.standard_normal((k, d))
        chols = [random_pd_component(rng, d)[1] for _ in range(k)]
        w = rng.dirichlet(np.ones(k))
        seed = 10_000 + t

        def build(mus_, chols_):
            return LabeledGMM(w, mus_, chols_)

        _, gm, gl, _ = internal_energy_mc(build(mus, chols), 256, seed=seed)
        i, j = int(rng.integers(0, k)), int(rng.integers(0, d))
        e = np.zeros((k, d))
        e[i, j] = h
        fd = (internal_energy_mc(build(mus + e, chols), 256, seed)[0]
              - internal_energy_mc(build(mus - e, chols), 256, seed)[0]) / (2 * h)
        worst = max(worst, abs(fd - gm[i, j]) / max(1.0, abs(fd)))
        el = np.zeros((d, d))
        el[1, 0] = h
        cp = [chols[q] + (el if q == i else 0) for q in range(k)]
        cm = [chols[q] - (el if q == i else 0) for q in range(k)]
        fd = (internal_energy_mc(build(mus, cp), 256, seed)[0]
              - internal_energy_mc(build(mus, cm), 256, seed)[0]) / (2 * h)
        worst = max(worst, abs(fd - gl[i, 1, 0]) / max(1.0, abs(fd)))
    assert worst < 5e-2
    mc_worst = worst

    report(4, "gradients match finite differences on 100 instances each - "
              f"bures {bures_worst:.1e}, entropy {entropy_worst:.1e}, "
              f"hinge {hinge_worst:.1e}, target {target_worst:.1e}, "
              f"mw2 {mw2_worst:.1e} (< 1e-4); MC internal {mc_worst:.1e} "
              "(< 5e-2)")


def test_criterion_05_gaussian_barycenter_recovery(two_gaussian_runs_m128):
    stats = []
    for seed in TWO_GAUSSIAN_SEEDS:
        final, _, wall = two_gaussian_runs_m128[seed]
        mean = float(final.points.mean())
        std = float(final.points.std())
        stats.append((seed, mean, std, wall))
        assert 1.8 <= mean <= 2.2, f"seed {seed}: mean {mean}"
        assert 0.85 <= std <= 1.15, f"seed {seed}: std {std}"
        assert wall < 30.0, f"seed {seed}: runtime {wall:.1f}s"
    means = ", ".join(f"{m:.3f}" for _, m, _, _ in stats)
    report(5, f"5 seeds recover N(2,1): means [{means}], "
              f"max runtime {max(w for *_, w in stats):.1f}s < 30s")


def test_criterion_06_gmm_flow_recovery():
    t0 = time.perf_counter()
    q1 = LabeledGMM([1.0], [[0.0, 0.0]],
                    np.linalg.cholesky([[[1.0, 0.3], [0.3, 0.8]]]))
    q2 = LabeledGMM([1.0], [[4.0, 1.0]],
                    np.linalg.cholesky([[[2.0, -0.4], [-0.4, 1.5]]]))
    cfg = GmmFlowConfig(1, 1500, BarycentricCoordinates.uniform(2),
                        step_size=0.1, seed=0)
    final, _ = run_gmm_flow([q1, q2], cfg)
    oracle = fixed_point_gaussian_barycenter(
        np.concatenate([q1.means, q2.means]), np.concatenate([q1.chols, q2.chols]))
    w2 = float(np.sqrt(bures_w2_sq(final.means[0], final.chols[0],
                                   oracle.means[0], oracle.chols[0])))
    wall = time.perf_counter() - t0
    assert w2 <= 1e-2
    assert wall < 10.0
    # flow and oracle share the Bures kernel, so the oracle is checked
    # against the covariance-form fixed point
    cov = oracle.chols[0] @ oracle.chols[0].T
    reference = covariance_fixed_point(
        [f @ f.T for f in (q1.chols[0], q2.chols[0])], [0.5, 0.5])
    cov_diff = np.abs(cov - reference).max() / np.abs(reference).max()
    assert cov_diff <= 1e-10
    report(6, f"GMM flow within W2 {w2:.2e} of the fixed-point oracle "
              f"(<= 1e-2) in {wall:.1f}s < 10s; oracle covariance within "
              f"{cov_diff:.1e} (<= 1e-10) of the covariance-form fixed point")


def test_criterion_07_proposition1_equality():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        d, c = 2, 3
        beta = float(rng.uniform(0.2, 2.0))
        p = LabeledGMM(rng.dirichlet(np.ones(k)),
                       *zip(*(random_pd_component(rng, d) for _ in range(k))),
                       nu=rng.dirichlet(np.ones(c), size=k))
        q = LabeledGMM(rng.dirichlet(np.ones(m)),
                       *zip(*(random_pd_component(rng, d) for _ in range(m))),
                       nu=rng.dirichlet(np.ones(c), size=m))
        cost_dec, _ = mw2_sq(p, q, beta=beta)

        def lift(gmm):
            out = []
            for mean, chol, nu in zip(gmm.means, gmm.chols, gmm.nu):
                mu = np.concatenate([mean, np.sqrt(beta) * nu])
                cov = np.zeros((d + c, d + c))
                cov[:d, :d] = chol @ chol.T
                out.append((mu, cov))
            return out

        joint = np.array([[bures_w2_sq_cov(mi, ci, mj, cj)
                           for mj, cj in lift(q)] for mi, ci in lift(p)])
        _, cost_joint = ot.solve_exact(p.weights, q.weights, joint)
        diff = abs(cost_dec - cost_joint)
        worst = max(worst, diff / max(1.0, cost_dec))
        assert diff <= 1e-12 * max(1.0, cost_dec)
    report(7, f"decomposed MW2 equals the lifted joint-cost LP on 50 pairs; "
              f"worst rel diff {worst:.1e} <= 1e-12")


def test_criterion_08_fixed_point_equivalence():
    rng = np.random.default_rng(108)
    from baryflow.measures import MiniBatch
    n = 32
    pts = rng.standard_normal((n, 2))
    batches = [MiniBatch(rng.standard_normal((n, 2)) + 1.0),
               MiniBatch(rng.standard_normal((n, 2)) - 2.0)]
    lam = BarycentricCoordinates([0.4, 0.6])
    alpha = 0.45
    cfg = EmpiricalFlowConfig(n, n, 1, lam, step_size=alpha)
    new, _ = flow_step(EmpiricalMeasure(pts), batches, cfg, 1)

    mapped = np.zeros_like(pts)
    for l, batch in zip(lam.lam, batches):
        cost = ot.squared_distances(pts, batch.points)
        plan, _ = ot.solve_exact(np.full(n, 1 / n), np.full(n, 1 / n), cost)
        mapped += l * ot.barycentric_map(plan, batch.points)
    expected = (1 - alpha) * pts + alpha * mapped
    err = float(np.max(np.abs(new.points - expected)))
    assert err <= 1e-10
    report(8, f"full-batch flow step equals the fixed-point update; "
              f"max abs deviation {err:.1e} <= 1e-10")


def test_criterion_09_theorem1_shape(two_gaussian_runs_m128,
                                     two_gaussian_runs_m16):
    r2s, plateaus_128, plateaus_16 = [], [], []
    for seed in TWO_GAUSSIAN_SEEDS:
        _, trace128, _ = two_gaussian_runs_m128[seed]
        rep = convergence_report(trace128)
        r2s.append(rep.r_squared)
        plateaus_128.append(rep.plateau)
        _, trace16 = two_gaussian_runs_m16[seed]
        plateaus_16.append(convergence_report(trace16).plateau)
    mean_r2 = float(np.mean(r2s))
    p128, p16 = float(np.mean(plateaus_128)), float(np.mean(plateaus_16))
    assert mean_r2 >= 0.8
    assert p128 <= p16 + 1e-3
    report(9, f"log-residual fit R2 {mean_r2:.3f} >= 0.8; plateau(m=128) "
              f"{p128:.4f} <= plateau(m=16) {p16:.4f} + 1e-3")


@pytest.fixture(scope="module")
def msda_runs():
    out = {"src": [], "labeled": [], "unlabeled": []}
    t0 = time.perf_counter()
    for seed in range(5):
        specs = synthetic_domain_specs(seed=seed)
        data = synthetic_msda(specs, seed=seed)
        for key, beta in (("labeled", 8.0), ("unlabeled", 0.0)):
            cfg = EmpiricalFlowConfig(
                n_particles=128, batch_size=64, n_iter=120,
                coordinates=BarycentricCoordinates.uniform(2),
                label_weight=beta, seed=seed, init="subsample")
            rep = msda_adapt(data.sources, data.target_features,
                             data.target_labels, "empirical", cfg)
            out[key].append(rep.accuracy_adapted)
            if key == "labeled":
                out["src"].append(rep.accuracy_source_only)
    out["wall"] = time.perf_counter() - t0
    return out


def test_criterion_10_msda_trend(msda_runs):
    src = float(np.mean(msda_runs["src"]))
    labeled = float(np.mean(msda_runs["labeled"]))
    unlabeled = float(np.mean(msda_runs["unlabeled"]))
    assert labeled > src
    assert labeled >= unlabeled
    assert msda_runs["wall"] < 120.0
    report(10, f"rotated-target MSDA (5 seeds): adapted {labeled:.3f} > "
               f"source-only {src:.3f}; labeled {labeled:.3f} >= unlabeled "
               f"{unlabeled:.3f}; runtime {msda_runs['wall']:.0f}s < 120s")


def test_criterion_11_ablation_guard_rail(tmp_path):
    acc = {"B": [], "B+V+U": []}
    for seed in range(5):
        out = tmp_path / f"run{seed}"
        cfg = {
            "command": "msda",
            "seed": seed,
            "output_dir": str(out),
            "method": "empirical",
            "flow": {"n_particles": 128, "batch_size": 64, "n_iter": 80,
                     "label_weight": 8.0, "init": "subsample"},
            "functional": {"repulsion_weight": 0.05, "target_weight": 0.1},
        }
        cfg_path = tmp_path / f"cfg{seed}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["msda", str(cfg_path)]) == 0
        text = (out / "ablation_table.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert [r[0] for r in rows[1:]] == ["B", "B+V", "B+U", "B+V+U"]
        table = {r[0]: float(r[1]) for r in rows[1:]}
        acc["B"].append(table["B"])
        acc["B+V+U"].append(table["B+V+U"])
    mean_b = float(np.mean(acc["B"]))
    mean_bvu = float(np.mean(acc["B+V+U"]))
    assert mean_bvu >= mean_b - 0.01
    report(11, f"ablation table emitted with 4 combos; B+V+U {mean_bvu:.3f} "
               f">= B {mean_b:.3f} - 0.01 (5-seed average)")


def test_criterion_12_cli_determinism(tmp_path):
    def run_twice(subcommand, cfg):
        artifacts = []
        for tag in ("a", "b"):
            c = dict(cfg)
            c["output_dir"] = str(tmp_path / f"{subcommand}_{tag}")
            path = tmp_path / f"{subcommand}_{tag}.json"
            path.write_text(json.dumps(c))
            assert cli_main([subcommand, str(path)]) == 0
            out = tmp_path / f"{subcommand}_{tag}"
            files = sorted(p for p in out.iterdir()
                           if p.name != "run_report.json")
            artifacts.append([p.read_bytes() for p in files])
        assert artifacts[0] == artifacts[1]

    run_twice("barycenter", {
        "command": "barycenter", "seed": 5, "flow": "empirical",
        "inputs": [{"kind": "gaussian", "mean": [0.0], "std": 1.0},
                   {"kind": "gaussian", "mean": [4.0], "std": 1.0}],
        "flow_config": {"n_particles": 32, "batch_size": 32, "n_iter": 20},
    })
    run_twice("barycenter", {
        "command": "barycenter", "seed": 5, "flow": "gmm",
        "inputs": [{"kind": "gaussian", "mean": [0.0], "std": 1.0},
                   {"kind": "gaussian", "mean": [4.0], "std": 1.0}],
        "flow_config": {"n_components": 1, "n_iter": 40, "step_size": 0.1},
    })
    run_twice("toy", {
        "command": "toy", "seed": 2, "base": "gaussian", "n_family": 3,
        "n_samples": 128, "eval_points": 128,
        "flow": {"n_particles": 32, "batch_size": 32, "n_iter": 20},
        "gmm": {"n_components": 1, "n_iter": 40},
    })
    run_twice("msda", {
        "command": "msda", "seed": 1, "method": "empirical",
        "task": {"n_samples": 128},
        "combos": ["B", "B+V+U"],
        "flow": {"n_particles": 64, "batch_size": 64, "n_iter": 30,
                 "label_weight": 8.0, "init": "subsample"},
        "functional": {"repulsion_weight": 0.05, "target_weight": 0.1},
    })
    run_twice("gen", {
        "command": "gen", "seed": 4,
        "dataset": {"kind": "swiss_roll", "n": 300, "noise_std": 0.1},
    })
    report(12, "barycenter (empirical + gmm), toy, msda, and gen artifacts "
               "are byte-identical across repeated seeded runs")
