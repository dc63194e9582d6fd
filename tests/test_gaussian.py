import itertools

import numpy as np
import pytest

from baryflow import gaussian as ga
from baryflow.gaussian import (
    LabeledGMM,
    bures_w2_grad,
    bures_w2_sq,
    em_fit,
    gmm_from_json,
    gmm_log_density,
    gmm_to_json,
    load_gmm,
    mw2_sq,
    sample_reparam,
    save_gmm,
)

from conftest import (
    bures_w2_sq_cov,
    em_single_reference,
    matrix_sqrt_psd,
    random_pd_component,
)

# Factors with an upper entry of 0.5% of the diagonal at scale 1e-6, and
# with rounding noise above the diagonal at scale 1e6.
TINY_UPPER = [[1e-6, 5e-9], [0.0, 1e-6]]
NOISY_UPPER = [[1e6, 1e-7], [0.0, 1e6]]


class TestMatrixSqrtPsd:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])),
                           np.diag([2.0, 3.0]))

    def test_round_trip_random_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            s = a @ a.T
            r = matrix_sqrt_psd(s)
            assert np.max(np.abs(r @ r - s)) <= 1e-8
            assert np.allclose(r, r.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))

    def test_singular_psd_allowed(self):
        r = matrix_sqrt_psd(np.diag([1.0, 0.0]))
        assert np.allclose(r, np.diag([1.0, 0.0]))


def gaussian(mu, chol):
    """One Gaussian as a (mean, factor) row pair of float arrays."""
    return np.array(mu, dtype=float), np.array(chol, dtype=float)


class TestBures:
    def test_zero_on_identical(self):
        g = random_pd_component(np.random.default_rng(1), 3)
        assert bures_w2_sq(*g, *g) <= 1e-10

    def test_mean_shift_only(self):
        g1 = gaussian([0.0, 0.0], np.eye(2))
        g2 = gaussian([4.0, 0.0], np.eye(2))
        assert abs(bures_w2_sq(*g1, *g2) - 16.0) <= 1e-12

    def test_1d_scale(self):
        g1 = gaussian([0.0], [[1.0]])
        g2 = gaussian([0.0], [[2.0]])
        assert abs(bures_w2_sq(*g1, *g2) - 1.0) <= 1e-12

    def test_1d_closed_form_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m1, m2 = rng.standard_normal(2) * 3
            s1, s2 = rng.uniform(0.2, 3.0, size=2)
            g1 = gaussian([m1], [[s1]])
            g2 = gaussian([m2], [[s2]])
            expected = (m1 - m2) ** 2 + (s1 - s2) ** 2
            assert abs(bures_w2_sq(*g1, *g2) - expected) <= 1e-12 * max(1, expected)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g1 = random_pd_component(rng, 3)
            g2 = random_pd_component(rng, 3)
            assert abs(bures_w2_sq(*g1, *g2) - bures_w2_sq(*g2, *g1)) <= 1e-9


class TestBuresGrad:
    def test_zero_at_identical(self):
        g = random_pd_component(np.random.default_rng(4), 3)
        dmu, dl = bures_w2_grad(*g, *g)
        assert np.max(np.abs(dmu)) <= 1e-10
        assert np.max(np.abs(dl)) <= 1e-8

    def test_1d_mean_gradient(self):
        g1 = gaussian([0.0], [[1.0]])
        g2 = gaussian([4.0], [[1.0]])
        dmu, _ = bures_w2_grad(*g1, *g2)
        assert np.allclose(dmu, [-8.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_finite_differences(self, d):
        rng = np.random.default_rng(5 + d)
        h = 1e-5
        for _ in range(20):
            mu1, l1 = random_pd_component(rng, d)
            g2 = random_pd_component(rng, d)
            dmu, dl = bures_w2_grad(mu1, l1, *g2)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (bures_w2_sq(mu1 + e, l1, *g2)
                      - bures_w2_sq(mu1 - e, l1, *g2)
                      ) / (2 * h)
                assert abs(fd - dmu[i]) <= 1e-4 * max(1.0, abs(fd))
            for i in range(d):
                for j in range(i + 1):
                    e = np.zeros((d, d))
                    e[i, j] = h
                    fd = (bures_w2_sq(mu1, l1 + e, *g2)
                          - bures_w2_sq(mu1, l1 - e, *g2)
                          ) / (2 * h)
                    assert abs(fd - dl[i, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_rejects_singular(self):
        g1 = gaussian([0.0, 0.0], np.diag([1.0, 1e-9]))
        g2 = gaussian([1.0, 1.0], np.eye(2))
        with pytest.raises(ValueError):
            bures_w2_grad(*g1, *g2)


def random_labeled_gmm(rng, k, d, n_classes):
    means, chols = zip(*(random_pd_component(rng, d) for _ in range(k)))
    nu = rng.dirichlet(np.ones(n_classes), size=k)
    return LabeledGMM(rng.dirichlet(np.ones(k)), means, chols, nu=nu)


class TestMw2:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(6)
        p = random_labeled_gmm(rng, 3, 2, 2)
        cost, _ = mw2_sq(p, p, beta=1.5)
        assert cost <= 1e-10

    def test_single_component_reduces_to_bures(self):
        rng = np.random.default_rng(7)
        g1, g2 = random_pd_component(rng, 2), random_pd_component(rng, 2)
        p = LabeledGMM([1.0], [g1[0]], [g1[1]], nu=[[1.0, 0.0]])
        q = LabeledGMM([1.0], [g2[0]], [g2[1]], nu=[[0.0, 1.0]])
        cost, _ = mw2_sq(p, q, beta=2.0)
        assert abs(cost - (bures_w2_sq(*g1, *g2) + 2.0 * 2.0)) <= 1e-10

    def test_two_component_permutation_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = LabeledGMM([0.5, 0.5], *zip(
                *(random_pd_component(rng, 2) for _ in range(2))))
            q = LabeledGMM([0.5, 0.5], *zip(
                *(random_pd_component(rng, 2) for _ in range(2))))
            cost, _ = mw2_sq(p, q)
            c = np.array([[bures_w2_sq(*a, *b) for b in zip(q.means, q.chols)]
                          for a in zip(p.means, p.chols)])
            best = min(0.5 * (c[0, 0] + c[1, 1]), 0.5 * (c[0, 1] + c[1, 0]))
            assert abs(cost - best) <= 1e-10

    def test_beta_monotone(self):
        rng = np.random.default_rng(9)
        p = random_labeled_gmm(rng, 3, 2, 3)
        q = random_labeled_gmm(rng, 2, 2, 3)
        costs = [mw2_sq(p, q, beta=b)[0] for b in (0.0, 0.5, 1.0, 4.0)]
        assert all(c2 >= c1 - 1e-12 for c1, c2 in zip(costs, costs[1:]))

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        p = random_labeled_gmm(rng, 3, 2, 2)
        q = random_labeled_gmm(rng, 2, 2, 2)
        assert abs(mw2_sq(p, q, 1.0)[0] - mw2_sq(q, p, 1.0)[0]) <= 1e-10


class TestProposition1Decomposition:
    def test_matches_lifted_joint_cost(self):
        # lift each component to the product space as a degenerate Gaussian
        # (block-diagonal covariance, zero block on the label coordinates)
        rng = np.random.default_rng(11)
        for _ in range(10):
            beta = float(rng.uniform(0.2, 3.0))
            p = random_labeled_gmm(rng, 3, 2, 2)
            q = random_labeled_gmm(rng, 2, 2, 2)
            cost_dec, _ = mw2_sq(p, q, beta=beta)

            def lift(gmm):
                out = []
                for mean, chol, nu in zip(gmm.means, gmm.chols, gmm.nu):
                    mu = np.concatenate([mean, np.sqrt(beta) * nu])
                    cov = np.zeros((4, 4))
                    cov[:2, :2] = chol @ chol.T
                    out.append((mu, cov))
                return out

            lifted_cost = np.array([
                [bures_w2_sq_cov(mi, ci, mj, cj)
                 for (mj, cj) in lift(q)]
                for (mi, ci) in lift(p)
            ])
            from baryflow import ot
            _, cost_joint = ot.solve_exact(p.weights, q.weights, lifted_cost)
            assert abs(cost_dec - cost_joint) <= 1e-12 * max(1.0, cost_dec)


class TestEmFit:
    def test_single_gaussian_mean_recovery(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((800, 2)) * 1.5 + np.array([2.0, -1.0])
        fit = em_fit(data, components_per_class=1, seed=0)
        se = 1.5 / np.sqrt(800)
        assert np.all(np.abs(fit.means[0] - data.mean(axis=0)) <= 3 * se)

    def test_labeled_one_hot_nu(self):
        rng = np.random.default_rng(13)
        x = np.vstack([rng.standard_normal((100, 2)),
                       rng.standard_normal((100, 2)) + 10.0])
        y = np.repeat([0, 1], 100)
        fit = em_fit(x, y, components_per_class=1, seed=0)
        assert np.array_equal(fit.nu, np.eye(2))
        assert np.allclose(fit.weights, [0.5, 0.5])

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(14)
        data = rng.standard_normal((200, 2))
        *_, logliks = ga._em_single(data, 3, 60, 0.0, np.random.default_rng(0),
                                    diag=False)
        diffs = np.diff(logliks)
        assert np.all(diffs >= -1e-9)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            em_fit(np.zeros((4, 1)), np.array([0, 0, 2, 2]),
                   components_per_class=1, seed=0)

    def test_diag_mode(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((100, 3))
        fit = em_fit(data, components_per_class=2, seed=0, diag=True)
        for chol in fit.chols:
            assert np.allclose(chol, np.diag(np.diag(chol)))


def fit_counting(fit, data, labels, diag, components):
    """``em_fit`` of a seeded pool with ``fit`` as its ``_em_single``, and
    the iteration count of each fit."""
    counts = []

    def counted(*args):
        out = fit(*args)
        counts.append(len(out[3]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ga, "_em_single", counted)
        gmm = em_fit(data, labels, components_per_class=components, seed=3,
                     diag=diag)
    return gmm, counts


class TestEmOracle:
    """``em_fit`` against EM with the (k, n, d) M-step of
    ``conftest.em_single_reference``."""

    @pytest.mark.parametrize("diag", [False, True])
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, seed, labeled, diag):
        rng = np.random.default_rng(seed)
        centers = 4.0 * rng.standard_normal((6, 4))
        data = (centers[np.arange(240) % 6]
                + rng.standard_normal((240, 4)) * rng.uniform(0.3, 2.0, 4))
        labels = np.arange(240) % 2 if labeled else None
        components = 3 if labeled else 6
        got, counts = fit_counting(ga._em_single, data, labels, diag,
                                   components)
        ref, ref_counts = fit_counting(em_single_reference, data, labels,
                                       diag, components)
        assert counts == ref_counts
        for name in ("weights", "means", "chols"):
            x, y = getattr(got, name), getattr(ref, name)
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


class TestSampleReparam:
    def test_clt_mean_bound(self):
        g = LabeledGMM([1.0], [[0.0, 0.0]], [np.eye(2)])
        pts, _, _ = sample_reparam(g, 4096, seed=0)
        assert np.all(np.abs(pts.mean(axis=0)) <= 4.0 / np.sqrt(4096))

    def test_reparam_identity(self):
        g = LabeledGMM([1.0], [[3.0, -1.0]], [np.eye(2)])
        pts, _, eps = sample_reparam(g, 50, seed=1)
        assert np.allclose(pts - np.array([3.0, -1.0]), eps)

    def test_degenerate_weights(self):
        g = LabeledGMM([1.0, 0.0], [[0.0], [9.0]], [[[1.0]], [[1.0]]])
        _, idx, _ = sample_reparam(g, 100, seed=2)
        assert np.all(idx == 0)

    def test_empty(self):
        g = LabeledGMM([1.0], [[0.0]], [[[1.0]]])
        pts, idx, eps = sample_reparam(g, 0, seed=3)
        assert pts.shape == (0, 1) and idx.shape == (0,) and eps.shape == (0, 1)


class TestGmmLogDensity:
    def test_standard_normal_at_origin(self):
        g = LabeledGMM([1.0], [[0.0]], [[[1.0]]])
        logp, resp = gmm_log_density(g, np.array([0.0]))
        assert abs(logp - (-0.5 * np.log(2 * np.pi))) <= 1e-12
        assert np.allclose(resp, [1.0])

    def test_separated_responsibilities(self):
        g = LabeledGMM([0.5, 0.5], [[0.0], [40.0]], [[[1.0]], [[1.0]]])
        _, resp0 = gmm_log_density(g, np.array([0.0]))
        _, resp1 = gmm_log_density(g, np.array([40.0]))
        assert resp0[0] >= 1.0 - 1e-12
        assert resp1[1] >= 1.0 - 1e-12

    def test_responsibilities_normalize(self):
        rng = np.random.default_rng(16)
        g = random_labeled_gmm(rng, 4, 3, 2)
        for _ in range(10):
            _, resp = gmm_log_density(g, rng.standard_normal(3))
            assert abs(resp.sum() - 1.0) <= 1e-12


class TestSerialization:
    def test_round_trip_values(self):
        rng = np.random.default_rng(17)
        g = random_labeled_gmm(rng, 3, 2, 4)
        g2 = gmm_from_json(gmm_to_json(g))
        assert np.array_equal(g.weights, g2.weights)
        assert np.array_equal(g.nu, g2.nu)
        assert np.array_equal(g.means, g2.means)
        assert np.array_equal(g.chols, g2.chols)

    def test_file_round_trip_byte_stable(self, tmp_path):
        rng = np.random.default_rng(18)
        g = random_labeled_gmm(rng, 2, 3, 2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_gmm(g, p1)
        save_gmm(load_gmm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unlabeled_round_trip(self, tmp_path):
        g = LabeledGMM([1.0], [[0.0]], [[[1.0]]])
        path = tmp_path / "g.json"
        save_gmm(g, path)
        assert load_gmm(path).nu is None


class TestValidation:
    def test_chol_must_be_lower_triangular(self):
        with pytest.raises(ValueError):
            LabeledGMM([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.0, 1.0]]])

    def test_chol_positive_diagonal(self):
        with pytest.raises(ValueError):
            LabeledGMM([1.0], [[0.0]], [[[-1.0]]])

    def test_gmm_weights_simplex(self):
        with pytest.raises(ValueError):
            LabeledGMM([0.7, 0.7], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    def test_nu_rows_simplex(self):
        with pytest.raises(ValueError):
            LabeledGMM([1.0], [[0.0]], [[[1.0]]], nu=[[0.7, 0.7]])

    def test_triangularity_is_scale_free(self):
        # an upper entry of 0.5% of the diagonal at scale 1e-6 is rejected,
        # rounding noise at scale 1e6 is zeroed
        with pytest.raises(ValueError, match="lower-triangular"):
            LabeledGMM([1.0], np.zeros((1, 2)), [TINY_UPPER])
        gmm = LabeledGMM([1.0], np.zeros((1, 2)), [NOISY_UPPER])
        assert np.array_equal(gmm.chols[0], np.diag([1e6, 1e6]))

    @pytest.mark.parametrize("weights, means, chols, nu, match", [
        ([1.0], np.zeros((1, 2)), np.eye(3)[None], None,
         r"chols must be \(1, 2, 2\)"),
        ([0.5, 0.5], np.zeros((1, 2)), np.eye(2)[None], None,
         "one weight per component"),
        ([1.0], [[np.nan, 0.0]], np.eye(2)[None], None, "non-finite"),
        ([1.0], np.zeros((1, 2)), [[[np.inf, 0.0], [0.0, 1.0]]], None,
         "non-finite"),
        ([1.0], np.zeros((1, 2)), np.eye(2)[None], [[np.nan, 1.0]],
         "non-finite"),
        ([0.5, 0.5], np.zeros((2, 1)), np.ones((2, 1, 1)),
         [[1.0, 0.0], [0.7, 0.7]], "class simplex"),
    ], ids=["shape", "weight-count", "mean-nan", "chol-inf", "nu-nan",
            "nu-row-off-simplex"])
    def test_gmm_rejects(self, weights, means, chols, nu, match):
        with pytest.raises(ValueError, match=match):
            LabeledGMM(weights, means, chols, nu=nu)

    def test_stacks_read_only(self):
        g = random_labeled_gmm(np.random.default_rng(19), 3, 2, 2)
        assert not (g.means.flags.writeable or g.chols.flags.writeable)

