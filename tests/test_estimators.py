import math

import numpy as np
import pytest
from oracles import EXHAUSTIVE_MAX_N, cd_lasso, exhaustive_l0

from replicacs.estimators import (
    Instance,
    _lipschitz,
    empirical_median_se,
    empirical_mse,
    estimate_l0,
    estimate_lasso,
    estimate_lmmse,
    estimate_ls,
    l0_objective,
    lasso_objective,
)
from replicacs.montecarlo import ensemble_sigma0_sq, generate_instance
from replicacs.priors import SignalPrior


def make_instance(M, N, rho=0.1, sigma0=0.1, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 1.0 / math.sqrt(M), (M, N))
    x0 = np.where(rng.random(N) < rho, rng.normal(size=N), 0.0)
    w = rng.normal(size=M)
    return Instance(A=A, x0=x0, w=w, y=A @ x0 + sigma0 * w, sigma0=sigma0)


def identity_instance(y, sigma0=0.0):
    n = len(y)
    x0 = np.asarray(y, dtype=float)
    return Instance(A=np.eye(n), x0=x0, w=np.zeros(n), y=x0.copy(), sigma0=sigma0)


class TestLs:
    def test_identity(self):
        inst = identity_instance([1.0, -2.0, 0.5])
        np.testing.assert_allclose(estimate_ls(inst).xhat, inst.y)

    def test_noiseless_exact_recovery(self):
        inst = make_instance(30, 10, sigma0=0.0, seed=1)
        rep = estimate_ls(inst)
        np.testing.assert_allclose(rep.xhat, inst.x0, atol=1e-8)

    def test_matches_factorization_oracle(self):
        inst = make_instance(20, 10, seed=2)
        rep = estimate_ls(inst)
        oracle = np.linalg.lstsq(inst.A, inst.y, rcond=None)[0]
        np.testing.assert_allclose(rep.xhat, oracle, atol=1e-10)
        assert rep.certificate < 1e-8

    def test_underdetermined_flags_pseudo_inverse(self):
        inst = make_instance(10, 20, seed=3)
        rep = estimate_ls(inst)
        assert "pseudo_inverse" in rep.flags
        oracle = np.linalg.pinv(inst.A) @ inst.y
        np.testing.assert_allclose(rep.xhat, oracle, atol=1e-10)


class TestLmmse:
    def test_identity_half(self):
        inst = identity_instance([2.0, -4.0])
        np.testing.assert_allclose(estimate_lmmse(inst, 1.0).xhat, inst.y / 2.0)

    def test_gamma_to_zero_square_invertible(self):
        inst = make_instance(12, 12, sigma0=0.0, seed=4)
        got = estimate_lmmse(inst, 1e-12).xhat
        oracle = np.linalg.solve(inst.A, inst.y)
        np.testing.assert_allclose(got, oracle, atol=1e-6)

    def test_matrix_identity_both_paths(self):
        # A^T (A A^T + g I)^{-1} y == (A^T A + g I)^{-1} A^T y
        inst = make_instance(30, 60, seed=5)
        g = 0.5
        got = estimate_lmmse(inst, g).xhat
        oracle = np.linalg.solve(inst.A.T @ inst.A + g * np.eye(60), inst.A.T @ inst.y)
        np.testing.assert_allclose(got, oracle, atol=1e-10)

    def test_singular_zero_gamma_raises(self):
        inst = make_instance(20, 10, seed=6)  # A A^T rank 10 < 20
        with pytest.raises(np.linalg.LinAlgError):
            estimate_lmmse(inst, 0.0)


class TestLasso:
    def test_identity_soft_threshold(self):
        inst = identity_instance([3.0, 0.2, -1.0, -0.1])
        g = 0.5
        rep = estimate_lasso(inst, g)
        oracle = np.sign(inst.y) * np.maximum(np.abs(inst.y) - g, 0.0)
        np.testing.assert_allclose(rep.xhat, oracle, atol=1e-8)

    def test_zero_measurement(self):
        inst = make_instance(20, 40, rho=0.0, sigma0=0.0, seed=7)
        rep = estimate_lasso(inst, 0.3)
        assert not rep.xhat.any()

    def test_objective_matches_cd_oracle(self):
        inst = make_instance(50, 100, seed=8)
        g = 0.1
        rep = estimate_lasso(inst, g)
        x_cd = cd_lasso(inst.A, inst.y, g, sweeps=4000)
        assert rep.objective <= lasso_objective(inst, x_cd, g) + 1e-8
        assert abs(rep.objective - lasso_objective(inst, x_cd, g)) < 1e-8

    def test_kkt_certificate(self):
        for seed in range(5):
            inst = make_instance(40, 80, seed=100 + seed)
            rep = estimate_lasso(inst, 0.05)
            assert rep.converged
            assert rep.certificate < 1e-6
            # explicit subgradient conditions
            c = inst.A.T @ (inst.y - inst.A @ rep.xhat) / 0.05
            on = rep.xhat != 0
            assert np.all(np.abs(c) <= 1.0 + 1e-6)
            assert np.allclose(c[on], np.sign(rep.xhat[on]), atol=1e-6)

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            estimate_lasso(make_instance(10, 20), 0.0)

    @pytest.mark.parametrize("M, max_iterations", [(40, 1500), (200, 800)])
    def test_restart_keeps_paper_grid_iterations_low(self, M, max_iterations):
        # matched gamma on the paper's setup; plain FISTA needs >= 2790 / 1470 here
        N, prior = 200, SignalPrior(0.1)
        gamma = ensemble_sigma0_sq(N / M, prior, 10.0)
        for seed in range(8):
            rep = estimate_lasso(generate_instance(N, M, prior, 10.0, seed), gamma)
            assert rep.converged
            assert rep.iterations <= max_iterations


class TestL0:
    def test_identity_hard_threshold(self):
        g = 0.5
        inst = identity_instance([2.0, 0.9, -1.1, 0.3])
        rep = estimate_l0(inst, g)
        oracle = np.where(inst.y**2 > 2.0 * g, inst.y, 0.0)
        np.testing.assert_allclose(rep.xhat, oracle, atol=1e-8)

    def test_noiseless_one_sparse_exhaustive(self):
        rng = np.random.default_rng(9)
        A = rng.normal(0.0, 1.0 / math.sqrt(6), (6, 10))
        x0 = np.zeros(10)
        x0[3] = 1.5
        inst = Instance(A=A, x0=x0, w=np.zeros(6), y=A @ x0, sigma0=0.0)
        x = exhaustive_l0(inst, 0.05)
        np.testing.assert_allclose(x, x0, atol=1e-8)
        assert l0_objective(inst, x, 0.05) == pytest.approx(1.0, abs=1e-8)

    def test_exhaustive_dominates_iht(self):
        for seed in range(8):
            inst = make_instance(8, 12, rho=0.2, sigma0=0.05, seed=200 + seed)
            iht = estimate_l0(inst, 0.1)
            ex = l0_objective(inst, exhaustive_l0(inst, 0.1), 0.1)
            assert ex <= iht.objective + 1e-9

    def test_exhaustive_size_cap(self):
        inst = make_instance(10, EXHAUSTIVE_MAX_N + 1, seed=10)
        with pytest.raises(ValueError):
            exhaustive_l0(inst, 0.1)

    def test_iht_reports_iteration_cap(self):
        N, M, prior = 200, 40, SignalPrior(0.1)
        gamma = ensemble_sigma0_sq(N / M, prior, 10.0)
        capped = estimate_l0(generate_instance(N, M, prior, 10.0, 0), gamma)
        assert capped.converged is False
        assert capped.iterations == 2000
        assert estimate_l0(generate_instance(N, M, prior, 10.0, 3), gamma).converged is True


class TestErrorMetrics:
    def test_mse_exact_recovery(self):
        x = np.arange(5.0)
        assert empirical_mse(x, x) == 0.0

    def test_mse_zero_estimate(self):
        x0 = np.array([1.0, 2.0, 3.0])
        assert empirical_mse(x0, np.zeros(3)) == pytest.approx(14.0 / 3.0)

    def test_median(self):
        assert empirical_median_se([1.0, 9.0, 25.0]) == 9.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            empirical_mse(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("shape", [(40, 200), (200, 200), (300, 100)])
def test_lipschitz_is_top_eigenvalue(shape):
    A = make_instance(*shape, seed=13).A
    assert _lipschitz(A) == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12)


def test_estimators_deterministic():
    inst = make_instance(30, 60, seed=11)
    a = estimate_lasso(inst, 0.1)
    b = estimate_lasso(inst, 0.1)
    np.testing.assert_array_equal(a.xhat, b.xhat)
    assert a.objective == b.objective
    c = estimate_l0(inst, 0.1)
    d = estimate_l0(inst, 0.1)
    np.testing.assert_array_equal(c.xhat, d.xhat)


def test_instance_construction_identity_enforced():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(5, 8))
    with pytest.raises(ValueError):
        Instance(A=A, x0=np.ones(8), w=np.zeros(5), y=np.zeros(5), sigma0=0.0)
