import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicacs.priors import (
    Penalty,
    SignalPrior,
    minimize_scalar_cost,
    penalty_value,
    sample_signal,
    scalar_cost,
)
from replicacs.rsb import HS_SCALE, _ChannelGrid

# dense grid plus the exact atom at 0: floating-point arange never lands on
# 0.0 exactly, and the L0 penalty charges every off-atom point
GRID = np.concatenate([np.arange(-10.0, 10.0 + 1e-12, 1e-5), [0.0]])


def grid_argmin(penalty, x0, s, e):
    """Dense grid search: the independent oracle for the closed-form argmin."""
    costs = scalar_cost(penalty, x0, GRID, s, e)
    return GRID[int(np.argmin(costs))]


class TestPenaltyValue:
    def test_l1(self):
        assert penalty_value(Penalty("l1", 1.0), -2.5) == 2.5

    def test_l0_at_zero(self):
        assert penalty_value(Penalty("l0", 1.0), 0.0) == 0.0

    def test_l2(self):
        assert penalty_value(Penalty("l2", 1.0), 3.0) == 9.0

    def test_vectorized(self):
        pen = Penalty("l0", 1.0)
        np.testing.assert_array_equal(penalty_value(pen, np.array([0.0, -3.0, 1e-300])),
                                      [0.0, 1.0, 1.0])


class TestScalarMinimizerRs:
    """The RS channel: disturbance s = f0 z at cost curvature e0."""

    def test_l1_kills_small_inputs(self):
        pen = Penalty("l1", 0.5, 1.0)
        assert minimize_scalar_cost(pen, 0.0, 0.5 * 0.1, 1.0)[0] == 0.0

    def test_l2_calculus(self):
        # gamma = sigma_u^2 so lam = 1: argmin (1-x)^2 + x^2 = 1/2
        pen = Penalty("l2", 1.0, 1.0)
        assert minimize_scalar_cost(pen, 1.0, 0.0, 1.0)[0] == pytest.approx(0.5)

    def test_l1_matches_grid_oracle(self):
        pen = Penalty("l1", 0.2, 1.0)
        got, _ = minimize_scalar_cost(pen, 1.0, 0.5 * 0.3, 1.0)
        oracle = grid_argmin(pen, 1.0, 0.5 * 0.3, 1.0)
        assert abs(got - oracle) < 1e-4

    @pytest.mark.parametrize("kind", ["l0", "l1", "l2"])
    def test_grid_oracle_random_draws(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(60):
            pen = Penalty(kind, rng.uniform(0.0, 2.0), rng.uniform(0.2, 2.0))
            x0 = rng.normal()
            s = rng.normal() * rng.uniform(0.1, 2.0)
            e = rng.uniform(0.2, 3.0)
            xhat, cost = minimize_scalar_cost(pen, x0, s, e)
            oracle = grid_argmin(pen, x0, s, e)
            assert abs(xhat - oracle) <= 1.1e-5, (pen, x0, s, e)

    def test_e0_must_be_positive(self):
        with pytest.raises(ValueError):
            minimize_scalar_cost(Penalty("l1", 1.0), 0.0, 1.0 * 0.0, 0.0)

    def test_l0_tie_breaks_to_zero(self):
        # e v^2 == lam exactly at the hard threshold
        pen = Penalty("l0", 1.0, 1.0)
        assert minimize_scalar_cost(pen, 1.0, 0.0, 1.0)[0] == 0.0


class TestScalarMinimizerRsb:
    """The 1RSB channel: disturbance s = f1 z + g1 y at cost curvature e1."""

    def test_reduces_to_rs_when_y_channel_off(self):
        # g1 = 0 makes the within-block average trivial: the 1RSB grid's mean
        # error at each (x0, z) node is the RS error at f0 = HS_SCALE f1
        for kind in ("l0", "l1", "l2"):
            pen = Penalty(kind, 0.3, 1.0)
            grid = _ChannelGrid(8, SignalPrior(0.3), pen)
            weight, err, _, _ = grid.evaluate(1.2, 0.7, 0.0, 2.0)
            X, Z = grid.x0[:, None], grid.z[None, :]
            psi, _ = minimize_scalar_cost(pen, X, HS_SCALE * 0.7 * Z, 1.2)
            m1 = (weight * err).sum(axis=2)
            np.testing.assert_allclose(m1, X - psi, rtol=1e-12, atol=1e-15)

    def test_l0_zero_input_stays_zero(self):
        pen = Penalty("l0", 0.5, 1.0)
        assert minimize_scalar_cost(pen, 0.0, 1.0 * 0.0 + 0.5 * 0.0, 1.0)[0] == 0.0

    def test_l1_grid_oracle(self):
        pen = Penalty("l1", 0.3, 1.0)
        s = 1.0 * 0.2 + 0.5 * (-0.1)
        got, _ = minimize_scalar_cost(pen, 1.0, s, 2.0)
        oracle = grid_argmin(pen, 1.0, s, 2.0)
        assert abs(got - oracle) < 1e-4

    def test_gamma_zero_same_for_all_penalties(self):
        rng = np.random.default_rng(11)
        x0, z, y = rng.normal(size=3)
        outs = {
            kind: minimize_scalar_cost(Penalty(kind, 0.0, 1.0), x0, 0.8 * z + 0.3 * y, 1.5)[0]
            for kind in ("l0", "l1", "l2")
        }
        vals = list(outs.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-15)
        assert vals[1] == pytest.approx(vals[2], abs=1e-15)


class TestBoltzmannWeight:
    """Within-block Gibbs weight Delta = exp(-mu1 min_x C) and its log."""

    def test_zero_cost_gives_one(self):
        # x0 = 0 with no disturbance: the minimizer is 0 at zero cost
        pen = Penalty("l1", 0.5, 1.0)
        _, cost = minimize_scalar_cost(pen, 0.0, 1.0 * 0.0 + 0.5 * 0.0, 1.0)
        assert math.exp(-3.0 * cost) == 1.0

    def test_log_weight_matches_grid_cost(self):
        pen = Penalty("l1", 0.4, 1.0)
        x0, z, y, e1, f1, g1, mu1 = 0.7, 0.2, -0.3, 1.5, 0.9, 0.4, 2.5
        s = f1 * z + g1 * y
        oracle_cost = float(np.min(scalar_cost(pen, x0, GRID, s, e1)))
        _, cost = minimize_scalar_cost(pen, x0, s, e1)
        assert -mu1 * cost == pytest.approx(-mu1 * oracle_cost, abs=1e-6)

    def test_in_unit_interval_when_cost_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pen = Penalty(rng.choice(["l0", "l1", "l2"]), rng.uniform(0, 2))
            x0 = rng.normal()
            _, cost = minimize_scalar_cost(pen, x0, 0.0, rng.uniform(0.5, 2))
            if cost >= 0:
                _, cost_at_one = minimize_scalar_cost(pen, x0, 0.0, 1.0)
                w = math.exp(-rng.uniform(0.1, 5) * cost_at_one)
                assert 0.0 < w <= 1.0

    def test_log_domain_no_overflow_huge_mu(self):
        # the 1RSB grid normalizes the weights over y in the log domain
        mu1 = 1e6
        grid = _ChannelGrid(8, SignalPrior(0.1), Penalty("l1", 1.0, 1.0))
        weight, err, cost, log_norm = grid.evaluate(1.0, 2.0, 1.0, mu1)
        for name, field in dict(weight=weight, err=err, cost=cost, log_norm=log_norm).items():
            assert np.all(np.isfinite(field)), name
        # the y reductions, and their (x0, z) averages, that the 1RSB equations take
        reductions = {
            "m1": (weight * err).sum(axis=2),
            "m2": (weight * err**2).sum(axis=2),
            "m1y": (weight * err * grid.y).sum(axis=2),
            "mean_log_weight": -mu1 * (weight * cost).sum(axis=2),
            "log_norm": log_norm,
        }
        for name, field in reductions.items():
            assert np.all(np.isfinite(field)) and math.isfinite(grid.average(field)), name

    def test_normalization_gauge_invariance(self):
        # shifting every cost by a constant cancels in the normalized weights
        pen = Penalty("l0", 0.8, 1.0)
        y = np.linspace(-3, 3, 31)
        _, cost = minimize_scalar_cost(pen, 0.9, 0.6 * 0.4 + 0.7 * y, 1.2)
        lw = -4.0 * cost
        w1 = np.exp(lw - lw.max())
        w1 /= w1.sum()
        w2 = np.exp((lw + 123.456) - (lw + 123.456).max())
        w2 /= w2.sum()
        np.testing.assert_allclose(w1, w2, atol=1e-10)


class TestContinuity:
    def test_l1_minimizer_continuous_in_z(self):
        pen = Penalty("l1", 0.5, 1.0)
        z = np.linspace(-2, 2, 10001)
        vals, _ = minimize_scalar_cost(pen, 0.7, 0.8 * z, 1.0)
        steps = np.abs(np.diff(vals))
        assert steps.max() < 1e-3  # Lipschitz in z, no jumps

    def test_l0_minimizer_jumps_only_at_threshold(self):
        pen = Penalty("l0", 0.5, 1.0)
        z = np.linspace(-4, 4, 20001)
        vals, _ = minimize_scalar_cost(pen, 0.7, 0.8 * z, 1.0)
        jumps = np.flatnonzero(np.abs(np.diff(vals)) > 1e-2)
        # hard threshold: values are either 0 or the quadratic minimum
        nz = vals[vals != 0.0]
        assert len(jumps) <= 2
        if nz.size:
            assert np.abs(nz).min() > 0.1


@given(
    kind=st.sampled_from(["l0", "l1", "l2"]),
    x0=st.floats(-3, 3),
    s=st.floats(-3, 3),
    e=st.floats(0.1, 4.0),
    gamma=st.floats(0.0, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_closed_form_never_beaten_by_grid(kind, x0, s, e, gamma):
    pen = Penalty(kind, gamma, 1.0)
    xhat, cost = minimize_scalar_cost(pen, x0, s, e)
    # the closed-form cost can exceed the dense-grid cost only by rounding
    coarse = np.arange(-6.0, 6.0, 1e-3)
    assert cost <= float(np.min(scalar_cost(pen, x0, coarse, s, e))) + 1e-9


class TestSampleSignal:
    def test_rho_zero_gives_zero_vector(self):
        assert not sample_signal(SignalPrior(0.0), 100, seed=1).any()

    def test_rho_one_dense_unit_variance(self):
        x = sample_signal(SignalPrior(1.0), 100_000, seed=2)
        assert (x != 0).all()
        assert np.var(x) == pytest.approx(1.0, rel=0.02)

    def test_sparsity_concentration(self):
        x = sample_signal(SignalPrior(0.1), 100_000, seed=3)
        assert np.mean(x != 0) == pytest.approx(0.1, abs=0.005)

    def test_deterministic_given_seed(self):
        a = sample_signal(SignalPrior(0.3), 50, seed=9)
        b = sample_signal(SignalPrior(0.3), 50, seed=9)
        np.testing.assert_array_equal(a, b)


def test_prior_validation():
    with pytest.raises(ValueError, match="rho"):
        SignalPrior(1.5)
    with pytest.raises(ValueError, match="active_variance"):
        SignalPrior(0.5, active_variance=0.0)


def test_penalty_validation():
    with pytest.raises(ValueError, match="kind"):
        Penalty("elastic", 1.0)
    with pytest.raises(ValueError, match="gamma"):
        Penalty("l1", -0.1)
    with pytest.raises(ValueError, match="sigma_u2"):
        Penalty("l1", 1.0, 0.0)
