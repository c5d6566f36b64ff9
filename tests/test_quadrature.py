import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicacs.priors import SignalPrior
from replicacs.quadrature import (
    IntegrationError,
    gauss_hermite_rule,
    integrate_gaussian,
    integrate_gaussian_2d,
    integrate_prior,
)


def gaussian_moment(k: int) -> float:
    """E[Z^k] for Z ~ N(0,1): odd -> 0, even -> (k-1)!!"""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestRule:
    def test_weights_sum_to_one(self):
        rule = gauss_hermite_rule(40)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_nodes_symmetric(self):
        rule = gauss_hermite_rule(31)
        assert np.allclose(np.sort(rule.nodes), -np.sort(-rule.nodes)[::-1])
        assert np.allclose(rule.nodes + rule.nodes[::-1], 0.0, atol=1e-12)

    def test_order_bound(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(1)

    def test_cached_instance(self):
        assert gauss_hermite_rule(40) is gauss_hermite_rule(40)


class TestIntegrateGaussian:
    def test_normalization(self):
        rule = gauss_hermite_rule(40)
        assert integrate_gaussian(rule, lambda z: np.ones_like(z)) == pytest.approx(1.0, abs=1e-14)

    def test_second_moment(self):
        rule = gauss_hermite_rule(2)
        assert integrate_gaussian(rule, lambda z: z**2) == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment(self):
        rule = gauss_hermite_rule(3)
        assert integrate_gaussian(rule, lambda z: z**4) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(10))
    def test_polynomial_exactness_order_40(self, k):
        rule = gauss_hermite_rule(40)
        assert integrate_gaussian(rule, lambda z: z**k) == pytest.approx(
            gaussian_moment(k), abs=1e-12
        )

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_exact_up_to_degree_2n_minus_1(self, order):
        rule = gauss_hermite_rule(order)
        for k in range(min(2 * order, 20)):
            # conditioning scale: the sum cancels against terms of this size
            scale = max(1.0, float(np.dot(rule.weights, np.abs(rule.nodes) ** k)))
            got = integrate_gaussian(rule, lambda z: z**k)
            assert abs(got - gaussian_moment(k)) < 1e-12 * scale

    def test_nonfinite_integrand_names_node(self):
        rule = gauss_hermite_rule(8)
        with pytest.raises(IntegrationError, match="node"):
            with np.errstate(divide="ignore"):
                integrate_gaussian(rule, lambda z: 1.0 / (z - z[0]))


class TestIntegrateGaussian2d:
    def test_normalization(self):
        rule = gauss_hermite_rule(20)
        assert integrate_gaussian_2d(rule, lambda y, z: 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_product_moment(self):
        rule = gauss_hermite_rule(20)
        assert integrate_gaussian_2d(rule, lambda y, z: y**2 * z**2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mgf_oracle(self):
        # E[exp(a(Y+Z))] factorizes into exp(a^2/2)^2 = exp(a^2)
        rule = gauss_hermite_rule(40)
        a = 0.3
        got = integrate_gaussian_2d(rule, lambda y, z: np.exp(a * (y + z)))
        assert got == pytest.approx(math.exp(a * a), abs=1e-8)


class TestIntegratePrior:
    def test_normalization(self):
        rule = gauss_hermite_rule(40)
        for rho in (0.0, 0.3, 1.0):
            prior = SignalPrior(rho)
            assert integrate_prior(prior, rule, lambda x: np.ones_like(x)) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_second_moment(self):
        rule = gauss_hermite_rule(40)
        assert integrate_prior(SignalPrior(0.1), rule, lambda x: x**2) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_half_normal_mean_oracle(self):
        # E|x| = rho * sqrt(2/pi); |.| has a kink so Gauss-Hermite converges
        # slowly: order 40 is verified to the 5e-3 level and refinement must
        # move toward the oracle
        rule = gauss_hermite_rule(40)
        oracle = 0.5 * math.sqrt(2.0 / math.pi)
        got = integrate_prior(SignalPrior(0.5), rule, np.abs)
        assert got == pytest.approx(oracle, abs=5e-3)
        finer = integrate_prior(SignalPrior(0.5), gauss_hermite_rule(160), np.abs)
        assert abs(finer - oracle) < abs(got - oracle)

    def test_rho_zero_only_uses_origin(self):
        rule = gauss_hermite_rule(20)
        got = integrate_prior(SignalPrior(0.0), rule, lambda x: np.where(x == 0.0, 7.0, np.nan))
        assert got == 7.0

    def test_rho_one_equals_plain_gaussian(self):
        rule = gauss_hermite_rule(30)
        f = lambda x: np.cos(x)
        assert integrate_prior(SignalPrior(1.0), rule, f) == pytest.approx(
            integrate_gaussian(rule, f), abs=1e-14
        )

    @given(rho=st.floats(0.0, 1.0), a=st.floats(-2.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_functionals_exact(self, rho, a):
        # affine h integrates exactly for any mixture weight
        rule = gauss_hermite_rule(8)
        got = integrate_prior(SignalPrior(rho), rule, lambda x: a * x + 1.0)
        assert got == pytest.approx(1.0, abs=1e-12)

