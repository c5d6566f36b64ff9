import math

import numpy as np
import pytest

from oracles import (
    BranchError,
    empirical_spectral_moments,
    greens_function_inverse_check,
    mp_support,
)
from replicacs.spectral import (
    PoleError,
    SpectralLaw,
    r_antiderivative,
    r_transform,
    r_transform_derivative,
)


def fd_derivative(law, z, h=1e-6):
    """Central finite difference of r_transform: the independent oracle."""
    return (r_transform(law, z + h) - r_transform(law, z - h)) / (2 * h)


class TestRTransform:
    def test_at_zero(self):
        assert r_transform(SpectralLaw(0.5), 0.0) == 1.0

    def test_at_one(self):
        assert r_transform(SpectralLaw(0.5), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_negative_argument(self):
        assert r_transform(SpectralLaw(0.5), -2.0) == pytest.approx(0.5, abs=1e-15)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            r_transform(SpectralLaw(0.5), 2.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_first_cumulant_exact(self, alpha):
        law = SpectralLaw(alpha)
        assert r_transform(law, 0.0) == 1.0
        assert r_transform_derivative(law, 0.0) == alpha


class TestRTransformDerivative:
    def test_at_zero(self):
        assert r_transform_derivative(SpectralLaw(0.5), 0.0) == 0.5

    def test_unit_load(self):
        assert r_transform_derivative(SpectralLaw(1.0), -1.0) == pytest.approx(0.25, abs=1e-15)

    def test_matches_finite_difference_at_minus_two(self):
        law = SpectralLaw(0.5)
        oracle = fd_derivative(law, -2.0)
        assert oracle == pytest.approx(0.125, rel=1e-8)
        assert r_transform_derivative(law, -2.0) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_finite_difference_grid(self, alpha):
        law = SpectralLaw(alpha)
        for z in np.linspace(-10.0, 0.0, 41):
            if abs(1.0 - alpha * z) <= 0.1:
                continue
            assert r_transform_derivative(law, z) == pytest.approx(
                fd_derivative(law, z), rel=1e-8
            )

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            r_transform_derivative(SpectralLaw(2.0), 0.5)


class TestAntiderivative:
    @pytest.mark.parametrize("alpha,a", [(0.5, 1.0), (2.0, 3.0), (0.1, 10.0)])
    def test_matches_quadrature(self, alpha, a):
        from scipy.integrate import quad

        law = SpectralLaw(alpha)
        oracle, _ = quad(lambda w: r_transform(law, -w), 0.0, a, epsabs=1e-13)
        assert r_antiderivative(law, a) == pytest.approx(oracle, abs=1e-10)


class TestGreensFunction:
    def test_vanishing_load_limit(self):
        # all eigenvalues collapse onto 1, so G(z) = 1/(z - 1)
        assert greens_function_inverse_check(SpectralLaw(1e-9), 5.0) == pytest.approx(
            0.25, rel=1e-6
        )

    @pytest.mark.parametrize("alpha,z", [(0.5, 10.0), (0.5, -3.0), (2.0, 12.0), (1.0, -0.5)])
    def test_inversion_identity(self, alpha, z):
        law = SpectralLaw(alpha)
        g = greens_function_inverse_check(law, z)
        assert abs(r_transform(law, g) + 1.0 / g - z) < 1e-10

    def test_matches_root_finding_oracle(self):
        from scipy.optimize import brentq

        law = SpectralLaw(0.5)
        z = 10.0
        # the physical branch satisfies 0 < G(z) <= 1/(z - lambda_max), which
        # isolates it from the second quadratic root
        upper = 1.0 / (z - mp_support(law)[1])
        oracle = brentq(
            lambda g: r_transform(law, g) + 1.0 / g - z, 1e-12, upper, xtol=1e-14
        )
        assert greens_function_inverse_check(law, z) == pytest.approx(oracle, abs=1e-10)

    def test_inside_support_raises(self):
        law = SpectralLaw(0.5)
        lo, hi = mp_support(law)
        with pytest.raises(BranchError):
            greens_function_inverse_check(law, 0.5 * (lo + hi))

    def test_resolvent_sign_off_support(self):
        law = SpectralLaw(0.5)
        assert greens_function_inverse_check(law, 5.0) > 0
        assert greens_function_inverse_check(law, -1.0) < 0


class TestEmpiricalMoments:
    def test_two_by_two_matches_eigendecomposition(self):
        mean, var = empirical_spectral_moments((2, 2), seed=7, n_trials=3)
        # reproduce the same draws and diagonalize directly
        means, variances = [], []
        for child in np.random.SeedSequence(7).spawn(3):
            rng = np.random.default_rng(child)
            A = rng.normal(0.0, 1.0 / math.sqrt(2), size=(2, 2))
            lam = np.linalg.eigvals(A.T @ A).real
            means.append(lam.mean())
            variances.append(lam.var())
        assert mean == pytest.approx(float(np.mean(means)), abs=1e-12)
        assert var == pytest.approx(float(np.mean(variances)), abs=1e-12)

    def test_converges_to_cumulants(self):
        mean, var = empirical_spectral_moments((1000, 500), seed=0, n_trials=20)
        assert mean == pytest.approx(1.0, rel=0.02)
        assert var == pytest.approx(0.5, rel=0.05)

    def test_rejects_tiny_dims(self):
        with pytest.raises(ValueError):
            empirical_spectral_moments((1, 5), seed=0, n_trials=1)


def test_law_validation():
    with pytest.raises(ValueError):
        SpectralLaw(0.0)
    with pytest.raises(ValueError):
        SpectralLaw(math.inf)
