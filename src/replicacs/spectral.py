"""R-transform of the white Wishart spectrum.

The Gram matrix J = A^T A of an M x N measurement matrix with i.i.d.
N(0, 1/M) entries has an eigenvalue distribution that converges to the
Marchenko-Pastur law with load ratio alpha = N/M.  Its free-probability
R-transform is

    R(z) = 1 / (1 - alpha z),      R'(z) = alpha / (1 - alpha z)^2,

so the first two spectral cumulants are R(0) = 1 and R'(0) = alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

POLE_TOL = 1e-14


class PoleError(ZeroDivisionError):
    """R-transform evaluated at (or numerically on top of) its pole."""


@dataclass(frozen=True)
class SpectralLaw:
    """Marchenko-Pastur eigenvalue law of A^T A at load ratio alpha = N/M."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


def _pole_distance(law: SpectralLaw, z: float) -> float:
    """1 - alpha z, checked against the pole."""
    denom = 1.0 - law.alpha * z
    if abs(denom) < POLE_TOL:
        raise PoleError(f"R-transform pole: |1 - alpha*z| < {POLE_TOL} at alpha={law.alpha}")
    return denom


def r_transform(law: SpectralLaw, z: float) -> float:
    """R(z) = 1/(1 - alpha z).

    Takes a scalar; raises :class:`PoleError` (here and in
    :func:`r_transform_derivative`) when z sits within ``POLE_TOL`` of the
    pole z = 1/alpha.
    """
    return 1.0 / _pole_distance(law, z)


def r_transform_derivative(law: SpectralLaw, z: float) -> float:
    """R'(z) = alpha/(1 - alpha z)^2."""
    denom = _pole_distance(law, z)
    return law.alpha / (denom * denom)


def r_antiderivative(law: SpectralLaw, a: float) -> float:
    """Closed form of the integral of R(-w) over w from 0 to a.

    For the Marchenko-Pastur R this is log(1 + alpha a)/alpha, which removes
    one quadrature from the block-size stationarity equation of the 1RSB
    solver.
    """
    arg = 1.0 + law.alpha * a
    if arg <= 0.0:
        raise PoleError(f"antiderivative crosses the R pole: 1 + alpha*a = {arg}")
    return math.log(arg) / law.alpha
