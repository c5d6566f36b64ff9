"""Signal prior, penalty functions, and the scalar-channel minimizers.

The replica analysis decouples the vector estimation problem into a
one-dimensional denoising problem per signal component.  Its effective
scalar cost, for a disturbance s built from the Gaussian channel nodes, is

    C(x) = e (x0 - x)^2 - s (x0 - x) + (gamma / sigma_u^2) f(x),

minimized in closed form for each penalty: linear shrinkage (L2), soft
thresholding (L1), and a hard-threshold keep-or-kill rule (L0).  The
quadratic term must be convex (e > 0) for the weight exp(-beta C) to be
normalizable.

Completing the square shows the cost equals e (v - x)^2 + lam f(x) + const
with pseudo-observation v = x0 - s/(2e), so every minimizer is a classical
proximal map evaluated at v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PENALTY_KINDS = ("l0", "l1", "l2")


@dataclass(frozen=True)
class SignalPrior:
    """Bernoulli-Gaussian mixture: zero w.p. 1-rho, else N(0, active_variance)."""

    rho: float = 0.1
    active_variance: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not self.active_variance > 0.0:
            raise ValueError(f"active_variance must be positive, got {self.active_variance}")

    @property
    def second_moment(self) -> float:
        return self.rho * self.active_variance


@dataclass(frozen=True)
class Penalty:
    """Penalty kind plus its weight gamma and the assumed noise variance.

    gamma is the product of the assumed per-component noise variance and
    the prior sharpness parameter; only the ratio gamma/sigma_u2 enters the
    scalar costs.
    """

    kind: str
    gamma: float
    sigma_u2: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"kind must be one of {PENALTY_KINDS}, got {self.kind!r}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.sigma_u2 > 0.0:
            raise ValueError(f"sigma_u2 must be positive, got {self.sigma_u2}")

    @property
    def lam(self) -> float:
        """Scalar-cost penalty coefficient gamma / sigma_u2."""
        return self.gamma / self.sigma_u2


def penalty_value(penalty: Penalty, x):
    """Per-component penalty: |x| (L1), x^2 (L2), or the nonzero count (L0)."""
    xv = np.asarray(x, dtype=float)
    if penalty.kind == "l1":
        out = np.abs(xv)
    elif penalty.kind == "l2":
        out = xv**2
    else:
        out = (xv != 0.0).astype(float)
    return float(out) if np.ndim(x) == 0 else out


def prox(penalty: Penalty, v, e: float):
    """argmin_x e (v - x)^2 + lam f(x) for lam = gamma/sigma_u2.

    The L0 tie at e v^2 == lam breaks toward 0, the sparser solution.
    """
    if not e > 0.0:
        raise ValueError(f"scalar channel needs e > 0, got {e}")
    lam = penalty.lam
    vv = np.asarray(v, dtype=float)
    if penalty.kind == "l2":
        out = e * vv / (e + lam)
    elif penalty.kind == "l1":
        t = lam / (2.0 * e)
        out = np.sign(vv) * np.maximum(np.abs(vv) - t, 0.0)
    else:
        out = np.where(e * vv**2 > lam, vv, 0.0)
    return float(out) if np.ndim(v) == 0 else out


def scalar_cost(penalty: Penalty, x0, x, s, e: float):
    """C(x) = e (x0-x)^2 - s (x0-x) + lam f(x)."""
    d = np.asarray(x0, dtype=float) - np.asarray(x, dtype=float)
    return e * d**2 - np.asarray(s, dtype=float) * d + penalty.lam * penalty_value(penalty, x)


def minimize_scalar_cost(penalty: Penalty, x0, s, e: float):
    """Closed-form (argmin, min) of the scalar cost under disturbance s."""
    if not e > 0.0:
        raise ValueError(f"scalar channel needs e > 0, got {e}")
    v = np.asarray(x0, dtype=float) - np.asarray(s, dtype=float) / (2.0 * e)
    xhat = prox(penalty, v, e)
    return xhat, scalar_cost(penalty, x0, xhat, s, e)


def sample_signal(prior: SignalPrior, n: int, seed) -> np.ndarray:
    """i.i.d. Bernoulli-Gaussian vector, deterministic given the seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    active = rng.random(n) < prior.rho
    x = np.zeros(n)
    k = int(active.sum())
    if k:
        x[active] = rng.normal(0.0, math.sqrt(prior.active_variance), size=k)
    return x
