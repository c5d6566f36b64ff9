"""Reference code the tests compare the package against.

Not collected by pytest; test modules import it as ``oracles``.

The Green's function (Stieltjes transform) G of the Marchenko-Pastur law
satisfies the functional inversion R(G(z)) + 1/G(z) = z off the spectral
support, which gives an independent check of :func:`r_transform`.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from replicacs.estimators import Instance, l0_objective
from replicacs.rs import SystemConfig
from replicacs.spectral import POLE_TOL, SpectralLaw, r_transform, r_transform_derivative

EXHAUSTIVE_MAX_N = 14


class BranchError(ArithmeticError):
    """No quadratic root of the Green's-function inversion is admissible."""


def mp_support(law: SpectralLaw) -> tuple[float, float]:
    """Edges of the continuous bulk, [(1-sqrt(alpha))^2, (1+sqrt(alpha))^2]."""
    r = math.sqrt(law.alpha)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def greens_function_inverse_check(law: SpectralLaw, z: float) -> float:
    """Solve R(G) + 1/G = z for the Marchenko-Pastur law, off support.

    The inversion is a quadratic in G,

        alpha z G^2 + (1 - alpha - z) G + 1 = 0,

    and the physical branch is the one decaying like 1/z at infinity, which
    off the support is always the root of smaller magnitude.  The returned
    value satisfies the identity to 1e-10 or a :class:`BranchError` is
    raised.
    """
    a, zz = law.alpha, float(z)
    if abs(zz) < POLE_TOL:
        raise BranchError("z = 0 sits inside or at the edge of the spectrum")
    disc = (zz + a - 1.0) ** 2 - 4.0 * a * zz
    if disc < 0.0:
        raise BranchError(f"z={zz} lies inside the spectral support of MP(alpha={a})")
    root = math.sqrt(disc)
    # numerically stable pair for alpha*z*G^2 + (1-alpha-z)*G + 1 = 0
    b = 1.0 - a - zz
    q = -0.5 * (b + math.copysign(root, b))
    cands = []
    if abs(a * zz) > 0.0 and q != 0.0:
        cands = [q / (a * zz), 1.0 / q]
    candidates = sorted((g for g in cands if math.isfinite(g) and g != 0.0), key=abs)
    for g in candidates:
        if abs(1.0 - a * g) < POLE_TOL:
            continue
        if abs(r_transform(law, g) + 1.0 / g - zz) < 1e-10:
            return g
    raise BranchError(f"no admissible Green's-function branch at z={zz}, alpha={a}")


def empirical_spectral_moments(
    matrix_dims: tuple[int, int],
    seed: int,
    n_trials: int,
) -> tuple[float, float]:
    """Averaged first two spectral moments of A^T A over sampled matrices.

    A is M x N with i.i.d. N(0, 1/M) entries.  Returns the trial-averaged
    mean and variance of the eigenvalues, which converge to (1, alpha) by
    the Marchenko-Pastur cumulants.
    """
    M, N = matrix_dims
    if M < 2 or N < 2:
        raise ValueError(f"need M, N >= 2, got {matrix_dims}")
    means = np.empty(n_trials)
    variances = np.empty(n_trials)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(child)
        A = rng.normal(0.0, 1.0 / math.sqrt(M), size=(M, N))
        lam = np.linalg.eigvalsh(A.T @ A)
        means[t] = lam.mean()
        variances[t] = lam.var()
    return float(means.mean()), float(variances.mean())


def cd_lasso(A: np.ndarray, y: np.ndarray, gamma: float, sweeps: int, tol: float = 1e-14) -> np.ndarray:
    """Coordinate descent on (1/2 gamma)||y - Ax||^2 + ||x||_1: the LASSO oracle.

    Solves the equivalent (1/2)||y - Ax||^2 + gamma ||x||_1 coordinatewise,
    for at most ``sweeps`` passes or until no coordinate moves by ``tol``.
    """
    G = A.T @ A
    c = A.T @ y
    x = np.zeros(A.shape[1])
    for _ in range(sweeps):
        delta = 0.0
        for j in range(A.shape[1]):
            r = c[j] - G[j] @ x + G[j, j] * x[j]
            new = math.copysign(max(abs(r) - gamma, 0.0), r) / G[j, j]
            delta = max(delta, abs(new - x[j]))
            x[j] = new
        if delta < tol:
            break
    return x


def exhaustive_l0(inst: Instance, gamma: float) -> np.ndarray:
    """Exact L0 MAP estimate by enumerating supports: the oracle for IHT (N <= 14)."""
    A, y = inst.A, inst.y
    M, N = A.shape
    if N > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive L0 limited to N <= {EXHAUSTIVE_MAX_N}, got N={N}")
    best = np.zeros(N)
    best_obj = l0_objective(inst, best, gamma)
    for k in range(1, min(N, M) + 1):
        if k >= best_obj:
            break  # every k-support costs at least k
        for s in combinations(range(N), k):
            cols = A[:, s]
            xs, *_ = np.linalg.lstsq(cols, y, rcond=None)
            r = y - cols @ xs
            obj = float(r @ r) / (2.0 * gamma) + k
            if obj < best_obj:
                best_obj = obj
                best = np.zeros(N)
                best[list(s)] = xs
    return best


def rs_conjugates(cfg: SystemConfig, q0: float, b0: float) -> tuple[float, float]:
    """Printed conjugate pair (e0, f0) from (q0, b0) with the MP transform."""
    if q0 < 0.0:
        raise ValueError(f"q0 must be nonnegative, got {q0}")
    su2 = cfg.penalty.sigma_u2
    law = cfg.law
    e0 = r_transform(law, -b0 / su2) / su2
    f0 = math.sqrt(2.0 * (q0 / su2**2) * r_transform_derivative(law, -b0 / su2))
    return e0, f0
