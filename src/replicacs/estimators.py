"""Finite-size estimators: LS, L2-regularized (LMMSE form), LASSO, and L0.

Every estimator is a deterministic function of the instance and its
parameters and returns an :class:`EstimateReport` carrying an optimality
certificate: the normal-equation residual for the linear estimators, the
subgradient-consistency defect for LASSO, and the bare objective for the
L0 heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Instance:
    """One sampled problem y = A x0 + sigma0 w."""

    A: np.ndarray
    x0: np.ndarray
    w: np.ndarray
    y: np.ndarray
    sigma0: float

    def __post_init__(self) -> None:
        if not np.allclose(self.y, self.A @ self.x0 + self.sigma0 * self.w,
                           rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(self.y).max(initial=0.0)))):
            raise ValueError("construction identity y = A x0 + sigma0 w violated")

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


@dataclass
class EstimateReport:
    xhat: np.ndarray
    objective: float
    certificate: float
    iterations: int = 0
    converged: bool = True
    flags: list[str] = field(default_factory=list)


def empirical_mse(x0: np.ndarray, xhat: np.ndarray) -> float:
    """Per-component squared error ||xhat - x0||^2 / N."""
    if len(x0) != len(xhat):
        raise ValueError(f"length mismatch: {len(x0)} vs {len(xhat)}")
    return float(np.mean((np.asarray(xhat) - np.asarray(x0)) ** 2))


def empirical_median_se(batch) -> float:
    """Median of a batch of per-instance squared errors."""
    arr = np.asarray(list(batch), dtype=float)
    if arr.size == 0:
        raise ValueError("empty batch")
    return float(np.median(arr))


def estimate_ls(inst: Instance) -> EstimateReport:
    """Least squares (A^T A)^{-1} A^T y, or flagged min-norm pseudo-solution."""
    A, y = inst.A, inst.y
    M, N = A.shape
    gram = A.T @ A
    aty = A.T @ y
    flags: list[str] = []
    if M >= N and np.linalg.matrix_rank(A) == N:
        xhat = np.linalg.solve(gram, aty)
    else:
        xhat = np.linalg.pinv(A) @ y
        flags.append("pseudo_inverse")
    scale = max(1.0, float(np.abs(aty).max(initial=0.0)))
    cert = float(np.abs(gram @ xhat - aty).max(initial=0.0)) / scale
    obj = 0.5 * float(np.sum((y - A @ xhat) ** 2))
    return EstimateReport(xhat=xhat, objective=obj, certificate=cert, flags=flags)


def estimate_lmmse(inst: Instance, gamma: float) -> EstimateReport:
    """x = A^T (A A^T + gamma I)^{-1} y by symmetric positive-definite solve."""
    A, y = inst.A, inst.y
    M = A.shape[0]
    K = A @ A.T + gamma * np.eye(M)
    if gamma == 0.0 and np.linalg.matrix_rank(K) < M:
        raise np.linalg.LinAlgError("gamma = 0 with singular A A^T")
    try:
        z = np.linalg.solve(K, y)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular system in LMMSE solve: {exc}") from exc
    xhat = A.T @ z
    cert = float(np.abs(K @ z - y).max(initial=0.0)) / max(1.0, float(np.abs(y).max(initial=0.0)))
    obj = 0.5 * float(np.sum((y - A @ xhat) ** 2)) + 0.5 * gamma * float(xhat @ xhat)
    return EstimateReport(xhat=xhat, objective=obj, certificate=cert)


def _soft(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _lipschitz(A: np.ndarray) -> float:
    """Largest eigenvalue of A^T A, exactly, from the smaller of A A^T and A^T A."""
    M, N = A.shape
    gram = A @ A.T if M < N else A.T @ A
    return float(np.linalg.eigvalsh(gram)[-1])


def lasso_objective(inst: Instance, x: np.ndarray, gamma: float) -> float:
    r = inst.y - inst.A @ x
    return float(np.sum(r * r)) / (2.0 * gamma) + float(np.abs(x).sum())


def lasso_certificate(inst: Instance, x: np.ndarray, gamma: float) -> float:
    """Distance of A^T(y - Ax)/gamma from the L1 subdifferential at x."""
    c = inst.A.T @ (inst.y - inst.A @ x) / gamma
    on = x != 0.0
    viol_on = np.abs(c[on] - np.sign(x[on])).max(initial=0.0)
    viol_off = np.maximum(np.abs(c[~on]) - 1.0, 0.0).max(initial=0.0)
    return float(max(viol_on, viol_off))


def estimate_lasso(
    inst: Instance,
    gamma: float,
    cert_tol: float = 1e-6,
    max_iter: int = 20000,
) -> EstimateReport:
    """Restarted FISTA on (1/2 gamma)||y - Ax||^2 + ||x||_1.

    Fixed step 1/L with L = lambda_max(A^T A)/gamma computed exactly, the
    gradient G z - c from the precomputed G = A^T A/gamma and c = A^T y/gamma,
    and gradient-based adaptive restart (O'Donoghue & Candes 2015): the
    momentum is reset whenever it points against the last prox-gradient step.
    Stops at subgradient certificate < cert_tol.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    A, y = inst.A, inst.y
    N = A.shape[1]
    L = _lipschitz(A) / gamma
    if L == 0.0:
        return EstimateReport(xhat=np.zeros(N), objective=0.0, certificate=0.0)
    step = 1.0 / L
    G = (A.T @ A) / gamma
    c = (A.T @ y) / gamma
    x = np.zeros(N)
    zv = x.copy()
    t = 1.0
    cert = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        x_new = _soft(zv - step * (G @ zv - c), step)
        if (zv - x_new) @ (x_new - x) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        zv = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if it % 10 == 0 or it < 10:
            cert = lasso_certificate(inst, x, gamma)
            if cert < cert_tol:
                break
    cert = lasso_certificate(inst, x, gamma)
    return EstimateReport(
        xhat=x,
        objective=lasso_objective(inst, x, gamma),
        certificate=cert,
        iterations=it,
        converged=cert < cert_tol,
    )


def l0_objective(inst: Instance, x: np.ndarray, gamma: float) -> float:
    r = inst.y - inst.A @ x
    return float(np.sum(r * r)) / (2.0 * gamma) + float(np.count_nonzero(x))


def _hard(v: np.ndarray, thresh_sq: float) -> np.ndarray:
    return np.where(v * v > thresh_sq, v, 0.0)


def _iht(inst: Instance, gamma: float, max_iter: int = 2000, tol: float = 1e-10) -> tuple[np.ndarray, int, bool]:
    """Iterative hard thresholding at step 1/L, then a support refit.

    Returns the estimate, the iteration count and whether the step fell below tol.
    """
    A, y = inst.A, inst.y
    N = A.shape[1]
    L = _lipschitz(A) / gamma
    step = 1.0 / L if L > 0 else 1.0
    x = np.zeros(N)
    aty = A.T @ y
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        v = x - step * (A.T @ (A @ x) - aty) / gamma
        x_new = _hard(v, 2.0 * step)
        converged = bool(np.max(np.abs(x_new - x), initial=0.0) < tol)
        x = x_new
        if converged:
            break
    # debias: least-squares refit on the final support never increases the objective
    s = np.flatnonzero(x)
    if s.size and s.size <= A.shape[0]:
        xs, *_ = np.linalg.lstsq(A[:, s], y, rcond=None)
        refit = np.zeros(N)
        refit[s] = xs
        if l0_objective(inst, refit, gamma) <= l0_objective(inst, x, gamma):
            x = refit
    return x, it, converged


def estimate_l0(inst: Instance, gamma: float) -> EstimateReport:
    """L0-penalized estimate by the IHT heuristic; the objective is its certificate."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x, it, converged = _iht(inst, gamma)
    obj = l0_objective(inst, x, gamma)
    return EstimateReport(xhat=x, objective=obj, certificate=obj, iterations=it,
                          converged=converged)
