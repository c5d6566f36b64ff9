"""Replica-symmetric fixed point and limiting energy.

Two scalar-channel conventions are implemented behind the same damped
iteration:

``bare``
    The classical zero-temperature equations.  Conjugates are

        e0 = R(-b0/su2)/su2,     f0 = sqrt(2 (q0/su2^2) R'(-b0/su2)),

    the channel disturbance is s = f0 z, and the moment equations are
    q0 = E[(x0 - Psi1)^2], b0 = E[(x0 - Psi1) z]/f0.  The true-noise
    variance sigma_0^2 drops out of this form (it vanishes in the
    zero-temperature limit), so q0 only tracks the penalty-induced error
    of a noiseless effective channel.

``calibrated``
    The noise-consistent scalar channel used for MSE prediction: pseudo
    observation v = x0 + tau z with tau^2 = sigma_0^2 + alpha q0, denoiser
    prox_{kappa f}, and kappa = gamma + alpha kappa E[prox'].  For the L2
    penalty this reproduces the exact asymptotic ridge-regression MSE and
    for L1 it is the standard LASSO state evolution.  Cross-checked against
    resolvent closed forms and Monte Carlo in the test suite.

Both conventions call one scalar-channel kernel, ``_channel``: the
pseudo observation x0 + tau z through prox_{kappa f}.  Over the
Bernoulli-Gaussian prior every moment is a Gaussian tail integral at the
threshold, so the RS layer uses no quadrature.  The bare channel is that
kernel at kappa = lam/(2 e0), tau = f0/(2 e0); the calibrated channel
feeds it its own (kappa, tau).  :func:`rs_energy` evaluates the
closed-form limiting energy from any state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy.special import ndtr

from . import quadrature as quad
from .priors import Penalty, SignalPrior, prox  # noqa: F401 (perfbench counts rs.prox calls)
from .spectral import SpectralLaw, r_transform, r_transform_derivative

BARE = "bare"
CALIBRATED = "calibrated"
_CHANNELS = (BARE, CALIBRATED)

_F0_TINY = 1e-12


class DegenerateChannelError(ArithmeticError):
    """Vanishing disturbance scale with a nonzero response numerator."""


class NumericError(ArithmeticError):
    """A fixed-point integral produced a non-finite value."""


@dataclass(frozen=True)
class SystemConfig:
    """Ensemble description plus solver controls."""

    alpha: float
    prior: SignalPrior
    penalty: Penalty
    sigma_0_sq: float = 0.0
    quad_order: int = quad.DEFAULT_ORDER  # the 1RSB grid; the RS channel is exact
    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 500
    channel: str = BARE

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.sigma_0_sq < 0.0:
            raise ValueError(f"sigma_0_sq must be nonnegative, got {self.sigma_0_sq}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.channel not in _CHANNELS:
            raise ValueError(f"channel must be one of {_CHANNELS}, got {self.channel!r}")

    @property
    def law(self) -> SpectralLaw:
        return SpectralLaw(self.alpha)


@dataclass
class RsState:
    """RS macroscopic variables with convergence metadata.

    ``e0`` and ``f0`` are always the coefficients of the scalar cost that
    generated the state, so feeding them back into
    :func:`replicacs.priors.scalar_minimizer_rs` reproduces the channel for
    either convention.  ``kappa`` carries the calibrated prox parameter when
    that channel is active.
    """

    q0: float
    b0: float
    e0: float
    f0: float
    residual: float = math.inf
    iterations: int = 0
    converged: bool = False
    channel: str = BARE
    kappa: float | None = None

    def as_dict(self) -> dict:
        out = {
            "q0": self.q0,
            "b0": self.b0,
            "e0": self.e0,
            "f0": self.f0,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "channel": self.channel,
        }
        if self.kappa is not None:
            out["kappa"] = self.kappa
        return out


def rs_conjugates(cfg: SystemConfig, q0: float, b0: float) -> tuple[float, float]:
    """Printed conjugate pair (e0, f0) from (q0, b0) with the MP transform."""
    if q0 < 0.0:
        raise ValueError(f"q0 must be nonnegative, got {q0}")
    su2 = cfg.penalty.sigma_u2
    law = cfg.law
    e0 = r_transform(law, -b0 / su2) / su2
    f0 = math.sqrt(2.0 * (q0 / su2**2) * r_transform_derivative(law, -b0 / su2))
    return e0, f0


def _channel(cfg: SystemConfig, kappa: float, tau: float) -> tuple[float, float, float]:
    """Scalar channel prox_{kappa f}(x0 + tau z): (q, znum, chi) in closed form.

    q = E[(prox - x0)^2], znum = E[(prox - x0) z], and chi = E[d prox/dv],
    which is P(keep) for L1/L0 and the shrink factor for L2.  On each
    branch of the Bernoulli-Gaussian prior (x0 = 0, or x0 ~ N(0, vx)) the
    pseudo observation v = x0 + tau z is N(0, s^2) with s^2 = vx + tau^2,
    and E[x0 | v] = (vx/s^2) v, E[z | v] = (tau/s^2) v, so every moment is
    a Gaussian tail integral of the prox eta(v) above the threshold t.
    """
    pen = cfg.penalty
    prior = cfg.prior
    if kappa <= 0.0 or pen.lam == 0.0:
        return tau**2, tau, 1.0
    if pen.kind == "l2":
        c = 1.0 / (1.0 + 2.0 * kappa)
        return (1.0 - c) ** 2 * prior.second_moment + c**2 * tau**2, c * tau, c
    t = kappa if pen.kind == "l1" else math.sqrt(2.0 * kappa)
    q = znum = chi = 0.0
    for w, vx in ((1.0 - prior.rho, 0.0), (prior.rho, prior.active_variance)):
        s2 = vx + tau**2
        if s2 == 0.0:
            continue  # x0 = v = 0: the prox returns the signal exactly
        u = t / math.sqrt(s2)
        sf = float(ndtr(-u))
        u_phi = u * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        # eta_v = E[eta v] / s^2 and eta_sq = E[eta^2] / s^2
        if pen.kind == "l1":  # eta = sign(v)(|v| - t)
            eta_v = 2.0 * sf  # Stein: E[eta v] = s^2 E[eta']
            eta_sq = 2.0 * ((1.0 + u * u) * sf - u_phi)
        else:  # eta = v 1{|v| > t}
            eta_v = eta_sq = 2.0 * (u_phi + sf)
        q += w * (s2 * eta_sq - 2.0 * vx * eta_v + vx)
        znum += w * tau * eta_v
        chi += w * 2.0 * sf
    return q, znum, chi


def _bare_moments(cfg: SystemConfig, e0: float, f0: float) -> tuple[float, float]:
    """Bare-channel q0 integral and b0 numerator: the channel at kappa = lam/2e0, tau = f0/2e0."""
    q, znum, _ = _channel(cfg, cfg.penalty.lam / (2.0 * e0), f0 / (2.0 * e0))
    return q, znum


def _step(old: float, new: float, damping: float) -> float:
    return damping * new + (1.0 - damping) * old


def rs_update(cfg: SystemConfig, state: RsState) -> RsState:
    """One damped fixed-point iteration; residual is the pre-damping defect."""
    if not math.isfinite(state.q0):
        raise NumericError(f"non-finite state entering rs_update: {state}")
    if cfg.channel == CALIBRATED:
        # b0 is a derived reporting field here and saturates to inf in the
        # gamma = 0 runaway corner; the iteration itself lives on kappa
        if state.kappa is not None and not math.isfinite(state.kappa):
            raise NumericError(f"non-finite kappa entering rs_update: {state}")
        return _calibrated_update(cfg, state)
    if not math.isfinite(state.b0):
        raise NumericError(f"non-finite state entering rs_update: {state}")

    e0, f0 = rs_conjugates(cfg, state.q0, state.b0)
    q_rhs, b_num, chi = _channel(cfg, cfg.penalty.lam / (2.0 * e0), f0 / (2.0 * e0))
    if not (math.isfinite(q_rhs) and math.isfinite(b_num)):
        raise NumericError(
            f"non-finite moment integral at iteration {state.iterations}: "
            f"q_rhs={q_rhs}, b_num={b_num}, state={state}"
        )
    if f0 < _F0_TINY:
        if abs(b_num) > 1e-10:
            raise DegenerateChannelError(
                f"f0={f0} with b-update numerator {b_num}; q0 = 0 branch"
            )
        # 0/0 continuation via Gaussian integration by parts: b = chi/(2 e0)
        b_rhs = chi / (2.0 * e0)
    else:
        b_rhs = b_num / f0
    residual = max(abs(q_rhs - state.q0), abs(b_rhs - state.b0))
    q_new = _step(state.q0, q_rhs, cfg.damping)
    # transient negatives would cross the R-transform pole; fixed points are interior
    b_new = max(_step(state.b0, b_rhs, cfg.damping), 0.0)
    e_new, f_new = rs_conjugates(cfg, q_new, b_new)
    return RsState(
        q0=q_new,
        b0=b_new,
        e0=e_new,
        f0=f_new,
        residual=residual,
        iterations=state.iterations + 1,
        converged=residual < cfg.tol,
        channel=BARE,
    )


def _kappa_to_b0(cfg: SystemConfig, kappa: float) -> float:
    gamma = cfg.penalty.gamma
    su2 = cfg.penalty.sigma_u2
    if gamma > 0.0:
        return su2 * (kappa - gamma) / (cfg.alpha * gamma)
    # gamma = 0 leaves prox the identity, which keeps every coordinate (chi = 1)
    denom = 1.0 - cfg.alpha
    return su2 / denom if denom > 1e-12 else math.inf


def _calibrated_update(cfg: SystemConfig, state: RsState) -> RsState:
    kappa = state.kappa if state.kappa is not None else _default_kappa(cfg)
    tau = math.sqrt(cfg.sigma_0_sq + cfg.alpha * state.q0)
    q_rhs, _, chi = _channel(cfg, kappa, tau)
    kappa_rhs = cfg.penalty.gamma + cfg.alpha * kappa * chi
    if not (math.isfinite(q_rhs) and math.isfinite(kappa_rhs)):
        raise NumericError(
            f"non-finite calibrated update at iteration {state.iterations}: "
            f"q_rhs={q_rhs}, kappa_rhs={kappa_rhs}, state={state}"
        )
    residual = max(abs(q_rhs - state.q0), abs(kappa_rhs - kappa))
    q_new = _step(state.q0, q_rhs, cfg.damping)
    kappa_new = _step(kappa, kappa_rhs, cfg.damping)
    tau_new = math.sqrt(cfg.sigma_0_sq + cfg.alpha * q_new)
    # cost coefficients reproducing the channel: e = lam/(2 kappa), f = 2 e tau
    lam = cfg.penalty.lam
    e_new = lam / (2.0 * kappa_new) if (lam > 0.0 and kappa_new > 0.0) else 1.0
    f_new = 2.0 * e_new * tau_new
    return RsState(
        q0=q_new,
        b0=_kappa_to_b0(cfg, kappa_new),
        e0=e_new,
        f0=f_new,
        residual=residual,
        iterations=state.iterations + 1,
        converged=residual < cfg.tol,
        channel=CALIBRATED,
        kappa=kappa_new,
    )


def _default_kappa(cfg: SystemConfig) -> float:
    gamma = cfg.penalty.gamma
    return gamma * (1.0 + cfg.alpha) if gamma > 0.0 else 1e-6


def default_init(cfg: SystemConfig) -> RsState:
    """Uninformative start: q0 at the prior second moment, b0 = sigma_u^2."""
    q0 = cfg.prior.second_moment
    b0 = cfg.penalty.sigma_u2
    if cfg.channel == CALIBRATED:
        kappa = _default_kappa(cfg)
        return RsState(q0=q0, b0=b0, e0=1.0, f0=0.0, channel=CALIBRATED, kappa=kappa)
    e0, f0 = rs_conjugates(cfg, q0, b0)
    return RsState(q0=q0, b0=b0, e0=e0, f0=f0)


def _degenerate_solve(cfg: SystemConfig, state: RsState) -> RsState:
    """Perfect-reconstruction branch: q0 = 0, susceptibility iterated alone."""
    su2 = cfg.penalty.sigma_u2
    b0 = state.b0 if math.isfinite(state.b0) else cfg.penalty.sigma_u2
    residual = math.inf
    it = state.iterations
    for _ in range(cfg.max_iter):
        e0 = r_transform(cfg.law, -b0 / su2) / su2
        _, _, chi = _channel(cfg, cfg.penalty.lam / (2.0 * e0), 0.0)
        b_rhs = chi / (2.0 * e0)
        residual = abs(b_rhs - b0)
        b0 = _step(b0, b_rhs, cfg.damping)
        it += 1
        if residual < cfg.tol:
            break
    e0, f0 = rs_conjugates(cfg, 0.0, b0)
    return RsState(
        q0=0.0, b0=b0, e0=e0, f0=f0,
        residual=residual, iterations=it, converged=residual < cfg.tol,
        channel=cfg.channel,
    )


def rs_solve(cfg: SystemConfig, init: RsState | None = None) -> RsState:
    """Damped iteration to tolerance; non-convergence is flagged, not raised.

    A vanishing disturbance scale routes through the perfect-reconstruction
    branch, whose q0 = 0 answer is accepted only when it is actually
    self-consistent; otherwise the iteration restarts once from the
    noiseless-channel moment (the nonconvex L0 map can run away from the
    uninformative start while holding a stable interior fixed point).
    """
    if init is None:
        state = default_init(cfg)
    else:
        kappa = init.kappa if cfg.channel == CALIBRATED else None
        if cfg.channel == CALIBRATED and kappa is None:
            kappa = _default_kappa(cfg)
        state = replace(init, channel=cfg.channel, kappa=kappa)
    runaway = 1e6 * max(1.0, cfg.prior.second_moment)
    restarted = False
    for _ in range(2 * cfg.max_iter):
        degenerate = False
        try:
            state = rs_update(cfg, state)
        except DegenerateChannelError:
            degenerate = True
        if degenerate or state.q0 > runaway:
            if cfg.channel == CALIBRATED:
                # no perfect-reconstruction branch to fall back on: the
                # noise-consistent MSE genuinely diverges (e.g. gamma = 0
                # past the identifiability load)
                state = replace(state, converged=False)
                break
            state = _degenerate_solve(cfg, state)
            q_check, _ = _bare_moments(cfg, state.e0, 0.0)
            if q_check <= 10.0 * cfg.tol:
                break  # genuine perfect-reconstruction fixed point
            if restarted:
                state = replace(state, q0=q_check, converged=False, residual=q_check)
                break
            restarted = True
            e0, f0 = rs_conjugates(cfg, q_check, state.b0)
            state = RsState(q0=q_check, b0=state.b0, e0=e0, f0=f0,
                            iterations=state.iterations, channel=cfg.channel,
                            kappa=state.kappa)
            continue
        if state.converged or state.iterations >= cfg.max_iter:
            break
    return state


def rs_energy(cfg: SystemConfig, state: RsState) -> float:
    """Limiting per-component energy (q0/su2) R(-b0/su2) - (b0 q0/su2^2) R'(-b0/su2)."""
    su2 = cfg.penalty.sigma_u2
    if not math.isfinite(state.b0):
        return 0.0 if state.q0 == 0.0 else math.nan
    arg = -state.b0 / su2
    law = cfg.law
    return (state.q0 / su2) * r_transform(law, arg) - (
        state.b0 * state.q0 / su2**2
    ) * r_transform_derivative(law, arg)


def predict_mse(cfg: SystemConfig, init: RsState | None = None) -> RsState:
    """Solve the calibrated channel regardless of cfg.channel; q0 is the MSE."""
    return rs_solve(replace(cfg, channel=CALIBRATED), init)
