"""Replica-symmetric fixed point and limiting energy.

The RS ansatz reduces a MAP estimator to one scalar channel, the pseudo
observation v = x0 + tau z through prox_{kappa f}, and one state evolution
over the error q0 and the rescaled susceptibility b0.  With
g = su2 + alpha b0, so that 1/g = R(-b0/su2)/su2 for the Marchenko-Pastur
transform, it reads

    kappa = lam g / c,    tau^2 = noise + alpha q0 / c,
    q0 <- E[(prox - x0)^2],    b0 <- chi g / c,

where chi is the channel's response.  The two channels are two settings
of (c, noise, chi):

``bare``: c = 2, noise = 0, chi = E[eta v]/s^2 (the Stein response)
    The printed zero-temperature equations.  Conjugates are

        e0 = R(-b0/su2)/su2,     f0 = sqrt(2 (q0/su2^2) R'(-b0/su2)),

    the channel disturbance is s = f0 z, and the moment equations are
    q0 = E[(x0 - Psi1)^2], b0 = E[(x0 - Psi1) z]/f0, i.e. the channel at
    kappa = lam/(2 e0), tau = f0/(2 e0).  The z-moment is the Stein
    response by Gaussian integration by parts.  The true-noise variance
    drops out (it vanishes in the zero-temperature limit), so this is the
    noiseless system at half the load and half the penalty weight: the
    noiseless decoupled channel of Rangan, Fletcher & Goyal (IEEE TIT 2012).

``calibrated``: c = 1, noise = sigma_0^2, chi = P(keep)
    The noise-consistent channel used for MSE prediction, usually written
    kappa = gamma + alpha kappa E[prox'].  For the L2 penalty it reproduces
    the exact asymptotic ridge-regression MSE and for L1 it is the
    standard LASSO state evolution.  Cross-checked against resolvent
    closed forms and Monte Carlo in the test suite.

The two responses coincide for the continuous L1 and L2 prox; for L0 the
Stein response adds the hard threshold's jump term, and which of the two
the replica saddle point gives is still open.  Over the
Bernoulli-Gaussian prior every moment is a Gaussian tail integral at the
threshold, so the RS layer uses no quadrature.  :func:`rs_energy`
evaluates the closed-form limiting energy from any state.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from . import quadrature as quad
from .priors import Penalty, SignalPrior, prox  # noqa: F401 (perfbench counts rs.prox calls)
from .spectral import SpectralLaw, r_transform, r_transform_derivative

BARE = "bare"
CALIBRATED = "calibrated"
_CHANNELS = (BARE, CALIBRATED)

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
        if self.quad_order < 2:
            raise ValueError(f"quad_order must be at least 2, got {self.quad_order}")
        if self.channel not in _CHANNELS:
            raise ValueError(f"channel must be one of {_CHANNELS}, got {self.channel!r}")

    @property
    def law(self) -> SpectralLaw:
        return SpectralLaw(self.alpha)


@dataclass
class RsState:
    """RS macroscopic variables with convergence metadata.

    (q0, b0) is the iterate of either channel.  ``e0`` and ``f0`` are the
    coefficients of the scalar cost at that iterate, so
    :func:`replicacs.priors.minimize_scalar_cost` at e = e0 with disturbance
    s = f0 z reproduces the channel: kappa = lam/(2 e0), tau = f0/(2 e0).
    ``kappa`` is reported for the calibrated channel only.
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
        out = asdict(self)
        if self.kappa is None:
            del out["kappa"]
        return out


def _channel(cfg: SystemConfig, kappa: float, tau: float) -> tuple[float, float, float]:
    """Scalar channel prox_{kappa f}(x0 + tau z): (q, stein, keep) in closed form.

    q = E[(prox - x0)^2], stein = E[prox z]/tau is the Stein response, and
    keep = E[d prox/dv] away from the threshold, which is P(keep) for L1/L0
    and the shrink factor for L2.  On each branch of the Bernoulli-Gaussian
    prior (x0 = 0, or x0 ~ N(0, vx)) the pseudo observation v = x0 + tau z
    is N(0, s^2) with s^2 = vx + tau^2, and E[x0 | v] = (vx/s^2) v,
    E[z | v] = (tau/s^2) v, so every moment is a Gaussian tail integral of
    the prox eta(v) above the threshold t, and stein = E[eta v]/s^2 stays
    finite at tau = 0.
    """
    pen = cfg.penalty
    prior = cfg.prior
    if kappa <= 0.0 or pen.lam == 0.0:
        return tau**2, 1.0, 1.0
    if pen.kind == "l2":
        c = 1.0 / (1.0 + 2.0 * kappa)
        return (1.0 - c) ** 2 * prior.second_moment + c**2 * tau**2, c, c
    t = kappa if pen.kind == "l1" else math.sqrt(2.0 * kappa)
    q = stein = keep = 0.0
    for w, vx in ((1.0 - prior.rho, 0.0), (prior.rho, prior.active_variance)):
        s2 = vx + tau**2
        if s2 == 0.0:
            continue  # x0 = v = 0: the prox returns the signal exactly
        u = t / math.sqrt(s2)
        sf = 0.5 * math.erfc(u * _SQRT_HALF)  # P(Z > u)
        u_phi = u * math.exp(-0.5 * u * u) / _SQRT_2PI
        # eta_v = E[eta v] / s^2 and eta_sq = E[eta^2] / s^2
        if pen.kind == "l1":  # eta = sign(v)(|v| - t)
            eta_v = 2.0 * sf  # Stein: E[eta v] = s^2 E[eta']
            eta_sq = 2.0 * ((1.0 + u * u) * sf - u_phi)
        else:  # eta = v 1{|v| > t}
            eta_v = eta_sq = 2.0 * (u_phi + sf)
        q += w * (s2 * eta_sq - 2.0 * vx * eta_v + vx)
        stein += w * eta_v
        keep += w * 2.0 * sf
    return q, stein, keep


def _bare_moments(cfg: SystemConfig, e0: float, f0: float) -> tuple[float, float]:
    """Bare-channel q0 integral and b0 numerator at the conjugates (e0, f0)."""
    tau = f0 / (2.0 * e0)
    q, stein, _ = _channel(cfg, cfg.penalty.lam / (2.0 * e0), tau)
    return q, tau * stein


def _step(old: float, new: float, damping: float) -> float:
    return damping * new + (1.0 - damping) * old


def _load_and_noise(cfg: SystemConfig) -> tuple[float, float]:
    """(c, noise): the channel runs at load alpha/c; bare is noiseless at half the load."""
    return (2.0, 0.0) if cfg.channel == BARE else (1.0, cfg.sigma_0_sq)


def _rhs(cfg: SystemConfig, q0: float, b0: float) -> tuple[float, float, float]:
    """Right-hand sides (q0, b0) of the state evolution, and the weight of a b0 defect.

    The weight lam alpha/c measures a b0 defect in kappa units (1 without a
    penalty), which is the calibrated channel's native residual.
    """
    c, noise = _load_and_noise(cfg)
    lam = cfg.penalty.lam
    g = cfg.penalty.sigma_u2 + cfg.alpha * b0
    q, stein, keep = _channel(cfg, lam * g / c, math.sqrt(noise + cfg.alpha * q0 / c))
    chi = stein if cfg.channel == BARE else keep
    return q, chi * g / c, (lam * cfg.alpha / c if lam > 0.0 else 1.0)


def _state(cfg: SystemConfig, q0: float, b0: float, residual: float = math.inf,
           iterations: int = 0) -> RsState:
    """RsState at (q0, b0) with the scalar-cost coefficients e0 = c/(2g), f0 = 2 e0 tau."""
    c, noise = _load_and_noise(cfg)
    g = cfg.penalty.sigma_u2 + cfg.alpha * b0
    e0 = c / (2.0 * g)
    return RsState(
        q0=q0,
        b0=b0,
        e0=e0,
        f0=2.0 * e0 * math.sqrt(noise + cfg.alpha * q0 / c),
        residual=residual,
        iterations=iterations,
        converged=residual < cfg.tol,
        channel=cfg.channel,
        kappa=cfg.penalty.lam * g / c if cfg.channel == CALIBRATED else None,
    )


def rs_update(cfg: SystemConfig, state: RsState) -> RsState:
    """One damped fixed-point iteration; residual is the pre-damping defect."""
    if not (math.isfinite(state.q0) and math.isfinite(state.b0)):
        raise NumericError(f"non-finite state entering rs_update: {state}")
    q_rhs, b_rhs, b_weight = _rhs(cfg, state.q0, state.b0)
    if not (math.isfinite(q_rhs) and math.isfinite(b_rhs)):
        raise NumericError(
            f"non-finite moment integral at iteration {state.iterations}: "
            f"q_rhs={q_rhs}, b_rhs={b_rhs}, state={state}"
        )
    residual = max(abs(q_rhs - state.q0), b_weight * abs(b_rhs - state.b0))
    q_new = _step(state.q0, q_rhs, cfg.damping)
    # b_rhs >= 0, so only a negative start can step toward the R-transform pole
    b_new = max(_step(state.b0, b_rhs, cfg.damping), 0.0)
    return _state(cfg, q_new, b_new, residual, state.iterations + 1)


def default_init(cfg: SystemConfig) -> RsState:
    """Uninformative start: q0 at the prior second moment, b0 = sigma_u^2."""
    return _state(cfg, cfg.prior.second_moment, cfg.penalty.sigma_u2)


def _degenerate_solve(cfg: SystemConfig, state: RsState) -> RsState:
    """Perfect-reconstruction branch: q0 = 0, susceptibility iterated alone."""
    b0 = state.b0
    residual = math.inf
    it = state.iterations
    for _ in range(cfg.max_iter):
        _, b_rhs, b_weight = _rhs(cfg, 0.0, b0)
        residual = b_weight * abs(b_rhs - b0)
        b0 = _step(b0, b_rhs, cfg.damping)
        it += 1
        if residual < cfg.tol:
            break
    return _state(cfg, 0.0, b0, residual, it)


def rs_solve(cfg: SystemConfig, init: RsState | None = None) -> RsState:
    """Damped iteration to tolerance; non-convergence is flagged, not raised.

    When the bare iteration runs away, the perfect-reconstruction branch
    (q0 = 0, b0 iterated alone) is accepted only when it is actually
    self-consistent and its own b0 iteration met the tolerance; otherwise
    the iteration restarts once from the noiseless-channel moment (the
    nonconvex L0 map can run away from the uninformative start while
    holding a stable interior fixed point).
    """
    state = default_init(cfg) if init is None else init
    runaway = 1e6 * max(1.0, cfg.prior.second_moment)
    restarted = False
    for _ in range(2 * cfg.max_iter):
        state = rs_update(cfg, state)
        if state.q0 > runaway:
            if cfg.channel == CALIBRATED:
                # no perfect-reconstruction branch to fall back on: the
                # noise-consistent MSE genuinely diverges (e.g. gamma = 0
                # past the identifiability load)
                return replace(state, converged=False)
            state = _degenerate_solve(cfg, state)
            q_check = _rhs(cfg, 0.0, state.b0)[0]
            if q_check <= 10.0 * cfg.tol:
                break  # genuine perfect-reconstruction fixed point
            if restarted:
                return replace(state, q0=q_check, converged=False, residual=q_check)
            restarted = True
            state = _state(cfg, q_check, state.b0, iterations=state.iterations)
            continue
        if state.converged or state.iterations >= cfg.max_iter:
            break
    return state


def rs_energy(cfg: SystemConfig, state: RsState) -> float:
    """Limiting per-component energy (q0/su2) R(-b0/su2) - (b0 q0/su2^2) R'(-b0/su2)."""
    su2 = cfg.penalty.sigma_u2
    arg = -state.b0 / su2
    law = cfg.law
    return (state.q0 / su2) * r_transform(law, arg) - (
        state.b0 * state.q0 / su2**2
    ) * r_transform_derivative(law, arg)


def predict_mse(cfg: SystemConfig) -> RsState:
    """Solve the calibrated channel regardless of cfg.channel; q0 is the MSE."""
    return rs_solve(replace(cfg, channel=CALIBRATED))
