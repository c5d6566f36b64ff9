"""One-step replica-symmetry-breaking fixed point and limiting energy.

The 1RSB order parameters are the within-block and between-block error
overlaps (q1 + p1 and q1), the rescaled susceptibility b1, and the block
size mu1.  Conjugates follow

    e1 = R(-b1/su2)/su2,
    g1 = sqrt([R(-b1/su2) - R(-(b1+mu1 p1)/su2)] / (mu1 su2)),
    f1 = sqrt(q1 R'(-(b1+mu1 p1)/su2)) / su2,

while the scalar-channel disturbance is s = sqrt(2) (f1 z + g1 y): the
sqrt(2) is the real-Gaussian Hubbard-Stratonovich scale
(:data:`HS_SCALE`), fixed so that the p1 -> 0 block collapse reproduces the
RS channel exactly (f0 = sqrt(2 q0 R')/su2).  The same scale divides the
z / y moment prefactors, which keeps the three moment equations mutually
consistent under Gaussian integration by parts.

The within-block Gibbs weight is Delta(y, z) = exp(-mu1 min_x C(x)),
normalized over y in the log domain.  The solver nests a damped moment
iteration (at fixed mu1) inside a bracketing search on the mu1
stationarity residual; with no admissible root the RS solution is returned
flagged ``rsb_collapsed``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from dataclasses import replace as _replace

import numpy as np

from . import quadrature as quad
from .priors import minimize_scalar_cost
from .rs import BARE, NumericError, RsState, SystemConfig, _bare_moments, rs_solve
from .spectral import r_antiderivative, r_transform, r_transform_derivative

#: Real-Gaussian Hubbard-Stratonovich factor applied to (f1, g1) in the cost.
HS_SCALE = math.sqrt(2.0)

_F1_TINY = 1e-12
_P1_COLLAPSE = 1e-9
_MU1_BRACKET = (1e-3, 1e3)
_MU1_PROBES = 13
_MU1_TOL = 1e-6


class DegenerateChannelError(ArithmeticError):
    """Vanishing z-channel scale with a nonzero response numerator."""


class InconsistentStateError(ArithmeticError):
    """Negative bracket under the g1 square root (p1 < 0 territory)."""


@dataclass
class RsbState:
    """1RSB macroscopic variables with convergence metadata."""

    q1: float
    p1: float
    b1: float
    mu1: float
    e1: float = 0.0
    f1: float = 0.0
    g1: float = 0.0
    residual: float = math.inf
    iterations: int = 0
    converged: bool = False
    rsb_collapsed: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def rsb_conjugates(
    cfg: SystemConfig, q1: float, p1: float, b1: float, mu1: float
) -> tuple[float, float, float]:
    """Printed conjugate triple (e1, g1, f1)."""
    if q1 < 0.0:
        raise ValueError(f"q1 must be nonnegative, got {q1}")
    su2 = cfg.penalty.sigma_u2
    law = cfg.law
    B = b1 + mu1 * p1
    if b1 < 0.0 or B < -1e-14:
        # variance-like combinations; negative values walk the R-transform
        # onto the wrong side of its pole
        raise InconsistentStateError(f"negative block variance: b1={b1}, b1+mu1*p1={B}")
    e1 = r_transform(law, -b1 / su2) / su2
    bracket = (r_transform(law, -b1 / su2) - r_transform(law, -B / su2)) / (mu1 * su2)
    if bracket < -1e-14:
        raise InconsistentStateError(
            f"negative g1 bracket {bracket} at (b1={b1}, mu1*p1={mu1 * p1})"
        )
    g1 = math.sqrt(max(bracket, 0.0))
    f1 = math.sqrt(q1 * r_transform_derivative(law, -B / su2)) / su2
    return e1, g1, f1


class _ChannelGrid:
    """The within-block Gibbs measure on the (x0, z, y) quadrature grid."""

    def __init__(self, quad_order: int, prior, penalty):
        rule = quad.gauss_hermite_rule(quad_order)
        self.x0, self.wx = quad.prior_nodes(prior, rule)
        self.z = rule.nodes
        self.wz = rule.weights
        self.y = rule.nodes
        self.wy = rule.weights
        self.penalty = penalty
        self.W_xz = self.wx[:, None] * self.wz[None, :]

    def evaluate(self, e1: float, f1: float, g1: float, mu1: float) -> tuple[np.ndarray, ...]:
        """Within-block Gibbs measure: (weight, error, cost, log normalizer).

        Weight, error x0 - Psi2 and cost are (x0, z, y) arrays; callers
        reduce over y (axis 2).  The weight is Delta Dy / int Delta Dy with
        Delta = exp(-mu1 cost), normalized in the log domain, and the log
        normalizer log int Delta Dy is an (x0, z) array.
        """
        X = self.x0[:, None, None]
        Z = self.z[None, :, None]
        Y = self.y[None, None, :]
        s = HS_SCALE * (f1 * Z + g1 * Y)
        psi, cost = minimize_scalar_cost(self.penalty, X, s, e1)
        if not np.all(np.isfinite(cost)):
            bad = np.argwhere(~np.isfinite(cost))[0]
            raise NumericError(
                f"non-finite scalar cost at (x0, z, y) = "
                f"({self.x0[bad[0]]}, {self.z[bad[1]]}, {self.y[bad[2]]})"
            )
        logw = -mu1 * cost
        peak = logw.max(axis=2, keepdims=True)
        w = np.exp(logw - peak) * self.wy[None, None, :]
        norm = w.sum(axis=2, keepdims=True)
        return w / norm, X - psi, cost, peak[..., 0] + np.log(norm[..., 0])

    def average(self, field: np.ndarray) -> float:
        return float(np.sum(self.W_xz * field))


def _block_moments(
    cfg: SystemConfig, e1: float, f1: float, g1: float, mu1: float
) -> tuple[float, float, float]:
    """Within-block overlap, between-block overlap and z numerator.

    With collapsed blocks (g1 = 0) the within-block average is trivial:
    both overlaps equal the RS q0 integral and the z numerator the RS b0
    numerator, evaluated in closed form on the bare channel.
    """
    if g1 < _F1_TINY:
        s_q, z_num = _bare_moments(cfg, e1, HS_SCALE * f1)
        return s_q, s_q, z_num
    grid = _ChannelGrid(cfg.quad_order, cfg.prior, cfg.penalty)
    weight, err, _, _ = grid.evaluate(e1, f1, g1, mu1)
    m1 = (weight * err).sum(axis=2)
    return (
        grid.average((weight * err**2).sum(axis=2)),
        grid.average(m1**2),
        grid.average(grid.z[None, :] * m1),
    )


def rsb_update(cfg: SystemConfig, state: RsbState) -> RsbState:
    """One damped step of the three moment equations at fixed mu1.

    The moment system is driven through its stable parametrization

        q1 + p1      <- E[<(x0 - Psi2)^2>_y]          (within-block overlap)
        q1           <- E[<x0 - Psi2>_y^2]            (between-block overlap)
        b1 + p1 mu1  <- E[z <x0 - Psi2>_y] / (HS_SCALE f1)

    with <.>_y the normalized within-block average.  The y-moment
    equation, b1 + (q1+p1) mu1 = E[y <x0-Psi2>_y]/(HS_SCALE g1), holds at
    any joint fixed point by Gaussian integration by parts (up to
    quadrature error on discontinuous minimizers) and is checked by
    :func:`moment_residuals`; driving it directly would amplify quadrature
    noise by 1/mu1.  When the y channel is dead (g1 = 0, collapsed blocks)
    the updates reduce to the RS moment pair (see :func:`_block_moments`).
    """
    if not all(map(math.isfinite, (state.q1, state.p1, state.b1, state.mu1))):
        raise NumericError(f"non-finite state entering rsb_update: {state}")
    e1, g1, f1 = rsb_conjugates(cfg, state.q1, state.p1, state.b1, state.mu1)
    s_q, s_btw, z_num = _block_moments(cfg, e1, f1, g1, state.mu1)
    if f1 < _F1_TINY:
        if abs(z_num) > 1e-10:
            raise DegenerateChannelError(
                f"z-channel collapsed (f1={f1}) with nonzero numerator {z_num}"
            )
        s_z = state.b1 + state.mu1 * state.p1
    else:
        s_z = z_num / (HS_SCALE * f1)
    p_rhs = max(s_q - s_btw, 0.0)
    q_rhs = min(s_btw, s_q)
    b_rhs = s_z - state.mu1 * p_rhs
    if not all(map(math.isfinite, (q_rhs, p_rhs, b_rhs))):
        raise NumericError(f"non-finite moment update: ({q_rhs}, {p_rhs}, {b_rhs})")
    residual = max(abs(q_rhs - state.q1), abs(p_rhs - state.p1), abs(b_rhs - state.b1))
    d = cfg.damping
    q1 = d * q_rhs + (1 - d) * state.q1
    p1 = d * p_rhs + (1 - d) * state.p1
    # transient negatives would cross the R-transform pole; fixed points are interior
    b1 = max(d * b_rhs + (1 - d) * state.b1, 0.0)
    e1, g1, f1 = rsb_conjugates(cfg, q1, p1, b1, state.mu1)
    return RsbState(
        q1=q1, p1=p1, b1=b1, mu1=state.mu1,
        e1=e1, f1=f1, g1=g1,
        residual=residual,
        iterations=state.iterations + 1,
        converged=residual < cfg.tol,
    )


def moment_residuals(cfg: SystemConfig, state: RsbState) -> tuple[float, float, float]:
    """Absolute defects of the z-moment, y-moment, and overlap equations.

    With collapsed blocks (g1 = 0) the equations reduce exactly to the RS
    moment pair (see :func:`_block_moments`); the y equation is vacuous there.
    """
    e1, g1, f1 = rsb_conjugates(cfg, state.q1, state.p1, state.b1, state.mu1)
    s_q, _, z_num = _block_moments(cfg, e1, f1, g1, state.mu1)
    r_q = abs(state.q1 + state.p1 - s_q)
    r_z = abs(state.b1 + state.mu1 * state.p1 - z_num / (HS_SCALE * f1)) if f1 > _F1_TINY else 0.0
    if g1 < _F1_TINY:
        return r_z, 0.0, r_q
    grid = _ChannelGrid(cfg.quad_order, cfg.prior, cfg.penalty)
    weight, err, _, _ = grid.evaluate(e1, f1, g1, state.mu1)
    y_num = grid.average((weight * err * grid.y[None, None, :]).sum(axis=2))
    r_y = abs(state.b1 + (state.q1 + state.p1) * state.mu1 - y_num / (HS_SCALE * g1))
    return r_z, r_y, r_q


def mu1_stationarity_residual(cfg: SystemConfig, state: RsbState) -> float:
    """Defect of the block-size stationarity equation at the given state.

    Partial derivative of the zero-temperature variational free energy in
    mu1, with the MP antiderivative of R(-w) in closed form:

        -I_R/mu1^2 + (p1/(mu1 su2)) R(-B/su2) - (p1 q1/su2^2) R'(-B/su2)
        + (q1+p1) g1^2 + p1 f1^2
        + E[log int Delta Dy]/mu1^2 - E[<log Delta>]/mu1^2

    where B = b1 + mu1 p1 and <.> is the normalized within-block average.
    The expression cancels identically at p1 = 0 (collapsed blocks).
    """
    if not state.mu1 > 0.0:
        raise ValueError(f"mu1 must be positive, got {state.mu1}")
    su2 = cfg.penalty.sigma_u2
    law = cfg.law
    q1, p1, b1, mu1 = state.q1, state.p1, state.b1, state.mu1
    B = b1 + mu1 * p1
    e1, g1, f1 = rsb_conjugates(cfg, q1, p1, b1, mu1)
    grid = _ChannelGrid(cfg.quad_order, cfg.prior, cfg.penalty)
    weight, _, cost, log_norm = grid.evaluate(e1, f1, g1, mu1)
    e_log = grid.average(log_norm)
    e_mean = grid.average(-mu1 * (weight * cost).sum(axis=2))
    if not (math.isfinite(e_log) and math.isfinite(e_mean)):
        raise NumericError(f"non-finite log-weight averages: ({e_log}, {e_mean})")
    i_r = r_antiderivative(law, B / su2) - r_antiderivative(law, b1 / su2)
    return (
        -i_r / mu1**2
        + (p1 / (mu1 * su2)) * r_transform(law, -B / su2)
        - (p1 * q1 / su2**2) * r_transform_derivative(law, -B / su2)
        + (q1 + p1) * g1**2
        + p1 * f1**2
        + e_log / mu1**2
        - e_mean / mu1**2
    )


def _inner_solve(cfg: SystemConfig, mu1: float, init: RsbState, max_iter: int | None = None) -> RsbState:
    state = RsbState(q1=init.q1, p1=init.p1, b1=init.b1, mu1=mu1)
    for it in range(max_iter if max_iter is not None else cfg.max_iter):
        try:
            state = rsb_update(cfg, state)
        except DegenerateChannelError:
            state.p1 = 0.0
            state.converged = True
            return state
        if state.converged:
            return state
        if it >= 5 and state.p1 < _P1_COLLAPSE:
            # block structure has died; no need to polish the collapsed point
            state.p1 = 0.0
            state.converged = True
            return state
    return state


def _collapsed_state(cfg: SystemConfig, rs_state: RsState) -> RsbState:
    e1, g1, f1 = rsb_conjugates(cfg, rs_state.q0, 0.0, rs_state.b0, 1.0)
    return RsbState(
        q1=rs_state.q0, p1=0.0, b1=rs_state.b0, mu1=1.0,
        e1=e1, f1=f1, g1=g1,
        residual=rs_state.residual,
        iterations=rs_state.iterations,
        converged=rs_state.converged,
        rsb_collapsed=True,
    )


def rsb_solve(cfg: SystemConfig, init: RsbState | None = None) -> RsbState:
    """Nested solve: bisection on the mu1 stationarity over inner moment solves.

    Probes log-spaced mu1 over the configured bracket, tracking the branch
    with genuinely broken symmetry (p1 > 0); a sign change in the
    stationarity residual is refined by bisection.  Without one the RS
    solution is the 1RSB solution and is returned with ``rsb_collapsed``.
    """
    bare_cfg = _replace(cfg, channel=BARE)
    rs_state = rs_solve(bare_cfg)
    if init is None:
        # the RS point only seeds the search; floor it away from the
        # degenerate q = 0 branch so the broken-symmetry basin is reachable
        q_seed = max(rs_state.q0, 0.01 * max(cfg.prior.second_moment, 1e-6))
        init = RsbState(
            q1=q_seed,
            p1=0.1 * q_seed,
            b1=rs_state.b0 if rs_state.b0 > 0 else cfg.penalty.sigma_u2,
            mu1=1.0,
        )

    probe_cap = min(cfg.max_iter, 200)
    live = None  # (mu1, state, residual) of the last probe that kept p1 > 0
    # every inner solve starts cold from the seeded init: the nonconvex inner
    # system can hold several fixed points, and warm-starting would make the
    # probed branch depend on probe order
    for mu in np.geomspace(*_MU1_BRACKET, _MU1_PROBES):
        st = _inner_solve(bare_cfg, float(mu), init, max_iter=probe_cap)
        if not (st.p1 > _P1_COLLAPSE and st.converged):
            continue
        probe = (float(mu), st, mu1_stationarity_residual(bare_cfg, st))
        # stop at the first sign change between consecutive live probes
        if live is not None and (
            live[2] == 0.0 or probe[2] == 0.0 or (live[2] < 0) != (probe[2] < 0)
        ):
            break
        live = probe
    else:
        return _collapsed_state(bare_cfg, rs_state)

    (mu_a, st_a, r_a), (mu_b, st_b, r_b) = live, probe
    best = min((st_a, r_a), (st_b, r_b), key=lambda t: abs(t[1]))
    for _ in range(40):
        if abs(best[1]) < _MU1_TOL or (mu_b / mu_a) < 1.0 + 1e-9:
            break
        mu_m = math.sqrt(mu_a * mu_b)
        st_m = _inner_solve(bare_cfg, mu_m, init)
        if not (st_m.p1 > _P1_COLLAPSE and st_m.converged):
            # branch died inside the bracket; shrink toward the live side
            if abs(r_a) <= abs(r_b):
                mu_b = mu_m
            else:
                mu_a = mu_m
            continue
        r_m = mu1_stationarity_residual(bare_cfg, st_m)
        if abs(r_m) < abs(best[1]):
            best = (st_m, r_m)
        if (r_m < 0) == (r_a < 0):
            mu_a, r_a = mu_m, r_m
        else:
            mu_b, r_b = mu_m, r_m
    state = best[0]
    state.rsb_collapsed = False
    # a genuine-RSB answer is certified only when the full consistency
    # bundle holds: all three moment equations and stationarity defect below
    # tolerance (quadrature noise can floor them higher for discontinuous
    # penalties, in which case the state is returned unconverged)
    state.converged = (
        state.converged
        and abs(best[1]) < _MU1_TOL
        and max(moment_residuals(bare_cfg, state)) < _MU1_TOL
    )
    return state


def rsb_energy(cfg: SystemConfig, state: RsbState) -> float:
    """Limiting 1RSB per-component energy.

    (1/su2)(q1 + p1 + b1/mu1) R(-B/su2) - (b1/(mu1 su2)) R(-b1/su2)
    - q1 (B/su2^2) R'(-B/su2),  B = b1 + mu1 p1.

    The derivative term carries su2^-2 scaling and a minus sign so that the
    collapsed limit p1 = 0 reproduces the RS energy identically at any
    block size.
    """
    su2 = cfg.penalty.sigma_u2
    law = cfg.law
    q1, p1, b1, mu1 = state.q1, state.p1, state.b1, state.mu1
    B = b1 + mu1 * p1
    return (
        (q1 + p1 + b1 / mu1) * r_transform(law, -B / su2) / su2
        - (b1 / (mu1 * su2)) * r_transform(law, -b1 / su2)
        - q1 * (B / su2**2) * r_transform_derivative(law, -B / su2)
    )
