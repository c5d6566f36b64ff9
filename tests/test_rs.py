import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from replicacs.montecarlo import ensemble_sigma0_sq
from replicacs.priors import Penalty, SignalPrior, prox
from replicacs.rs import (
    CALIBRATED,
    BARE,
    RsState,
    SystemConfig,
    _channel,
    default_init,
    predict_mse,
    rs_conjugates,
    rs_energy,
    rs_solve,
    rs_update,
)


def make_cfg(kind="l1", alpha=2.0, rho=0.1, gamma=None, su2=None, sigma_0_sq=None, **kw):
    s02 = alpha * rho / 10.0 if sigma_0_sq is None else sigma_0_sq
    su2 = s02 if su2 is None else su2
    gamma = su2 if gamma is None else gamma
    return SystemConfig(
        alpha=alpha,
        prior=SignalPrior(rho),
        penalty=Penalty(kind, gamma, su2 if su2 > 0 else 1.0),
        sigma_0_sq=s02,
        **kw,
    )


# ---------------------------------------------------------------- oracles


def mp_stieltjes(c, alpha):
    """S1(c) = int dmu(l)/(l+c) for the A^T A spectrum, by root finding."""
    return brentq(lambda s: 1.0 / (1.0 + alpha * s) + c - 1.0 / s, 1e-14, 1e14, xtol=1e-15)


def ridge_mse_rmt(c, alpha, rho, sigma0_sq):
    """Asymptotic MSE of (A^T A + cI)^{-1} A^T y from resolvent integrals."""
    s1 = mp_stieltjes(c, alpha)
    sp = -1.0 / (1.0 / s1**2 - alpha / (1.0 + alpha * s1) ** 2)
    s2 = -sp
    return c * c * rho * s2 + sigma0_sq * (s1 - c * s2)


def _gauss(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def channel_oracle(cfg, kappa, tau):
    """(q, znum, chi) of prox_{kappa f}(x0 + tau z) by nested adaptive quadrature."""
    pen, prior = cfg.penalty, cfg.prior
    e = pen.lam / (2.0 * kappa)  # prox(pen, v, e) is prox_{kappa f}(v)
    t = kappa if pen.kind == "l1" else math.sqrt(2.0 * kappa)
    sx = math.sqrt(prior.active_variance)
    tol = dict(epsabs=1e-13, epsrel=1e-10, limit=200)

    def inner(x0, f):
        # |z| <= 8.5 holds all but 1e-16 of the mass; the prox has kinks at v = +-t
        kinks = [z for z in ((-t - x0) / tau, (t - x0) / tau) if abs(z) < 8.5]
        integrand = lambda z: _gauss(z) * f(x0, z, prox(pen, x0 + tau * z, e))
        return quad(integrand, -8.5, 8.5, points=kinks or None, **tol)[0]

    moments = (
        lambda x0, z, xh: (xh - x0) ** 2,
        lambda x0, z, xh: (xh - x0) * z,
        lambda x0, z, xh: float(xh != 0.0),
    )
    out = []
    for f in moments:
        # prox is odd, so each inner integral is even in x0: fold onto x0 >= 0
        active = 2.0 * quad(lambda x0: _gauss(x0 / sx) / sx * inner(x0, f), 0.0, 8.5 * sx, **tol)[0]
        out.append((1.0 - prior.rho) * inner(0.0, f) + prior.rho * active)
    return out


# ---------------------------------------------------------------- conjugates


class TestConjugates:
    def test_b0_zero(self):
        cfg = make_cfg("l1", alpha=0.5, su2=1.0, gamma=1.0, sigma_0_sq=0.1)
        for q0 in (0.25, 1.0, 4.0):
            e0, f0 = rs_conjugates(cfg, q0, 0.0)
            assert e0 == 1.0
            assert f0 == pytest.approx(math.sqrt(q0), abs=1e-15)

    def test_q0_zero_kills_f0(self):
        cfg = make_cfg("l1", alpha=0.5, su2=1.0, gamma=1.0, sigma_0_sq=0.1)
        assert rs_conjugates(cfg, 0.0, 0.7)[1] == 0.0

    def test_b0_at_su2(self):
        cfg = make_cfg("l1", alpha=0.5, su2=1.0, gamma=1.0, sigma_0_sq=0.1)
        e0, f0 = rs_conjugates(cfg, 0.3, 1.0)
        assert e0 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert f0 == pytest.approx(math.sqrt(2.0 * 0.3 * 2.0 / 9.0), abs=1e-15)

    def test_negative_q0_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            rs_conjugates(cfg, -1e-3, 0.0)


# ---------------------------------------------------------------- energy


class TestEnergy:
    def test_zero_q0(self):
        cfg = make_cfg("l1", alpha=0.5, su2=1.0, gamma=1.0, sigma_0_sq=0.1)
        st = RsState(q0=0.0, b0=0.4, e0=1.0, f0=0.0)
        assert rs_energy(cfg, st) == 0.0

    def test_b0_zero(self):
        cfg = make_cfg("l1", alpha=0.5, su2=1.0, gamma=1.0, sigma_0_sq=0.1)
        st = RsState(q0=1.0, b0=0.0, e0=1.0, f0=1.0)
        assert rs_energy(cfg, st) == pytest.approx(1.0, abs=1e-15)

    def test_pinned_arithmetic(self):
        # R(-1) = 2/3 and R'(-1) = 2/9 at alpha = 1/2
        cfg = make_cfg("l1", alpha=0.5, su2=1.0, gamma=1.0, sigma_0_sq=0.1)
        st = RsState(q0=1.0, b0=1.0, e0=1.0, f0=1.0)
        assert rs_energy(cfg, st) == pytest.approx(2.0 / 3.0 - 2.0 / 9.0, abs=1e-15)


# ---------------------------------------------------------------- update


class TestUpdate:
    def test_fixed_point_is_stationary(self):
        cfg = make_cfg("l1", alpha=2.0, tol=1e-11)
        st = rs_solve(cfg)
        assert st.converged
        nxt = rs_update(cfg, st)
        assert abs(nxt.q0 - st.q0) < 10 * cfg.tol
        assert abs(nxt.b0 - st.b0) < 10 * cfg.tol

    def test_rho_zero_l1_thresholds_to_zero(self):
        # zero signal, heavy penalty: Psi1 pins the true zero, q0 -> 0
        cfg = make_cfg("l1", alpha=1.0, rho=0.0, gamma=0.5, su2=0.5, sigma_0_sq=0.05)
        st = rs_solve(cfg)
        assert st.converged
        assert st.q0 < 1e-12

    def test_tse_hanly_limit_gamma_zero(self):
        # calibrated channel, no penalty: q = sigma0^2/(1 - alpha) for alpha < 1
        for alpha in (0.25, 0.5, 0.8):
            cfg = make_cfg("l2", alpha=alpha, gamma=0.0, su2=1.0, sigma_0_sq=0.04,
                           channel=CALIBRATED)
            st = rs_solve(cfg)
            assert st.converged
            assert st.q0 == pytest.approx(0.04 / (1.0 - alpha), rel=1e-8)

    def test_calibrated_l2_matches_resolvent_oracle(self):
        # the ridge estimator (A^T A + cI)^{-1} A^T y is the MAP estimator of
        # the x^2 penalty at weight c/2
        rho = 0.1
        for alpha in (0.5, 1.0, 2.0):
            s02 = alpha * rho / 10.0
            c = s02
            cfg = make_cfg("l2", alpha=alpha, rho=rho, gamma=c / 2.0, su2=s02,
                           sigma_0_sq=s02, channel=CALIBRATED)
            st = rs_solve(cfg)
            assert st.converged
            oracle = ridge_mse_rmt(c, alpha, rho, s02)
            assert st.q0 == pytest.approx(oracle, rel=1e-7)

    @pytest.mark.parametrize("kind", ["l1", "l0"])
    def test_calibrated_noiseless_channel_is_its_small_tau_limit(self, kind):
        # q0 = 0 with sigma_0^2 = 0 puts the calibrated channel at tau = 0;
        # lam = 0.075 tells a threshold at kappa from one at lam kappa
        cfg = SystemConfig(alpha=0.5, prior=SignalPrior(0.1), penalty=Penalty(kind, 0.3, 4.0),
                           sigma_0_sq=0.0, channel=CALIBRATED)
        at_zero, near_zero = (
            rs_update(cfg, RsState(q0=q0, b0=1.0, e0=1.0, f0=0.0, channel=CALIBRATED, kappa=0.3))
            for q0 in (0.0, 1e-300)
        )
        assert near_zero.q0 > 1e-3
        assert at_zero.q0 == pytest.approx(near_zero.q0, rel=1e-9)
        assert at_zero.kappa == pytest.approx(near_zero.kappa, rel=1e-9)

    @pytest.mark.parametrize("kind", ["l1", "l0"])
    @pytest.mark.parametrize("kappa, tau", [(0.0488, 0.172), (0.148, 0.215), (0.3, 0.05)])
    def test_channel_matches_nested_quadrature_oracle(self, kind, kappa, tau):
        # lam = 0.075 tells a threshold at kappa from one at lam kappa
        cfg = SystemConfig(alpha=0.5, prior=SignalPrior(0.1), penalty=Penalty(kind, 0.3, 4.0))
        got = _channel(cfg, kappa, tau)
        assert got == pytest.approx(channel_oracle(cfg, kappa, tau), rel=1e-9)

    def test_nan_state_raises(self):
        from replicacs.rs import NumericError

        cfg = make_cfg()
        bad = RsState(q0=math.nan, b0=0.1, e0=1.0, f0=0.1)
        with pytest.raises(NumericError):
            rs_update(cfg, bad)


# ---------------------------------------------------------------- solve


class TestSolve:
    def test_section4_grid_converges(self):
        for mn in (0.2, 0.4, 0.6, 0.8, 1.0):
            cfg = make_cfg("l1", alpha=1.0 / mn, tol=1e-10)
            st = rs_solve(cfg)
            assert st.converged, mn
            assert st.iterations <= 500
            assert st.residual < 1e-8

    def test_multistart_agreement(self):
        cfg = make_cfg("l1", alpha=2.0)
        a = rs_solve(cfg)
        rng = np.random.default_rng(5)
        q_i, b_i = rng.uniform(0.01, 1.0), rng.uniform(0.001, 0.5)
        e_i, f_i = rs_conjugates(cfg, q_i, b_i)
        b = rs_solve(cfg, RsState(q0=q_i, b0=b_i, e0=e_i, f0=f_i))
        assert abs(a.q0 - b.q0) < 1e-6
        assert abs(a.b0 - b.b0) < 1e-6

    def test_noiseless_oversampled_recovery(self):
        # many measurements per unknown and vanishing penalty: exact recovery
        cfg = make_cfg("l1", alpha=0.25, gamma=1e-6, su2=1.0, sigma_0_sq=0.0,
                       channel=CALIBRATED)
        st = rs_solve(cfg)
        assert st.converged
        assert st.q0 < 1e-3 * cfg.prior.rho

    def test_monotone_in_alpha(self):
        # more measurements per unknown never hurts
        qs = []
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            st = rs_solve(make_cfg("l1", alpha=alpha, gamma=0.05, su2=0.05,
                                   sigma_0_sq=0.05))
            assert st.converged
            qs.append(st.q0)
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))

    def test_energy_nonnegative_on_grid(self):
        for mn in (0.2, 0.5, 1.0):
            for kind in ("l0", "l1", "l2"):
                cfg = make_cfg(kind, alpha=1.0 / mn)
                st = rs_solve(cfg)
                assert rs_energy(cfg, st) >= 0.0

    def test_nonconvergence_flagged_not_raised(self):
        cfg = make_cfg("l1", alpha=2.0, max_iter=2, tol=1e-14)
        st = rs_solve(cfg)
        assert not st.converged
        assert st.iterations <= 2

    def test_predict_mse_uses_calibrated_channel(self):
        cfg = make_cfg("l2", alpha=1.0, channel=BARE)
        st = predict_mse(cfg)
        assert st.channel == CALIBRATED
        assert st.kappa is not None

    def test_default_init_at_prior_moment(self):
        cfg = make_cfg("l1", alpha=2.0, rho=0.3)
        st = default_init(cfg)
        assert st.q0 == pytest.approx(0.3)
        assert st.b0 == cfg.penalty.sigma_u2


# predict_mse on the paper grid at rho = 0.1, +10 dB, sigma_u^2 = sigma_0^2 and
# gamma = sigma_0^2 (l1, l0) or sigma_0^2/2 (l2): (q0, kappa, iterations,
# converged), recorded when the channel kernel became exact over the prior
# (the l2 rows were already exact).  The l0 rows pin today's runaway of the
# calibrated hard-threshold channel.
PAPER_GRID_PREDICTIONS = {
    ("l1", 0.2): (0.06087160788174305, 0.8426214239351149, 89, True),
    ("l1", 0.4): (0.022823507456619478, 0.2857552381461938, 92, True),
    ("l1", 0.6): (0.01770729456319503, 0.14735874173120633, 97, True),
    ("l1", 0.8): (0.01877173266493504, 0.08491683563872104, 122, True),
    ("l1", 1.0): (0.01933484468466011, 0.04870548101221744, 128, True),
    ("l2", 0.2): (0.08242777581400476, 2.031154136536693, 49, True),
    ("l2", 0.4): (0.06633380755475571, 0.7706104531217028, 68, True),
    ("l2", 0.6): (0.053444677712133876, 0.3534550583071257, 103, True),
    ("l2", 0.8): (0.048318716458872916, 0.15183196387297893, 167, True),
    ("l2", 1.0): (0.050181067211302284, 0.05256246096338014, 230, True),
    ("l0", 0.2): (1118905.8438893645, 66839.47789193464, 15, False),
    ("l0", 0.4): (1032197.6289301214, 13875.725816616825, 29, False),
    ("l0", 0.6): (1326282.5261077266, 5120.996505350395, 57, False),
    ("l0", 0.8): (1018998.6855775719, 939.3569840559813, 136, False),
    ("l0", 1.0): (1.1077610691485127, 0.04551399317603033, 500, False),
}


@pytest.mark.parametrize("kind, m_over_n", sorted(PAPER_GRID_PREDICTIONS))
def test_predict_mse_pinned_on_paper_grid(kind, m_over_n):
    prior = SignalPrior(0.1)
    alpha = 1.0 / m_over_n
    s02 = ensemble_sigma0_sq(alpha, prior, 10.0)
    gamma = s02 / 2.0 if kind == "l2" else s02
    cfg = SystemConfig(alpha=alpha, prior=prior, penalty=Penalty(kind, gamma, s02), sigma_0_sq=s02)
    st = predict_mse(cfg)
    q0, kappa, iterations, converged = PAPER_GRID_PREDICTIONS[(kind, m_over_n)]
    assert st.q0 == pytest.approx(q0, rel=1e-12)
    assert st.kappa == pytest.approx(kappa, rel=1e-12)
    assert (st.iterations, st.converged) == (iterations, converged)


class TestCalibratedAgainstMonteCarlo:
    def test_l2_small_instance_cross_check(self):
        # one quick finite-N spot check; the full N=1000 version lives in the
        # acceptance suite
        rho, alpha = 0.1, 1.0
        s02 = alpha * rho / 10.0
        cfg = make_cfg("l2", alpha=alpha, rho=rho, gamma=s02 / 2.0, su2=s02,
                       sigma_0_sq=s02, channel=CALIBRATED)
        pred = rs_solve(cfg).q0
        rng = np.random.default_rng(0)
        N = M = 400
        mses = []
        for _ in range(12):
            A = rng.normal(0.0, 1.0 / math.sqrt(M), (M, N))
            x0 = np.where(rng.random(N) < rho, rng.normal(size=N), 0.0)
            y = A @ x0 + math.sqrt(s02) * rng.normal(size=M)
            xh = A.T @ np.linalg.solve(A @ A.T + s02 * np.eye(M), y)
            mses.append(np.mean((xh - x0) ** 2))
        assert np.mean(mses) == pytest.approx(pred, rel=0.08)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(alpha=-1.0)
    with pytest.raises(ValueError):
        make_cfg(damping=0.0)
    with pytest.raises(ValueError):
        make_cfg(tol=0.0)
    with pytest.raises(ValueError):
        make_cfg(channel="bogus")
    with pytest.raises(ValueError):
        make_cfg(sigma_0_sq=-0.5)
