import math

import pytest

from replicacs.priors import Penalty, SignalPrior
from replicacs.rs import SystemConfig, rs_energy, rs_solve
from replicacs.rsb import (
    HS_SCALE,
    InconsistentStateError,
    RsbState,
    moment_residuals,
    mu1_stationarity_residual,
    rsb_conjugates,
    rsb_energy,
    rsb_solve,
    rsb_update,
)


def make_cfg(kind="l1", alpha=2.5, rho=0.1, gamma_mult=1.0, quad_order=40, **kw):
    s02 = alpha * rho / 10.0
    return SystemConfig(
        alpha=alpha,
        prior=SignalPrior(rho),
        penalty=Penalty(kind, gamma_mult * s02, s02),
        sigma_0_sq=s02,
        quad_order=quad_order,
        **kw,
    )


EXOTIC = dict(kind="l0", alpha=2.0, gamma_mult=30.0, quad_order=32)


class TestConjugates:
    def test_p1_zero_collapses_y_channel(self):
        cfg = make_cfg()
        e1, g1, f1 = rsb_conjugates(cfg, 0.3, 0.0, 0.01, 2.0)
        assert g1 == 0.0
        assert e1 > 0.0

    def test_pinned_arithmetic(self):
        # b1 = 0, mu1 p1 = su2 at alpha = 1/2: bracket = R(0) - R(-1) = 1/3
        cfg = SystemConfig(
            alpha=0.5, prior=SignalPrior(0.1), penalty=Penalty("l1", 1.0, 1.0),
            sigma_0_sq=0.1,
        )
        for mu1 in (0.5, 2.0):
            e1, g1, f1 = rsb_conjugates(cfg, 0.2, 1.0 / mu1, 0.0, mu1)
            assert e1 == pytest.approx(1.0, abs=1e-15)
            assert g1 == pytest.approx(math.sqrt(1.0 / (3.0 * mu1)), abs=1e-12)

    def test_q1_zero_kills_f1(self):
        cfg = make_cfg()
        assert rsb_conjugates(cfg, 0.0, 0.1, 0.01, 1.0)[2] == 0.0

    def test_f1_conjugate_formula(self):
        from replicacs.spectral import r_transform_derivative

        cfg = make_cfg()
        su2 = cfg.penalty.sigma_u2
        q1, p1, b1, mu1 = 0.04, 0.01, 0.005, 2.0
        _, _, f1 = rsb_conjugates(cfg, q1, p1, b1, mu1)
        want = math.sqrt(q1 * r_transform_derivative(cfg.law, -(b1 + mu1 * p1) / su2)) / su2
        assert f1 == pytest.approx(want, abs=1e-15)

    def test_negative_bracket_rejected(self):
        cfg = make_cfg()
        # p1 < 0 territory: the bracket under the g1 root goes negative
        with pytest.raises(InconsistentStateError):
            rsb_conjugates(cfg, 0.1, -0.005, 0.05, 2.0)
        with pytest.raises(InconsistentStateError):
            rsb_conjugates(cfg, 0.1, -0.05, 0.05, 2.0)


class TestEnergy:
    def test_zero_state(self):
        cfg = make_cfg()
        st = RsbState(q1=0.0, p1=0.0, b1=0.0, mu1=2.0)
        assert rsb_energy(cfg, st) == 0.0

    def test_q1_b1_zero_leaves_p1_term(self):
        cfg = SystemConfig(
            alpha=0.5, prior=SignalPrior(0.1), penalty=Penalty("l1", 1.0, 1.0),
            sigma_0_sq=0.1,
        )
        st = RsbState(q1=0.0, p1=0.5, b1=0.0, mu1=2.0)
        from replicacs.spectral import r_transform

        want = 0.5 * r_transform(cfg.law, -1.0)
        assert rsb_energy(cfg, st) == pytest.approx(want, abs=1e-15)

    def test_pinned_arithmetic(self):
        # alpha = 1/2, su2 = 1, (q1, p1, b1, mu1) = (1, 0.5, 1, 2):
        # B = 2, R(-2) = 1/2, R(-1) = 2/3, R'(-2) = 1/8
        # E = 2 * 1/2 - (1/2)(2/3) - 1 * 2 * 1/8 = 5/12
        cfg = SystemConfig(
            alpha=0.5, prior=SignalPrior(0.1), penalty=Penalty("l1", 1.0, 1.0),
            sigma_0_sq=0.1,
        )
        st = RsbState(q1=1.0, p1=0.5, b1=1.0, mu1=2.0)
        assert rsb_energy(cfg, st) == pytest.approx(5.0 / 12.0, abs=1e-14)

    def test_p1_zero_reduces_to_rs_energy_exactly(self):
        # the b1/mu1 terms cancel identically at p1 = 0, any block size
        from replicacs.rs import RsState

        cfg = make_cfg()
        for q, b, mu in [(0.2, 0.01, 0.5), (1.0, 0.3, 7.0), (0.05, 0.001, 100.0)]:
            st = RsbState(q1=q, p1=0.0, b1=b, mu1=mu)
            rs_st = RsState(q0=q, b0=b, e0=1.0, f0=1.0)
            assert rsb_energy(cfg, st) == pytest.approx(rs_energy(cfg, rs_st), rel=1e-14)


class TestStationarityResidual:
    def test_cancels_identically_at_p1_zero(self):
        # collapsed blocks make every mu1 stationary; the log terms cancel
        # the algebraic ones exactly
        for kind in ("l0", "l1", "l2"):
            cfg = make_cfg(kind, quad_order=24)
            rs = rs_solve(cfg)
            q = max(rs.q0, 1e-3)
            for mu1 in (0.01, 1.0, 50.0):
                st = RsbState(q1=q, p1=0.0, b1=max(rs.b0, 1e-4), mu1=mu1)
                assert abs(mu1_stationarity_residual(cfg, st)) < 1e-12, (kind, mu1)

    def test_requires_positive_mu1(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            mu1_stationarity_residual(cfg, RsbState(q1=0.1, p1=0.0, b1=0.01, mu1=0.0))


class TestUpdate:
    def test_fixed_point_is_stationary(self):
        cfg = make_cfg("l1", tol=1e-11)
        rs = rs_solve(cfg)
        st = RsbState(q1=rs.q0, p1=0.1 * rs.q0, b1=rs.b0, mu1=1.0)
        for _ in range(400):
            st = rsb_update(cfg, st)
            if st.converged:
                break
        assert st.converged
        out = rsb_update(cfg, st)
        assert abs(out.q1 - st.q1) < 10 * cfg.tol
        assert abs(out.b1 - st.b1) < 10 * cfg.tol
        assert out.p1 < 1e-9

    def test_g1_zero_reduces_to_rs_marginals(self):
        # with the y channel off and q1 = q0, the sqrt(2) f1 disturbance
        # equals the RS f0, so the moment updates match the RS right-hand
        # sides
        from oracles import rs_conjugates

        from replicacs.rs import _bare_moments

        cfg = make_cfg("l1", alpha=1.0, quad_order=40)
        rs = rs_solve(cfg)
        e0, f0 = rs_conjugates(cfg, rs.q0, rs.b0)
        q_rhs, b_num = _bare_moments(cfg, e0, f0)
        st = RsbState(q1=rs.q0, p1=0.0, b1=rs.b0, mu1=1e-6)
        out = rsb_update(cfg, st)
        assert out.q1 + out.p1 == pytest.approx(q_rhs, abs=1e-6)
        assert out.b1 == pytest.approx(b_num / f0, abs=1e-6)

    def test_hs_scale_is_sqrt_two(self):
        assert HS_SCALE == pytest.approx(math.sqrt(2.0))


class TestSolve:
    def test_l2_collapses_to_rs(self):
        cfg = make_cfg("l2", alpha=2.0)
        st = rsb_solve(cfg)
        rs = rs_solve(cfg)
        assert st.rsb_collapsed
        assert st.converged
        assert abs(rsb_energy(cfg, st) - rs_energy(cfg, rs)) < 1e-6

    def test_l1_matches_rs_within_one_percent(self):
        cfg = make_cfg("l1", alpha=2.5)
        st = rsb_solve(cfg)
        rs = rs_solve(cfg)
        e_rsb, e_rs = rsb_energy(cfg, st), rs_energy(cfg, rs)
        assert st.rsb_collapsed or abs(e_rsb - e_rs) <= 0.01 * abs(e_rs)
        assert abs(st.q1 + st.p1 - rs.q0) <= 0.01 * max(rs.q0, 1e-12)
        assert abs(st.b1 + st.mu1 * st.p1 - rs.b0) <= 0.01 * max(rs.b0, 1e-12)

    def test_collapse_reduction_invariant(self):
        for kind in ("l0", "l1", "l2"):
            cfg = make_cfg(kind, alpha=2.0, quad_order=24)
            st = rsb_solve(cfg)
            if st.rsb_collapsed:
                rs = rs_solve(cfg)
                assert abs(rsb_energy(cfg, st) - rs_energy(cfg, rs)) < 1e-6

    def test_exotic_l0_finds_broken_symmetry(self):
        cfg = make_cfg(**EXOTIC)
        st = rsb_solve(cfg)
        assert not st.rsb_collapsed
        assert st.p1 > 1e-4
        # the moment system the update drives is satisfied tightly; the
        # y-moment and the stationarity sit at the quadrature floor
        # of the discontinuous penalty, so the state is honestly unconverged
        r_z, r_y, r_q = moment_residuals(cfg, st)
        assert r_z < 1e-8
        assert r_q < 1e-8
        assert r_y < 1e-3
        assert not st.converged

    def test_l0_matched_energy_ordering(self):
        # matched weights collapse, so the 1RSB energy equals RS on the grid
        for mn in (0.2, 0.6, 1.0):
            cfg = make_cfg("l0", alpha=1.0 / mn, quad_order=24)
            st = rsb_solve(cfg)
            rs = rs_solve(cfg)
            assert rsb_energy(cfg, st) >= rs_energy(cfg, rs) - 1e-8

    def test_explicit_init_respected(self):
        cfg = make_cfg(**EXOTIC)
        init = RsbState(q1=0.02, p1=0.002, b1=0.002, mu1=1.0)
        st = rsb_solve(cfg, init)
        assert st.p1 >= 0.0
