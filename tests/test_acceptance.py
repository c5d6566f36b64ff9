"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion as it completes.
"""

import math
import time

import numpy as np
import pytest
from oracles import cd_lasso, empirical_spectral_moments, exhaustive_l0, rs_conjugates

from replicacs.estimators import (
    estimate_l0,
    estimate_lasso,
    estimate_lmmse,
    l0_objective,
    lasso_objective,
)
from replicacs.montecarlo import SweepSpec, generate_instance, run_sweep
from replicacs.priors import (
    Penalty,
    SignalPrior,
    minimize_scalar_cost,
    scalar_cost,
)
from replicacs.quadrature import gauss_hermite_rule
from replicacs.rs import (
    CALIBRATED,
    RsState,
    SystemConfig,
    rs_energy,
    rs_solve,
)
from replicacs.rsb import moment_residuals, mu1_stationarity_residual, rsb_energy, rsb_solve

RHO = 0.1
SNR_DB = 10.0
MN_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({detail})")


def matched_cfg(kind, alpha, gamma=None, **kw):
    s02 = alpha * RHO / 10.0 ** (SNR_DB / 10.0)
    return SystemConfig(
        alpha=alpha,
        prior=SignalPrior(RHO),
        penalty=Penalty(kind, s02 if gamma is None else gamma, s02),
        sigma_0_sq=s02,
        **kw,
    )


def test_criterion_01_spectral_law():
    t0 = time.time()
    mean, var = empirical_spectral_moments((1000, 500), seed=2024, n_trials=20)
    elapsed = time.time() - t0
    assert abs(mean - 1.0) <= 0.02 * 1.0
    assert abs(var - 0.5) <= 0.05 * 0.5
    assert elapsed < 30.0
    report(1, "spectral-law", f"mean={mean:.4f}, var={var:.4f}, {elapsed:.1f}s")


def test_criterion_02_quadrature_exactness():
    rule = gauss_hermite_rule(40)
    worst = 0.0
    for k in range(10):
        want = 0.0 if k % 2 else float(np.prod(np.arange(k - 1, 0, -2))) if k else 1.0
        got = math.fsum(rule.weights * rule.nodes**k)
        err = abs(got - want) / max(1.0, abs(want))
        assert err <= 1e-12, (k, got, want)
        worst = max(worst, err)
    a = 0.3
    Y, Z = rule.nodes[:, None], rule.nodes[None, :]
    W = rule.weights[:, None] * rule.weights[None, :]
    mgf = math.fsum((W * np.exp(a * (Y + Z))).ravel())
    assert abs(mgf - math.exp(a * a)) <= 1e-8
    report(2, "quadrature-exactness", f"worst moment err={worst:.1e}, mgf err={abs(mgf - math.exp(a * a)):.1e}")


def windowed_grid_argmin(pen, x0, s, e, grid, lo, step):
    """First index of the grid minimum of the scalar cost, as np.argmin gives it.

    The cost is a convex quadratic on each side of the breakpoint 0, so the
    grid argmin lies within a few steps of a piece's vertex or of 0, or is
    the appended 0.0 at the last index.  Only those points are evaluated;
    scanning them in index order keeps np.argmin's tie-break.
    """
    v = x0 - s / (2.0 * e)
    t = pen.lam / (2.0 * e)
    vertices = {"l0": [v], "l1": [v - t, v + t], "l2": [e * v / (e + pen.lam)]}[pen.kind]
    centres = np.clip(np.rint((np.array(vertices + [0.0]) - lo) / step), 0, len(grid) - 2)
    window = (centres[:, None] + np.arange(-3, 4)).ravel()  # +-3 grid points around each
    idx = np.unique(np.append(window, len(grid) - 1)).astype(int)
    idx = idx[(idx >= 0) & (idx < len(grid))]
    return int(idx[np.argmin(scalar_cost(pen, x0, grid[idx], s, e))])


def test_criterion_03_scalar_minimizers_vs_grid():
    lo, step = -10.0, 1e-5
    grid = np.concatenate([np.arange(lo, 10.0 + 1e-12, step), [0.0]])
    rng = np.random.default_rng(7)
    worst = 0.0
    case = 0
    for kind in ("l0", "l1", "l2"):
        for _ in range(1000):
            pen = Penalty(kind, rng.uniform(0.0, 2.0), rng.uniform(0.2, 2.0))
            x0 = rng.normal() * rng.uniform(0.2, 2.0)
            e = rng.uniform(0.2, 3.0)
            f1 = rng.uniform(0.0, 1.5)
            g1 = rng.uniform(0.0, 1.5)
            z, y = rng.normal(size=2)
            s = f1 * z + g1 * y
            xhat, _ = minimize_scalar_cost(pen, x0, s, e)
            i_min = windowed_grid_argmin(pen, x0, s, e, grid, lo, step)
            if case % 50 == 0:
                # the window must reproduce the brute-force argmin exactly
                assert i_min == int(np.argmin(scalar_cost(pen, x0, grid, s, e))), (kind, pen, x0, s, e)
            case += 1
            oracle = grid[i_min]
            gap = abs(xhat - oracle)
            assert gap <= 1.1e-5, (kind, pen, x0, s, e)
            worst = max(worst, gap)
    report(3, "scalar-minimizers-grid-oracle", f"worst |closed - grid| = {worst:.2e}")


def test_criterion_04_rs_lmmse_consistency():
    t0 = time.time()
    details = []
    for alpha, trials in ((0.5, 40), (1.0, 60), (2.0, 80)):
        s02 = alpha * RHO / 10.0 ** (SNR_DB / 10.0)
        gamma = s02  # matched: the estimator's ridge constant
        # MAP penalty x^2 at weight gamma/2 is exactly the ridge closed form
        cfg = matched_cfg("l2", alpha, gamma=gamma / 2.0, channel=CALIBRATED)
        pred = rs_solve(cfg)
        assert pred.converged
        N = 1000
        M = int(round(N / alpha))
        prior = SignalPrior(RHO)
        mses = []
        for seed in range(trials):
            inst = generate_instance(N, M, prior, SNR_DB, seed=40000 * int(alpha * 10) + seed)
            mses.append(np.mean((estimate_lmmse(inst, gamma).xhat - inst.x0) ** 2))
        emp = float(np.mean(mses))
        gap = abs(emp - pred.q0) / emp
        assert gap <= 0.03, (alpha, emp, pred.q0)
        details.append(f"a={alpha}: gap={gap:.2%}")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, "rs-lmmse-consistency", "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_05_rs_convergence_section4():
    details = []
    for mn in MN_GRID:
        cfg = matched_cfg("l1", 1.0 / mn, damping=0.5, tol=1e-10, max_iter=500)
        st = rs_solve(cfg)
        assert st.converged and st.residual < 1e-8 and st.iterations <= 500, mn
        rng = np.random.default_rng(int(mn * 1000))
        q_i, b_i = rng.uniform(0.01, 1.0), rng.uniform(0.001, 0.5)
        e_i, f_i = rs_conjugates(cfg, q_i, b_i)
        st2 = rs_solve(cfg, RsState(q0=q_i, b0=b_i, e0=e_i, f0=f_i))
        assert abs(st.q0 - st2.q0) <= 1e-6 and abs(st.b0 - st2.b0) <= 1e-6, mn
        details.append(f"{mn}:{st.iterations}it")
    report(5, "rs-convergence-section4", ", ".join(details))


def _convex_rsb_cases():
    cases = [("l2", 2.0)]
    cases += [("l1", 1.0 / mn) for mn in MN_GRID]
    return cases


def test_criterion_06_rsb_reduction_convex():
    details = []
    for kind, alpha in _convex_rsb_cases():
        cfg = matched_cfg(kind, alpha)
        st = rsb_solve(cfg)
        rs = rs_solve(cfg)
        e_rs = rs_energy(cfg, rs)
        if st.rsb_collapsed:
            assert abs(rsb_energy(cfg, st) - e_rs) < 1e-6
            details.append(f"{kind}@{alpha:.2g}:collapsed")
        else:
            assert abs(rsb_energy(cfg, st) - e_rs) <= 0.01 * abs(e_rs)
            details.append(f"{kind}@{alpha:.2g}:within1%")
    report(6, "rsb-reduction-convex", ", ".join(details))


def test_criterion_07_rsb_internal_consistency():
    checked = 0
    worst_m, worst_s = 0.0, 0.0
    for kind, alpha in _convex_rsb_cases() + [("l0", 1.0 / mn) for mn in MN_GRID]:
        cfg = matched_cfg(kind, alpha)
        st = rsb_solve(cfg)
        if not st.converged:
            continue
        res = moment_residuals(cfg, st)
        stat = abs(mu1_stationarity_residual(cfg, st))
        assert max(res) <= 1e-6, (kind, alpha, res)
        assert stat <= 1e-6, (kind, alpha, stat)
        worst_m = max(worst_m, max(res))
        worst_s = max(worst_s, stat)
        checked += 1
        if kind == "l0":
            rs = rs_solve(cfg)
            assert rsb_energy(cfg, st) >= rs_energy(cfg, rs) - 1e-8, (kind, alpha)
    assert checked >= 8
    report(7, "rsb-internal-consistency",
           f"{checked} states, worst moment defect {worst_m:.1e}, worst stationarity {worst_s:.1e}")


def test_criterion_08_fig1_l1_beats_l2():
    t0 = time.time()
    spec = SweepSpec(
        control="measurement_ratio",
        grid=MN_GRID,
        N=200,
        trials=200,
        snr_db=SNR_DB,
        estimators=("lmmse", "lasso"),
        seed=81,
        rho=RHO,
        include_rsb=False,
    )
    rows = run_sweep(spec, jobs=4)
    by_est = {(r.control, r.estimator): r.mse_mean for r in rows}
    details = []
    for mn in MN_GRID:
        l1 = by_est[(mn, "lasso")]
        l2 = by_est[(mn, "lmmse")]
        assert l1 <= l2, (mn, l1, l2)
        details.append(f"{mn}:{l1 / l2:.2f}")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(8, "fig1-l1-beats-l2", "L1/L2 ratios " + ", ".join(details) + f", {elapsed:.0f}s")


def test_criterion_09_fig2_lmmse_insensitive_to_sparsity():
    spec = SweepSpec(
        control="sparsity_ratio",
        grid=(0.2, 0.4, 0.6, 0.8, 1.0),
        N=100,
        trials=500,
        snr_db=SNR_DB,
        estimators=("lmmse", "lasso"),
        seed=92,
        m_over_n=0.5,
        include_rsb=False,
    )
    rows = run_sweep(spec, jobs=4)
    # the figure's normalized MSE: per-component error over per-component
    # signal power rho
    grid = np.array(spec.grid)
    nmse = {
        est: np.array([
            next(r.mse_mean for r in rows if r.estimator == est and r.control == g) / g
            for g in grid
        ])
        for est in ("lmmse", "lasso")
    }
    slope_l2 = abs(np.polyfit(grid, nmse["lmmse"], 1)[0])
    slope_l1 = abs(np.polyfit(grid, nmse["lasso"], 1)[0])
    assert slope_l2 < 0.20 * slope_l1, (slope_l2, slope_l1)
    report(9, "fig2-lmmse-sparsity-insensitive",
           f"|slope| LMMSE={slope_l2:.3f} vs L1={slope_l1:.3f} (ratio {slope_l2 / slope_l1:.2f})")


def test_criterion_10_lasso_certificate_and_cd_oracle():
    rng = np.random.default_rng(10)
    worst_cert, worst_gap = 0.0, 0.0
    for trial in range(100):
        M, N = 30, 60
        inst = generate_instance(N, M, SignalPrior(RHO), SNR_DB, seed=rng.integers(1 << 31))
        gamma = max(inst.sigma0**2, 1e-3)
        rep = estimate_lasso(inst, gamma, cert_tol=1e-7)
        assert rep.certificate <= 1e-6
        x_cd = cd_lasso(inst.A, inst.y, gamma, sweeps=6000)
        gap = abs(rep.objective - lasso_objective(inst, x_cd, gamma))
        assert gap <= 1e-8, (trial, gap)
        worst_cert = max(worst_cert, rep.certificate)
        worst_gap = max(worst_gap, gap)
    report(10, "lasso-kkt-and-cd-oracle",
           f"100 instances, worst certificate {worst_cert:.1e}, worst objective gap {worst_gap:.1e}")


def test_criterion_11_exact_l0_oracle():
    rng = np.random.default_rng(11)
    dominated = 0
    for _ in range(100):
        N = int(rng.integers(8, 13))
        M = int(rng.integers(6, 11))
        inst = generate_instance(N, M, SignalPrior(0.2), SNR_DB, seed=rng.integers(1 << 31))
        gamma = max(inst.sigma0**2, 1e-3)
        iht = estimate_l0(inst, gamma)
        ex = l0_objective(inst, exhaustive_l0(inst, gamma), gamma)
        assert ex <= iht.objective + 1e-9
        dominated += 1
    # easy instances: noiseless, exactly one active coordinate
    hits = 0
    easy_total = 50
    for k in range(easy_total):
        rng_k = np.random.default_rng(1100 + k)
        N, M = 12, 8
        A = rng_k.normal(0.0, 1.0 / math.sqrt(M), (M, N))
        x0 = np.zeros(N)
        x0[rng_k.integers(N)] = rng_k.normal() + math.copysign(0.5, rng_k.normal())
        from replicacs.estimators import Instance

        inst = Instance(A=A, x0=x0, w=np.zeros(M), y=A @ x0, sigma0=0.0)
        iht = estimate_l0(inst, 0.05)
        ex = l0_objective(inst, exhaustive_l0(inst, 0.05), 0.05)
        if abs(iht.objective - ex) <= 1e-9:
            hits += 1
    rate = hits / easy_total
    assert rate >= 0.60, rate
    report(11, "exact-l0-oracle", f"dominance {dominated}/100, easy-instance match rate {rate:.0%}")


def test_criterion_12_determinism(tmp_path):
    cfg_text = (
        "rho = 0.1\n"
        "[sweep]\n"
        "control = measurement_ratio\n"
        "grid = 0.5, 1.0\n"
        "n = 64\n"
        "trials = 8\n"
        "estimators = lmmse,lasso\n"
        "include_rsb = false\n"
    )
    cfg_path = tmp_path / "determinism.cfg"
    cfg_path.write_text(cfg_text)
    from replicacs.cli import main

    outputs = []
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"{tag}.csv"
        code = main(["simulate", "--config", str(cfg_path), "--seed", "123",
                     "--jobs", jobs, "--output", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "reruns differ"
    assert outputs[0] == outputs[2], "--jobs changed the output"
    report(12, "determinism", f"{len(outputs[0])} bytes, identical across reruns and jobs 1 vs 8")
