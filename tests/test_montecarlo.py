import math

import numpy as np
import pytest

from replicacs.montecarlo import (
    PRESETS,
    SweepSpec,
    compare_replica,
    ensemble_sigma0_sq,
    generate_instance,
    rows_from_csv,
    run_sweep,
    sweep_to_csv,
)
from replicacs.priors import SignalPrior


class TestGenerateInstance:
    def test_infinite_snr_is_noiseless(self):
        inst = generate_instance(64, 32, SignalPrior(0.1), math.inf, seed=0)
        assert inst.sigma0 == 0.0
        np.testing.assert_allclose(inst.y, inst.A @ inst.x0)

    def test_zero_signal_is_pure_noise(self):
        inst = generate_instance(64, 32, SignalPrior(0.0), 10.0, seed=1)
        assert not inst.x0.any()
        np.testing.assert_allclose(inst.y, inst.sigma0 * inst.w)

    def test_matrix_scale(self):
        inst = generate_instance(2000, 1000, SignalPrior(0.1), 10.0, seed=2)
        assert inst.A.std() == pytest.approx(1.0 / math.sqrt(1000), rel=0.05)

    def test_empirical_snr_concentrates(self):
        # sigma0 is calibrated on ensemble average, so the check is on the
        # mean realized SNR; single instances fluctuate with the binomial
        # sparsity draw and can stray a couple of dB
        N, M, rho, snr = 1000, 500, 0.1, 10.0
        prior = SignalPrior(rho)
        got = []
        for seed in range(100):
            inst = generate_instance(N, M, prior, snr, seed=seed)
            sig = float(np.sum((inst.A @ inst.x0) ** 2))
            noi = float(np.sum((inst.sigma0 * inst.w) ** 2))
            got.append(10.0 * math.log10(sig / noi))
        assert abs(float(np.mean(got)) - snr) <= 0.5

    def test_deterministic(self):
        a = generate_instance(32, 16, SignalPrior(0.2), 10.0, seed=5)
        b = generate_instance(32, 16, SignalPrior(0.2), 10.0, seed=5)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.y, b.y)


class TestSpecValidation:
    def test_ratio_grid_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec(control="measurement_ratio", grid=(0.0, 0.5))
        with pytest.raises(ValueError):
            SweepSpec(control="sparsity_ratio", grid=(1.5,))

    def test_unknown_control(self):
        with pytest.raises(ValueError):
            SweepSpec(control="bananas", grid=(0.5,))

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            SweepSpec(control="gamma", grid=(0.1,), estimators=("omp",))

    def test_nonpositive_gamma_rejected(self):
        # lasso and l0 would raise on it inside every trial
        with pytest.raises(ValueError):
            SweepSpec(control="measurement_ratio", grid=(0.5,), gamma=0.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(control="gamma", grid=(0.1,), N=4)

    def test_presets(self):
        assert PRESETS["default"]["snr_db"] == 10.0
        assert PRESETS["paper_section4"]["snr_db"] == -10.0


def small_spec(**kw):
    base = dict(
        control="measurement_ratio",
        grid=(0.5, 1.0),
        N=48,
        trials=4,
        snr_db=10.0,
        estimators=("lmmse", "lasso"),
        seed=7,
        include_rsb=False,
    )
    base.update(kw)
    return SweepSpec(**base)


class TestRunSweep:
    def test_square_noiseless_ls_is_exact(self):
        spec = small_spec(control="measurement_ratio", grid=(1.0,), snr_db=math.inf,
                          estimators=("ls",), trials=3)
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].mse_mean < 1e-10

    def test_row_layout(self):
        spec = small_spec()
        rows = run_sweep(spec)
        assert len(rows) == len(spec.grid) * len(spec.estimators)
        assert [r.control for r in rows] == [0.5, 0.5, 1.0, 1.0]
        assert all(r.mse_mean >= 0.0 for r in rows)

    def test_determinism_bit_identical(self):
        spec = small_spec()
        a = sweep_to_csv(run_sweep(spec))
        b = sweep_to_csv(run_sweep(spec))
        assert a == b

    def test_jobs_do_not_change_results(self):
        spec = small_spec(trials=6)
        serial = sweep_to_csv(run_sweep(spec, jobs=1))
        parallel = sweep_to_csv(run_sweep(spec, jobs=4))
        assert serial == parallel

    def test_stderr_none_for_single_trial(self):
        spec = small_spec(trials=1, grid=(0.5,))
        assert all(r.mse_stderr is None for r in run_sweep(spec))

    def test_stderr_shrinks_like_root_trials(self):
        lo = run_sweep(small_spec(trials=25, grid=(0.5,), estimators=("lmmse",)))
        hi = run_sweep(small_spec(trials=100, grid=(0.5,), estimators=("lmmse",)))
        ratio = lo[0].mse_stderr / hi[0].mse_stderr
        # 1/sqrt(trials) scaling predicts 2; allow sampling slack
        assert 1.3 < ratio < 3.0

    def test_l2_gap_shrinks_with_system_size(self):
        # finite-size trend: |empirical - RS prediction| falls with N for the
        # strictly convex penalty, Wilcoxon-paired over seeds
        from scipy.stats import mannwhitneyu

        from replicacs.estimators import estimate_lmmse
        from replicacs.priors import Penalty
        from replicacs.rs import CALIBRATED, SystemConfig, rs_solve

        rho, alpha, seeds = 0.1, 1.0, 20
        s02 = alpha * rho / 10.0
        cfg = SystemConfig(alpha=alpha, prior=SignalPrior(rho),
                           penalty=Penalty("l2", s02 / 2.0, s02),
                           sigma_0_sq=s02, channel=CALIBRATED)
        pred = rs_solve(cfg).q0
        gaps = {}
        for N in (100, 300, 1000):
            vals = []
            for seed in range(seeds):
                inst = generate_instance(N, N, SignalPrior(rho), 10.0, seed=7000 + seed)
                mse = float(np.mean((estimate_lmmse(inst, s02).xhat - inst.x0) ** 2))
                vals.append(abs(mse - pred))
            gaps[N] = np.array(vals)
        # monotone medians across sizes; the rank test confirms the overall
        # decrease (adjacent sizes are too close for 20 independent seeds)
        assert np.median(gaps[300]) < np.median(gaps[100])
        assert np.median(gaps[1000]) < np.median(gaps[300])
        assert mannwhitneyu(gaps[1000], gaps[100], alternative="less").pvalue < 0.05

    def test_replica_columns_present_with_rsb(self):
        spec = small_spec(trials=2, grid=(0.5,), estimators=("lmmse",), include_rsb=True)
        row = run_sweep(spec)[0]
        assert row.rs_prediction is not None
        assert row.rsb_prediction is not None
        assert "rsb_collapsed" in row.flags

    def test_l2_rows_track_prediction_even_small_n(self):
        spec = small_spec(N=128, trials=24, grid=(0.5,), estimators=("lmmse",))
        row = run_sweep(spec)[0]
        assert row.rs_prediction == pytest.approx(row.mse_mean, rel=0.25)

    def test_estimator_bug_propagates(self, monkeypatch):
        # only numeric failures become <name>_failures=; a bug is not one
        import replicacs.montecarlo as mc

        def broken(inst, gamma):
            raise TypeError("estimator bug")

        monkeypatch.setattr(mc, "estimate_lasso", broken)
        with pytest.raises(TypeError, match="estimator bug"):
            run_sweep(small_spec(trials=1, grid=(0.5,), estimators=("lasso",)), jobs=1)

    def test_unconverged_estimates_flagged(self, monkeypatch):
        # an unconverged estimate is averaged in, and the row says how many
        import replicacs.montecarlo as mc
        from replicacs.estimators import EstimateReport

        def stalled(inst, gamma):
            return EstimateReport(xhat=np.zeros_like(inst.x0), objective=math.nan,
                                  certificate=math.inf, converged=False)

        monkeypatch.setattr(mc, "estimate_lasso", stalled)
        lmmse, lasso = run_sweep(small_spec(trials=3, grid=(0.5,)), jobs=1)
        assert "lasso_nonconv=3" in lasso.flags
        assert lasso.mse_mean > 0.0
        assert not any("nonconv" in f for f in lmmse.flags)


class TestCompareReplica:
    def test_relative_gap(self):
        spec = small_spec(N=96, trials=12, grid=(0.5,), estimators=("lmmse",))
        table = compare_replica(run_sweep(spec))
        assert len(table) == 1
        row = table[0]
        assert not row.absolute_gap
        assert row.gap == pytest.approx(
            (row.empirical - row.predicted) / row.predicted, abs=1e-15
        )

    def test_zero_prediction_switches_to_absolute(self):
        from replicacs.montecarlo import SweepRow

        row = compare_replica([SweepRow(0.5, "lasso", 0.0, None, 0.0, 0.0, None, ())])[0]
        assert row.absolute_gap
        assert row.gap == 0.0

    def test_missing_prediction_gives_none(self):
        from replicacs.montecarlo import SweepRow

        row = compare_replica([SweepRow(0.5, "lasso", 0.1, None, 0.1, None, None, ("rs_nonconv",))])[0]
        assert row.gap is None
        assert "rs_nonconv" in row.flags


class TestCsv:
    def test_round_trip_lossless(self):
        spec = small_spec(trials=3)
        want_rows = run_sweep(spec)
        rows = rows_from_csv(sweep_to_csv(want_rows))
        assert len(rows) == len(want_rows)
        for got, want in zip(rows, want_rows):
            assert got.control == want.control
            assert got.estimator == want.estimator
            assert got.mse_mean == want.mse_mean
            assert got.mse_stderr == want.mse_stderr
            assert got.median_se == want.median_se
            assert got.rs_prediction == want.rs_prediction
            assert got.rsb_prediction == want.rsb_prediction
            assert got.flags == want.flags

    def test_header_pinned(self):
        text = sweep_to_csv(run_sweep(small_spec(trials=1, grid=(0.5,))))
        assert text.splitlines()[0] == (
            "control,estimator,mse_mean,mse_stderr,median_se,rs_energy,rsb_energy,flags"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            rows_from_csv("control,estimator\n")


def test_sigma0_formula():
    prior = SignalPrior(0.1)
    # alpha rho / SNR with SNR = 10 at +10 dB
    assert ensemble_sigma0_sq(2.0, prior, 10.0) == pytest.approx(0.02)
    assert ensemble_sigma0_sq(2.0, prior, -10.0) == pytest.approx(2.0)
    assert ensemble_sigma0_sq(2.0, prior, math.inf) == 0.0
