"""Finite-size experiment harness pairing empirical sweeps with replica predictions.

A sweep runs independent trials per grid point of one control parameter
(measurement ratio M/N, sparsity ratio k/N, or the penalty weight gamma),
runs the requested estimators on each sampled instance, and attaches the
replica predictions computed once per grid point.  Per-trial RNG streams
derive from (seed, grid index, trial index), so serial and parallel
execution produce identical results.

The replica prediction columns carry the predicted per-component MSE: the
RS column from the calibrated (noise-consistent) channel, and the 1RSB
column from the block solver when it genuinely breaks symmetry, falling
back to the RS value when it collapses (a collapsed 1RSB solution *is* the
RS solution).  Column names in the CSV schema keep the historical
``rs_energy``/``rsb_energy`` labels.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    Instance,
    empirical_median_se,
    empirical_mse,
    estimate_l0,
    estimate_lasso,
    estimate_lmmse,
    estimate_ls,
)
from .priors import Penalty, SignalPrior, sample_signal
from .rs import CALIBRATED, SystemConfig, rs_solve
from .rsb import rsb_solve

CONTROLS = ("measurement_ratio", "sparsity_ratio", "gamma")
ESTIMATORS = ("ls", "lmmse", "lasso", "l0")

#: Named experiment presets; the paper_section4 preset records the printed
#: -10 dB signal-to-noise figure, the default is the +10 dB reading.
PRESETS = {
    "default": {"snr_db": 10.0},
    "paper_section4": {"snr_db": -10.0},
}


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep."""

    control: str
    grid: tuple[float, ...]
    N: int = 200
    trials: int = 200
    snr_db: float = 10.0
    estimators: tuple[str, ...] = ("lmmse", "lasso")
    seed: int = 0
    rho: float = 0.1
    m_over_n: float = 0.5
    gamma: float | None = None
    include_rsb: bool = True

    def __post_init__(self) -> None:
        if self.control not in CONTROLS:
            raise ValueError(f"control must be one of {CONTROLS}, got {self.control!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if self.control in ("measurement_ratio", "sparsity_ratio"):
            if not all(0.0 < g <= 1.0 for g in self.grid):
                raise ValueError(f"ratio controls need grid values in (0, 1], got {self.grid}")
        elif not all(g > 0.0 for g in self.grid):
            raise ValueError(f"gamma grid values must be positive, got {self.grid}")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.N < 8:
            raise ValueError(f"N must be >= 8, got {self.N}")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}; choose from {ESTIMATORS}")


@dataclass
class SweepRow:
    control: float
    estimator: str
    mse_mean: float
    mse_stderr: float | None
    median_se: float
    rs_prediction: float | None
    rsb_prediction: float | None
    flags: tuple[str, ...] = ()


#: (CSV/JSON column, SweepRow attribute) of each sweep field, in output order
SWEEP_FIELDS = (
    ("control", "control"),
    ("estimator", "estimator"),
    ("mse_mean", "mse_mean"),
    ("mse_stderr", "mse_stderr"),
    ("median_se", "median_se"),
    ("rs_energy", "rs_prediction"),
    ("rsb_energy", "rsb_prediction"),
    ("flags", "flags"),
)
CSV_HEADER = ",".join(col for col, _ in SWEEP_FIELDS)


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow] = field(default_factory=list)


def ensemble_sigma0_sq(alpha: float, prior: SignalPrior, snr_db: float) -> float:
    """Noise variance hitting the target SNR on ensemble average.

    Each measurement carries signal power E[(A x0)_i^2] = alpha rho
    active_variance, so sigma_0^2 = alpha rho av / 10^(snr/10); an infinite
    SNR gives exactly zero noise.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return alpha * prior.second_moment / 10.0 ** (snr_db / 10.0)


def generate_instance(N: int, M: int, prior: SignalPrior, snr_db: float, seed) -> Instance:
    """Sample A ~ iid N(0, 1/M), x0 from the prior, and y = A x0 + sigma0 w."""
    if N < 1 or M < 1:
        raise ValueError(f"need positive dims, got N={N}, M={M}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    alpha = N / M
    sigma0 = math.sqrt(ensemble_sigma0_sq(alpha, prior, snr_db))
    A = rng.normal(0.0, 1.0 / math.sqrt(M), size=(M, N))
    x0 = sample_signal(prior, N, rng)
    w = rng.normal(size=M)
    return Instance(A=A, x0=x0, w=w, y=A @ x0 + sigma0 * w, sigma0=sigma0)


@dataclass(frozen=True)
class _GridPoint:
    control: float
    M: int
    rho: float
    gamma: float
    sigma0_sq: float
    snr_db: float


def _grid_point(spec: SweepSpec, value: float) -> _GridPoint:
    if spec.control == "measurement_ratio":
        M = max(1, round(value * spec.N))
        rho = spec.rho
        gamma = spec.gamma
    elif spec.control == "sparsity_ratio":
        M = max(1, round(spec.m_over_n * spec.N))
        rho = value
        gamma = spec.gamma
    else:
        M = max(1, round(spec.m_over_n * spec.N))
        rho = spec.rho
        gamma = value
    alpha = spec.N / M
    sigma0_sq = ensemble_sigma0_sq(alpha, SignalPrior(rho), spec.snr_db)
    if gamma is None:
        gamma = sigma0_sq if sigma0_sq > 0 else 1e-3
    return _GridPoint(
        control=value, M=M, rho=rho, gamma=gamma, sigma0_sq=sigma0_sq, snr_db=spec.snr_db
    )


# MAP penalty matching each estimator.  The L2 closed form
# A^T (A A^T + gamma I)^{-1} y solves the MAP problem with penalty weight
# gamma/2 because the per-component penalty is x^2, not x^2/2.
def _estimator_penalty(name: str, gp: _GridPoint) -> Penalty | None:
    su2 = gp.sigma0_sq if gp.sigma0_sq > 0 else 1.0
    if name == "lmmse":
        return Penalty("l2", gp.gamma / 2.0, su2)
    if name == "lasso":
        return Penalty("l1", gp.gamma, su2)
    if name == "l0":
        return Penalty("l0", gp.gamma, su2)
    if name == "ls":
        return Penalty("l2", 0.0, su2)
    return None


def _replica_columns(spec: SweepSpec, gp: _GridPoint, name: str):
    penalty = _estimator_penalty(name, gp)
    flags: list[str] = []
    alpha = spec.N / gp.M
    cfg = SystemConfig(
        alpha=alpha,
        prior=SignalPrior(gp.rho),
        penalty=penalty,
        sigma_0_sq=gp.sigma0_sq,
        channel=CALIBRATED,
    )
    rs_state = rs_solve(cfg)
    rs_pred: float | None = rs_state.q0
    if not rs_state.converged:
        flags.append("rs_nonconv")
        rs_pred = None
    rsb_pred: float | None = None
    if spec.include_rsb and rs_pred is not None and name != "ls":
        rsb_state = rsb_solve(replace(cfg, channel="bare"))
        if rsb_state.rsb_collapsed:
            flags.append("rsb_collapsed")
            rsb_pred = rs_pred
        elif rsb_state.converged:
            flags.append("rsb_bare_channel")
            rsb_pred = rsb_state.q1 + rsb_state.p1
        else:
            flags.append("rsb_nonconv")
    return rs_pred, rsb_pred, flags


def _run_trial(payload) -> dict[str, tuple[float, bool] | None]:
    """One instance, all requested estimators: (squared error, converged) each.

    Numeric failures become None.
    """
    (N, M, rho, snr_db, gamma, names, seed_key) = payload
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    inst = generate_instance(N, M, SignalPrior(rho), snr_db, rng)
    out: dict[str, tuple[float, bool] | None] = {}
    for name in names:
        try:
            if name == "ls":
                rep = estimate_ls(inst)
            elif name == "lmmse":
                rep = estimate_lmmse(inst, gamma)
            elif name == "lasso":
                rep = estimate_lasso(inst, gamma)
            else:
                rep = estimate_l0(inst, gamma)
            out[name] = (empirical_mse(inst.x0, rep.xhat), bool(rep.converged))
        except (ArithmeticError, np.linalg.LinAlgError):
            out[name] = None
    return out


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Execute the sweep; deterministic for any jobs value given the seed.

    Unconverged estimates are averaged in and counted in a
    ``<name>_nonconv=k`` flag; numeric failures are left out and counted in
    ``<name>_failures=k``.
    """
    result = SweepResult(spec=spec)
    points = [_grid_point(spec, value) for value in spec.grid]
    payloads = [
        (spec.N, gp.M, gp.rho, gp.snr_db, gp.gamma, spec.estimators, (spec.seed, gi, ti))
        for gi, gp in enumerate(points)
        for ti in range(spec.trials)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            trials = list(pool.map(_run_trial, payloads, chunksize=8))
    else:
        trials = [_run_trial(p) for p in payloads]

    for gi, (value, gp) in enumerate(zip(spec.grid, points)):
        trial_results = trials[gi * spec.trials:(gi + 1) * spec.trials]
        for name in spec.estimators:
            ests = [tr[name] for tr in trial_results if tr[name] is not None]
            good = np.array([se for se, _ in ests], dtype=float)
            n_fail = len(trial_results) - len(ests)
            n_nonconv = sum(1 for _, converged in ests if not converged)
            rs_pred, rsb_pred, flags = _replica_columns(spec, gp, name)
            if n_fail:
                flags.append(f"{name}_failures={n_fail}")
            if n_nonconv:
                flags.append(f"{name}_nonconv={n_nonconv}")
            if good.size == 0:
                row = SweepRow(value, name, math.nan, None, math.nan,
                               rs_pred, rsb_pred, tuple(flags))
            else:
                stderr = (
                    float(good.std(ddof=1) / math.sqrt(good.size)) if good.size >= 2 else None
                )
                row = SweepRow(
                    control=value,
                    estimator=name,
                    mse_mean=float(good.mean()),
                    mse_stderr=stderr,
                    median_se=empirical_median_se(good),
                    rs_prediction=rs_pred,
                    rsb_prediction=rsb_pred,
                    flags=tuple(flags),
                )
            result.rows.append(row)
    return result


@dataclass
class ComparisonRow:
    control: float
    estimator: str
    empirical: float
    predicted: float | None
    gap: float | None
    absolute_gap: bool
    flags: tuple[str, ...]


def compare_replica(sweep: SweepResult) -> list[ComparisonRow]:
    """Relative (empirical - predicted)/predicted gap per row, guarded."""
    out = []
    for row in sweep.rows:
        pred = row.rs_prediction
        if pred is None:
            out.append(ComparisonRow(row.control, row.estimator, row.mse_mean,
                                     None, None, False, row.flags))
            continue
        if abs(pred) < 1e-12:
            gap = row.mse_mean - pred
            out.append(ComparisonRow(row.control, row.estimator, row.mse_mean,
                                     pred, gap, True, row.flags))
        else:
            gap = (row.mse_mean - pred) / pred
            out.append(ComparisonRow(row.control, row.estimator, row.mse_mean,
                                     pred, gap, False, row.flags))
    return out


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ";".join(value)
    return _fmt(value)


def _parse_cell(attr: str, text: str):
    if attr == "estimator":
        return text
    if attr == "flags":
        return tuple(f for f in text.split(";") if f)
    return None if text == "" else float(text)


def sweep_to_csv(result: SweepResult) -> str:
    """Stable-schema CSV; numbers at 17 significant digits, locale-free."""
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join(_cell(getattr(r, attr)) for _, attr in SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[SweepRow]:
    """Parse sweep_to_csv output back into rows (lossless round-trip)."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(SWEEP_FIELDS):
            raise ValueError(f"malformed CSV row: {ln!r}")
        rows.append(SweepRow(**{
            attr: _parse_cell(attr, cell) for (_, attr), cell in zip(SWEEP_FIELDS, parts)
        }))
    return rows


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    lines = ["control,estimator,empirical,predicted,gap,absolute_gap,flags"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.control),
                    r.estimator,
                    _fmt(r.empirical),
                    _fmt(r.predicted),
                    _fmt(r.gap),
                    "1" if r.absolute_gap else "0",
                    ";".join(r.flags),
                ]
            )
        )
    return "\n".join(lines) + "\n"
