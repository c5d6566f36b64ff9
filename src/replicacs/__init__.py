"""Replica fixed-point predictions and Monte Carlo validation for CS estimators."""

from .estimators import (
    EstimateReport,
    Instance,
    empirical_median_se,
    empirical_mse,
    estimate_l0,
    estimate_lasso,
    estimate_lmmse,
    estimate_ls,
)
from .montecarlo import SweepSpec, compare_replica, generate_instance, run_sweep
from .priors import Penalty, SignalPrior, penalty_value, sample_signal
from .quadrature import GaussHermiteRule, gauss_hermite_rule
from .rs import RsState, SystemConfig, predict_mse, rs_energy, rs_solve, rs_update
from .rsb import (
    RsbState,
    mu1_stationarity_residual,
    rsb_conjugates,
    rsb_energy,
    rsb_solve,
    rsb_update,
)
from .spectral import SpectralLaw, r_transform, r_transform_derivative

__all__ = [
    "EstimateReport",
    "GaussHermiteRule",
    "Instance",
    "Penalty",
    "RsState",
    "RsbState",
    "SignalPrior",
    "SpectralLaw",
    "SweepSpec",
    "SystemConfig",
    "compare_replica",
    "empirical_median_se",
    "empirical_mse",
    "estimate_l0",
    "estimate_lasso",
    "estimate_lmmse",
    "estimate_ls",
    "gauss_hermite_rule",
    "generate_instance",
    "mu1_stationarity_residual",
    "penalty_value",
    "predict_mse",
    "r_transform",
    "r_transform_derivative",
    "rs_energy",
    "rs_solve",
    "rs_update",
    "rsb_conjugates",
    "rsb_energy",
    "rsb_solve",
    "rsb_update",
    "run_sweep",
    "sample_signal",
]

__version__ = "0.1.0"
