"""Command-line surface: config parsing, the four verbs, result emission.

Exit codes: 0 success, 1 configuration error, 2 numeric error,
3 non-convergence.  Diagnostics go to stderr, data to stdout or to the
configured output path (written atomically via temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

from numpy.linalg import LinAlgError

from . import montecarlo as mc
from .priors import PENALTY_KINDS, Penalty, SignalPrior
from .rs import BARE, SystemConfig, predict_mse, rs_energy, rs_solve
from .rsb import rsb_energy, rsb_solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_NONCONV = 3

_SCHEMA = {
    "system": {
        "alpha", "rho", "active_variance", "penalty", "gamma", "sigma_u2",
        "sigma_0_sq", "snr_db", "preset", "quad_order", "damping", "tol",
        "max_iter", "channel",
    },
    "sweep": {
        "control", "grid", "n", "trials", "estimators", "seed", "m_over_n",
        "include_rsb",
    },
    "output": {"path", "format", "input"},
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated key-value document with section structure."""

    values: dict[str, dict[str, str]] = field(default_factory=dict)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.values.get(section, {}).get(key, default)

    def set(self, section: str, key: str, value: str) -> None:
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        self.values.setdefault(section, {})[key] = value


def _parse_text(text: str, origin: str) -> RunConfig:
    cfg = RunConfig()
    seen: dict[tuple[str, str], int] = {}
    section = "system"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"{origin}:{lineno}: unknown key {section}.{key}")
        if (section, key) in seen:
            raise ConfigError(
                f"{origin}:{lineno}: duplicate key {section}.{key} "
                f"(first defined at line {seen[(section, key)]})"
            )
        seen[(section, key)] = lineno
        cfg.values.setdefault(section, {})[key] = value
    return cfg


def parse_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Load the config file (if any) and apply --set section.key=value overrides."""
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            cfg = _parse_text(fh.read(), path)
    else:
        cfg = RunConfig()
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if "." in key:
            section, key = key.split(".", 1)
        else:
            section = "system"
        cfg.set(section, key.strip(), value.strip())
    return cfg


def _float(cfg: RunConfig, section: str, key: str, default: float | None) -> float | None:
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc


def _int(cfg: RunConfig, section: str, key: str, default: int) -> int:
    raw = cfg.get(section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc


def _bool(cfg: RunConfig, section: str, key: str, default: bool) -> bool:
    raw = cfg.get(section, key)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ConfigError(f"{section}.{key} must be boolean, got {raw!r}")


def _snr_db(cfg: RunConfig) -> float:
    preset = cfg.get("system", "preset", "default")
    if preset not in mc.PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(mc.PRESETS)}")
    return _float(cfg, "system", "snr_db", mc.PRESETS[preset]["snr_db"])


def build_system_config(cfg: RunConfig) -> SystemConfig:
    alpha = _float(cfg, "system", "alpha", None)
    if alpha is None:
        raise ConfigError("system.alpha is required for solver verbs")
    rho = _float(cfg, "system", "rho", 0.1)
    av = _float(cfg, "system", "active_variance", 1.0)
    try:
        prior = SignalPrior(rho=rho, active_variance=av)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kind = cfg.get("system", "penalty", "l1")
    if kind not in PENALTY_KINDS:
        raise ConfigError(f"system.penalty must be one of {PENALTY_KINDS}, got {kind!r}")
    snr_db = _snr_db(cfg)
    sigma_0_sq = _float(cfg, "system", "sigma_0_sq", None)
    if sigma_0_sq is None:
        sigma_0_sq = mc.ensemble_sigma0_sq(alpha, prior, snr_db)
    sigma_u2 = _float(cfg, "system", "sigma_u2", None)
    gamma = _float(cfg, "system", "gamma", None)
    if gamma is None:
        gamma = mc.matched_gamma(sigma_0_sq) if sigma_u2 is None else sigma_u2
    if sigma_u2 is None:
        sigma_u2 = sigma_0_sq if sigma_0_sq > 0 else 1.0
    channel = cfg.get("system", "channel", BARE)
    try:
        penalty = Penalty(kind=kind, gamma=gamma, sigma_u2=sigma_u2)
        return SystemConfig(
            alpha=alpha,
            prior=prior,
            penalty=penalty,
            sigma_0_sq=sigma_0_sq,
            quad_order=_int(cfg, "system", "quad_order", 40),
            damping=_float(cfg, "system", "damping", 0.5),
            tol=_float(cfg, "system", "tol", 1e-10),
            max_iter=_int(cfg, "system", "max_iter", 500),
            channel=channel,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_sweep_spec(cfg: RunConfig, seed: int) -> mc.SweepSpec:
    control = cfg.get("sweep", "control")
    grid_raw = cfg.get("sweep", "grid")
    if control is None or grid_raw is None:
        raise ConfigError("sweep.control and sweep.grid are required for simulate/compare")
    try:
        grid = tuple(float(tok) for tok in grid_raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep.grid must be a comma list of numbers, got {grid_raw!r}") from exc
    est_raw = cfg.get("sweep", "estimators", "lmmse,lasso")
    estimators = tuple(tok.strip() for tok in est_raw.split(",") if tok.strip())
    try:
        return mc.SweepSpec(
            control=control,
            grid=grid,
            N=_int(cfg, "sweep", "n", 200),
            trials=_int(cfg, "sweep", "trials", 200),
            snr_db=_snr_db(cfg),
            estimators=estimators,
            seed=seed,
            rho=_float(cfg, "system", "rho", 0.1),
            m_over_n=_float(cfg, "sweep", "m_over_n", 0.5),
            gamma=_float(cfg, "system", "gamma", None),
            include_rsb=_bool(cfg, "sweep", "include_rsb", True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".replicacs-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, data: str, out_override: str | None) -> None:
    path = out_override or cfg.get("output", "path")
    if path:
        atomic_write(path, data)
    else:
        sys.stdout.write(data)


def _json_safe(doc):
    """Valid JSON needs non-finite floats spelled out as strings."""
    if isinstance(doc, dict):
        return {k: _json_safe(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_json_safe(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return repr(doc)
    return doc


def _run_rs_solve(cfg: RunConfig, args) -> int:
    sys_cfg = build_system_config(cfg)
    state = rs_solve(sys_cfg)
    doc = state.as_dict()
    doc["energy"] = rs_energy(sys_cfg, state)
    if sys_cfg.channel == BARE:
        pred = predict_mse(sys_cfg)
        doc["mse_prediction"] = pred.q0 if pred.converged else None
    else:
        doc["mse_prediction"] = doc["q0"] if state.converged else None
    _emit(cfg, json.dumps(_json_safe(doc), indent=2) + "\n", args.output)
    return EXIT_OK if state.converged else EXIT_NONCONV


def _run_rsb_solve(cfg: RunConfig, args) -> int:
    sys_cfg = build_system_config(cfg)
    state = rsb_solve(sys_cfg)
    doc = state.as_dict()
    doc["energy"] = rsb_energy(sys_cfg, state)
    _emit(cfg, json.dumps(_json_safe(doc), indent=2) + "\n", args.output)
    return EXIT_OK if state.converged else EXIT_NONCONV


def _sweep_rows(result: mc.SweepResult) -> list[dict]:
    # json writes the flags tuple as a list
    return [{col: getattr(r, attr) for col, attr in mc.SWEEP_FIELDS} for r in result.rows]


def _run_simulate(cfg: RunConfig, args) -> int:
    spec = build_sweep_spec(cfg, args.resolved_seed)
    result = mc.run_sweep(spec, jobs=args.jobs)
    fmt = args.format or cfg.get("output", "format", "csv")
    if fmt == "csv":
        data = mc.sweep_to_csv(result)
    else:
        data = json.dumps(_json_safe(_sweep_rows(result)), indent=2) + "\n"
    _emit(cfg, data, args.output)
    return EXIT_OK


def _run_compare(cfg: RunConfig, args) -> int:
    input_path = cfg.get("output", "input")
    if input_path:
        with open(input_path, encoding="utf-8") as fh:
            rows = mc.rows_from_csv(fh.read())
        spec = build_sweep_spec(cfg, args.resolved_seed)
        result = mc.SweepResult(spec=spec, rows=rows)
    else:
        spec = build_sweep_spec(cfg, args.resolved_seed)
        result = mc.run_sweep(spec, jobs=args.jobs)
    table = mc.compare_replica(result)
    _emit(cfg, mc.comparison_to_csv(table), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="replica-cs",
        description=(
            "Replica fixed-point predictions (rs-solve, rsb-solve) and Monte Carlo "
            "validation sweeps (simulate, compare) for compressed-sensing MAP "
            "estimators.  Defaults: penalty l1, rho 0.1, snr +10 dB (preset "
            "'paper_section4' selects the printed -10 dB), gamma and sigma_u^2 "
            "matched to the true noise variance (noiseless: gamma 1e-3, sigma_u^2 1), "
            "quadrature order 40 (1RSB grid only), "
            "damping 0.5, tol 1e-10, max 500 iterations, channel 'bare' "
            "(channel 'calibrated' gives the noise-consistent MSE prediction)."
        ),
    )
    p.add_argument("verb", choices=["rs-solve", "rsb-solve", "simulate", "compare"])
    p.add_argument("--config", help="path to a key-value config file with sections")
    p.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config value (section defaults to 'system')",
    )
    p.add_argument("--seed", type=int, help="sweep seed; falls back to REPLICA_CS_SEED, then 0")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for sweeps (output identical for any value)")
    p.add_argument("--format", choices=["csv", "json"], help="sweep output format")
    p.add_argument("--output", help="write data here (atomic); default stdout")
    return p


def resolve_seed(args, cfg: RunConfig) -> int:
    if args.seed is not None:
        return args.seed
    raw = cfg.get("sweep", "seed")
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"sweep.seed must be an integer, got {raw!r}") from exc
    env = os.environ.get("REPLICA_CS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"REPLICA_CS_SEED must be an integer, got {env!r}") from exc
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set)
        args.resolved_seed = resolve_seed(args, cfg)
        handler = {
            "rs-solve": _run_rs_solve,
            "rsb-solve": _run_rsb_solve,
            "simulate": _run_simulate,
            "compare": _run_compare,
        }[args.verb]
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
