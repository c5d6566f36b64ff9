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
from functools import cache

from numpy.linalg import LinAlgError

from . import montecarlo as mc
from .priors import PENALTY_KINDS, SignalPrior
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


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ValueError(raw)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


_NOUNS = {float: "a number", int: "an integer", _bool: "boolean", _floats: "a comma list of numbers"}


def _value(cfg: RunConfig, section: str, key: str, parse=float):
    """section.key parsed, or None when it is not set."""
    raw = cfg.get(section, key)
    if raw is None:
        return None
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key} must be {_NOUNS[parse]}, got {raw!r}") from exc


def _given(cfg: RunConfig, section: str, parsers: dict) -> dict:
    """The keys of ``parsers`` set in ``section``, parsed; the rest keep their defaults."""
    out = {key: _value(cfg, section, key, parse) for key, parse in parsers.items()}
    return {key: value for key, value in out.items() if value is not None}


def _snr_db(cfg: RunConfig) -> float:
    preset = cfg.get("system", "preset", "default")
    if preset not in mc.PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(mc.PRESETS)}")
    snr_db = _value(cfg, "system", "snr_db")
    return mc.PRESETS[preset]["snr_db"] if snr_db is None else snr_db


# Optional keys are passed on only when set, so each default is written
# once: in replica_system, SystemConfig, SignalPrior or SweepSpec.
_SYSTEM = {
    "gamma": float, "sigma_u2": float, "sigma_0_sq": float,
    "quad_order": int, "damping": float, "tol": float, "max_iter": int, "channel": str,
}
_PRIOR = {"rho": float, "active_variance": float}
_SWEEP = {
    "control": str, "grid": _floats, "n": int, "trials": int, "estimators": _names,
    "m_over_n": float, "include_rsb": _bool,
}
#: the [system] keys a sweep reads; simulate and compare reject the others
_SWEEP_SYSTEM_KEYS = ("rho", "snr_db", "preset", "gamma")


def build_system_config(cfg: RunConfig) -> SystemConfig:
    alpha = _value(cfg, "system", "alpha")
    if alpha is None:
        raise ConfigError("system.alpha is required for solver verbs")
    kind = cfg.get("system", "penalty", "l1")
    if kind not in PENALTY_KINDS:
        raise ConfigError(f"system.penalty must be one of {PENALTY_KINDS}, got {kind!r}")
    snr_db = _snr_db(cfg)
    system = _given(cfg, "system", _SYSTEM)
    try:
        prior = SignalPrior(**_given(cfg, "system", _PRIOR))
        return mc.replica_system(alpha, prior, kind, snr_db, **system)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_unread_system_keys(cfg: RunConfig) -> None:
    unread = sorted(set(cfg.values.get("system", {})) - set(_SWEEP_SYSTEM_KEYS))
    if unread:
        raise ConfigError(
            f"simulate and compare do not read system.{', system.'.join(unread)}; "
            f"a sweep reads only {', '.join(_SWEEP_SYSTEM_KEYS)}"
        )


def build_sweep_spec(cfg: RunConfig, seed: int) -> mc.SweepSpec:
    spec = _given(cfg, "sweep", _SWEEP)
    if "control" not in spec or "grid" not in spec:
        raise ConfigError("sweep.control and sweep.grid are required for simulate/compare")
    if "n" in spec:
        spec["N"] = spec.pop("n")
    spec.update(_given(cfg, "system", {"rho": float, "gamma": float}))
    try:
        return mc.SweepSpec(snr_db=_snr_db(cfg), seed=seed, **spec)
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
    if sys_cfg.channel != BARE:
        raise ConfigError("rsb-solve solves the bare channel only; "
                          "there is no noise-consistent 1RSB system yet")
    state = rsb_solve(sys_cfg)
    doc = state.as_dict()
    doc["energy"] = rsb_energy(sys_cfg, state)
    _emit(cfg, json.dumps(_json_safe(doc), indent=2) + "\n", args.output)
    return EXIT_OK if state.converged else EXIT_NONCONV


def _run_simulate(cfg: RunConfig, args) -> int:
    _reject_unread_system_keys(cfg)
    rows = mc.run_sweep(build_sweep_spec(cfg, args.resolved_seed), jobs=args.jobs)
    fmt = args.format or cfg.get("output", "format", "csv")
    if fmt == "csv":
        data = mc.sweep_to_csv(rows)
    else:
        # json writes the flags tuple as a list
        doc = [{col: getattr(r, attr) for col, attr in mc.SWEEP_FIELDS} for r in rows]
        data = json.dumps(_json_safe(doc), indent=2) + "\n"
    _emit(cfg, data, args.output)
    return EXIT_OK


def _run_compare(cfg: RunConfig, args) -> int:
    _reject_unread_system_keys(cfg)
    input_path = cfg.get("output", "input")
    if input_path:
        with open(input_path, encoding="utf-8") as fh:
            rows = mc.rows_from_csv(fh.read())
    else:
        rows = mc.run_sweep(build_sweep_spec(cfg, args.resolved_seed), jobs=args.jobs)
    _emit(cfg, mc.comparison_to_csv(mc.compare_replica(rows)), args.output)
    return EXIT_OK


@cache
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
    seed = _value(cfg, "sweep", "seed", int)
    if seed is not None:
        return seed
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
