"""Command-line surface: evaluate closed forms, optimize, sweep, verify.

Config files are flat ``key=value`` text with ``#`` comments. The scenario
keys, their types and which of them are required are the fields of
:class:`SystemParams`; the run keys are ``p_a``, ``theta``, ``r_s``, ``step``,
``algorithm`` and, for sweeps, ``axis``, ``values``, ``also_set`` and
``overlay``. One conversion types every value, from a config line or from a
sweep axis, ``also_set`` or overlay name alike: a variance or power key
(``var_*``, ``p_max``, ``p_ea``, ``p_a``) may carry a ``_db`` suffix (value in
dB, converted on load), and a count takes any integral number. The pa-mode
is set by ``--pa-mode`` only. Exit codes: 0 success, 2 config error, 3
infeasible optimization, 4 verification failure. ``SECRATE_SEED`` overrides
``--seed``; ``SECRATE_CORRUPT`` names a closed form to perturb inside
``verify`` (test hook for the failure path).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import typing

from . import closedform as cf
from . import montecarlo as mc
from . import optimizer as opt
from .errors import AlphaZero, ConfigError, SecrateError
from .model import SystemParams, db_to_linear, make_split, validate

# scenario field -> type, in SystemParams order; fields without a default are required
_SCENARIO = typing.get_type_hints(SystemParams)
_REQUIRED = [f.name for f in dataclasses.fields(SystemParams)
             if f.default is dataclasses.MISSING]
_KEY_TYPES = {**_SCENARIO, "p_a": float, "theta": float, "r_s": float, "step": float,
              **dict.fromkeys(("algorithm", "axis", "also_set", "overlay", "values"), str)}
# the variances and powers: the keys that take a _db suffix
_DB_KEYS = tuple(k for k in _KEY_TYPES if k.startswith(("var_", "p_")))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return "%.12g" % value


def _typed(key: str, value) -> tuple[str, object]:
    """(field, typed value) that ``key`` set to ``value`` (text or a number) means."""
    db = key.endswith("_db") and key[:-3] in _DB_KEYS
    field = key[:-3] if db else key
    kind = _KEY_TYPES.get(field)
    if kind is None:
        raise ConfigError(f"unknown key {key!r}")
    if kind is str:
        return field, value
    try:
        number = float(value)
    except ValueError:
        number = None
    if number is None or kind is int and not number.is_integer():
        raise ConfigError(f"key {key!r} needs {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    if db:
        return field, float(db_to_linear(number))
    return field, int(number) if kind is int else number


def parse_config(text: str) -> dict:
    """Parse key=value lines into typed values; errors carry line numbers."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        try:
            field, typed = _typed(key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if field in out:
            raise ConfigError(f"line {lineno}: duplicate key {field!r}")
        out[field] = typed
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_params(cfg: dict) -> SystemParams:
    missing = [f for f in _REQUIRED if f not in cfg]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return validate(SystemParams(**{f: cfg[f] for f in _SCENARIO if f in cfg}))


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _operating_point(cfg: dict, pa_mode: str):
    """(params, split, r_s) from the config, with documented defaults."""
    params = build_params(cfg)
    p_a = cfg["p_a"] if "p_a" in cfg else cf.min_pa(params, pa_mode)
    if p_a > params.p_max:
        raise AlphaZero(f"required Alice power {p_a:.6g} exceeds p_max={params.p_max:.6g}")
    theta = cfg.get("theta", params.m_active / (params.n_antennas - 1))
    r_s = cfg.get("r_s", params.r_b / 2.0)
    if not 0.0 <= r_s <= params.r_b:
        raise ConfigError(f"r_s must lie in [0, r_b={params.r_b:.6g}], got {r_s!r}")
    return params, make_split(params, p_a, theta), r_s


EVAL_HEADER = ["p_a", "theta", "r_s", "alpha", "beta", "lambda_cap", "p_to", "p_so1",
               "p_so2", "dsop_active_dtheta", "dsop_passive_dtheta",
               "theta_floor_active", "active_lo", "active_hi", "passive_lo",
               "passive_hi"]


# SOP kind -> its theta-derivative (the multi kinds have none)
_DTHETA = {"active": cf.sop_active_dtheta, "active_imperfect": cf.sop_active_dtheta,
           "passive": cf.sop_passive_dtheta}


def cmd_eval(cfg: dict, pa_mode: str) -> tuple[int, str]:
    params, split, r_s = _operating_point(cfg, pa_mode)
    p_a = split.p_a
    ratios = cf.derived_ratios(params, p_a, r_s)
    metrics = cf.outage_metrics(params, split, r_s)
    nan = math.nan
    kinds = cf.scenario_kinds(params)
    d_active, d_passive = (_DTHETA[k](params, split, r_s) if k in _DTHETA else nan
                           for k in kinds)
    try:
        floor = opt.theta_floor_active(params, p_a, r_s) if kinds[0] == "active" else nan
    except AlphaZero:
        floor = nan
    active_iv, passive_iv = (opt.theta_interval(k, params, p_a, r_s) for k in kinds)
    row = [p_a, split.theta, r_s, ratios.alpha, ratios.beta, ratios.lambda_cap,
           metrics.p_to, metrics.p_so1, metrics.p_so2, d_active, d_passive, floor,
           nan if active_iv.empty else active_iv.lo,
           nan if active_iv.empty else active_iv.hi,
           nan if passive_iv.empty else passive_iv.lo,
           nan if passive_iv.empty else passive_iv.hi]
    return 0, _csv(EVAL_HEADER, [row])


OPTIMIZE_HEADER = ["feasible", "r_s_star", "theta_star", "p_a_star", "steps", "reason"]


def _optimize_row(params: SystemParams, cfg: dict, step: float | None, pa_mode: str) -> list:
    """The OPTIMIZE_HEADER row of one rate search on ``params``, run as ``cfg`` says."""
    result = opt.maximize_for(params, algorithm=cfg.get("algorithm"), pa_mode=pa_mode,
                              step=cfg.get("step", 0.01) if step is None else step)
    return [result.feasible, result.r_s_star, result.theta_star, result.p_a_star,
            result.steps, result.infeasibility_reason]


def cmd_optimize(cfg: dict, step: float | None, pa_mode: str) -> tuple[int, str]:
    row = _optimize_row(build_params(cfg), cfg, step, pa_mode)
    return (0 if row[0] else 3), _csv(OPTIMIZE_HEADER, [row])


SWEEP_HEADER = ["axis", "axis_value", "overlay", "overlay_value", *OPTIMIZE_HEADER]


def _parse_values(text: str, key: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated number list, got {text!r}") from None
    if not values:
        raise ConfigError(f"{key} must not be empty")
    return values


def _apply_field(cfg: dict, key: str, value: float) -> None:
    """Assign a sweep, also_set or overlay value to the scenario field ``key`` names."""
    if key.removesuffix("_db") not in _SCENARIO:
        raise ConfigError(f"{key!r} does not name a scenario field")
    field, cfg_value = _typed(key, value)
    cfg[field] = cfg_value


def cmd_sweep(cfg: dict, step: float | None, pa_mode: str) -> tuple[int, str]:
    if "axis" not in cfg or "values" not in cfg:
        raise ConfigError("sweep configs need 'axis' and 'values' keys")
    axis = cfg["axis"]
    values = _parse_values(cfg["values"], "values")
    if sorted(values) != values:
        raise ConfigError("values must be sorted ascending")
    also_set = [k.strip() for k in cfg.get("also_set", "").split(",") if k.strip()]
    overlay_key, overlay_values = "", [math.nan]
    if "overlay" in cfg:
        name, _, tail = cfg["overlay"].partition(":")
        overlay_key = name.strip()
        overlay_values = _parse_values(tail, "overlay")
    rows = []
    for overlay_value in overlay_values:
        for axis_value in values:
            scenario = dict(cfg)
            _apply_field(scenario, axis, axis_value)
            for key in also_set:
                _apply_field(scenario, key, axis_value)
            if "overlay" in cfg:
                _apply_field(scenario, overlay_key, overlay_value)
            rows.append([axis, axis_value, overlay_key, overlay_value,
                         *_optimize_row(build_params(scenario), cfg, step, pa_mode)])
    return 0, _csv(SWEEP_HEADER, rows)


VERIFY_HEADER = ["name", "kind", "closed_form", "estimate", "std_err", "z_score",
                 "ks_stat", "threshold", "passed"]


def cmd_verify(cfg: dict, trials: int, seed: int, pa_mode: str,
               corrupt: str | None) -> tuple[int, str]:
    if trials < 10_000:
        raise ConfigError("verification needs at least 10000 trials")
    params, split, r_s = _operating_point(cfg, pa_mode)
    rows = mc.verification_rows(params, split, r_s, trials, seed, corrupt=corrupt)
    table = [[r["name"], r["kind"], r["closed_form"], r["estimate"], r["std_err"],
              r["z_score"], r["ks_stat"], r["threshold"], r["passed"]] for r in rows]
    ok = all(r["passed"] for r in rows)
    return (0 if ok else 4), _csv(VERIFY_HEADER, table)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrate",
        description="Secrecy-rate analysis for cooperative jamming with active "
                    "and passive eavesdroppers")
    parser.add_argument("command", choices=("eval", "optimize", "sweep", "verify"))
    parser.add_argument("--config", required=True, help="key=value scenario file")
    parser.add_argument("--trials", type=int, default=100_000,
                        help="Monte Carlo trials for verify")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (SECRATE_SEED env overrides)")
    parser.add_argument("--step", type=float, default=None,
                        help="secrecy-rate sweep step (bit/s/Hz)")
    parser.add_argument("--pa-mode", default="auto",
                        choices=("auto", *cf.PA_MODES),
                        help="which outage model fixes Alice's minimum power")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    seed = args.seed
    env_seed = os.environ.get("SECRATE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"secrate: SECRATE_SEED must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            return 2
    corrupt = os.environ.get("SECRATE_CORRUPT") or None
    try:
        cfg = load_config(args.config)
        if args.command == "eval":
            code, text = cmd_eval(cfg, args.pa_mode)
        elif args.command == "optimize":
            code, text = cmd_optimize(cfg, args.step, args.pa_mode)
        elif args.command == "sweep":
            code, text = cmd_sweep(cfg, args.step, args.pa_mode)
        else:
            code, text = cmd_verify(cfg, args.trials, seed, args.pa_mode, corrupt)
    except ConfigError as exc:
        print(f"secrate: config error: {exc}", file=sys.stderr)
        return 2
    except AlphaZero as exc:
        print(f"secrate: infeasible: {exc}", file=sys.stderr)
        return 3
    except SecrateError as exc:
        print(f"secrate: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"secrate: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
