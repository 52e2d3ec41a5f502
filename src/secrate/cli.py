"""Command-line surface: evaluate closed forms, optimize, sweep, verify.

Config files are flat ``key=value`` text with ``#`` comments. Any scenario
key may carry a ``_db`` suffix (value in dB, converted on load). Exit codes:
0 success, 2 config error, 3 infeasible optimization, 4 verification failure.
``SECRATE_SEED`` overrides ``--seed``; ``SECRATE_CORRUPT`` names a closed
form to perturb inside ``verify`` (test hook for the failure path).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import closedform as cf
from . import montecarlo as mc
from . import optimizer as opt
from .errors import AlphaZero, ConfigError, SecrateError
from .model import SystemParams, db_to_linear, make_split, validate

_INT_KEYS = ("n_antennas", "k_passive", "m_active")
_FLOAT_KEYS = ("var_ab", "var_aea", "var_aek", "var_eab", "var_jb", "var_jea",
               "var_jek", "p_max", "p_ea", "r_b", "delta", "epsilon", "rho_b",
               "rho_ea", "p_a", "theta", "r_s", "step")
_DB_BASE_KEYS = ("var_ab", "var_aea", "var_aek", "var_eab", "var_jb", "var_jea",
                 "var_jek", "p_max", "p_ea", "p_a")
_STR_KEYS = ("algorithm", "pa_mode", "axis", "also_set", "overlay", "values")
_PARAM_FIELDS = ("n_antennas", "k_passive", "m_active", "var_ab", "var_aea", "var_aek",
                 "var_eab", "var_jb", "var_jea", "var_jek", "p_max", "p_ea", "r_b",
                 "delta", "epsilon", "rho_b", "rho_ea")
_OPTIONAL_PARAM_FIELDS = ("m_active", "rho_b", "rho_ea")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return "%.12g" % value


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
        key, value = key.strip(), value.strip()
        db_suffix = key.endswith("_db")
        base = key[:-3] if db_suffix else key
        if db_suffix and base not in _DB_BASE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if base not in _INT_KEYS + _FLOAT_KEYS + _STR_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if base in out:
            raise ConfigError(f"line {lineno}: duplicate key {base!r}")
        if base in _INT_KEYS:
            try:
                out[base] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} needs an integer, "
                                  f"got {value!r}") from None
        elif base in _FLOAT_KEYS:
            try:
                parsed = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} needs a number, "
                                  f"got {value!r}") from None
            out[base] = float(db_to_linear(parsed)) if db_suffix else parsed
        else:
            out[base] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_params(cfg: dict) -> SystemParams:
    missing = [f for f in _PARAM_FIELDS
               if f not in cfg and f not in _OPTIONAL_PARAM_FIELDS]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    fields = {f: cfg[f] for f in _PARAM_FIELDS if f in cfg}
    return validate(SystemParams(**fields))


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _operating_point(params: SystemParams, cfg: dict, pa_mode: str):
    """(p_a, theta, r_s) from the config, with documented defaults."""
    if "p_a" in cfg:
        p_a = cfg["p_a"]
    else:
        p_a = cf.min_pa(params, pa_mode)
    if p_a > params.p_max:
        raise AlphaZero(f"required Alice power {p_a:.6g} exceeds p_max={params.p_max:.6g}")
    theta = cfg.get("theta", params.m_active / (params.n_antennas - 1))
    r_s = cfg.get("r_s", params.r_b / 2.0)
    if not 0.0 <= r_s <= params.r_b:
        raise ConfigError(f"r_s must lie in [0, r_b={params.r_b:.6g}], got {r_s!r}")
    return p_a, theta, r_s


EVAL_HEADER = ["p_a", "theta", "r_s", "alpha", "beta", "lambda_cap", "p_to", "p_so1",
               "p_so2", "dsop_active_dtheta", "dsop_passive_dtheta",
               "theta_floor_active", "active_lo", "active_hi", "passive_lo",
               "passive_hi"]


# SOP kind -> its theta-derivative (the multi kinds have none)
_DTHETA = {"active": cf.sop_active_dtheta, "active_imperfect": cf.sop_active_dtheta,
           "passive": cf.sop_passive_dtheta}


def cmd_eval(cfg: dict, pa_mode: str) -> tuple[int, str]:
    params = build_params(cfg)
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_a, theta, r_s = _operating_point(params, cfg, mode)
    split = make_split(params, p_a, theta)
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
    row = [p_a, theta, r_s, ratios.alpha, ratios.beta, ratios.lambda_cap,
           metrics.p_to, metrics.p_so1, metrics.p_so2, d_active, d_passive, floor,
           nan if active_iv.empty else active_iv.lo,
           nan if active_iv.empty else active_iv.hi,
           nan if passive_iv.empty else passive_iv.lo,
           nan if passive_iv.empty else passive_iv.hi]
    return 0, _csv(EVAL_HEADER, [row])


OPTIMIZE_HEADER = ["feasible", "r_s_star", "theta_star", "p_a_star", "steps", "reason"]


def cmd_optimize(cfg: dict, step: float | None, pa_mode: str) -> tuple[int, str]:
    params = build_params(cfg)
    algorithm = cfg.get("algorithm")
    step = step if step is not None else cfg.get("step", 0.01)
    result = opt.maximize_for(params, algorithm=algorithm, step=step, pa_mode=pa_mode)
    text = _csv(OPTIMIZE_HEADER, [[result.feasible, result.r_s_star, result.theta_star,
                                   result.p_a_star, result.steps,
                                   result.infeasibility_reason]])
    return (0 if result.feasible else 3), text


SWEEP_HEADER = ["axis", "axis_value", "overlay", "overlay_value", "feasible",
                "r_s_star", "theta_star", "p_a_star", "steps", "reason"]


def _parse_values(text: str, key: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated number list, got {text!r}") from None
    if not values:
        raise ConfigError(f"{key} must not be empty")
    return values


def _apply_field(cfg: dict, key: str, value: float) -> None:
    """Assign a sweep/overlay value to a scenario field, honoring _db suffixes."""
    base = key[:-3] if key.endswith("_db") else key
    if base not in _PARAM_FIELDS:
        raise ConfigError(f"{key!r} does not name a scenario field")
    if key.endswith("_db"):
        cfg[base] = float(db_to_linear(value))
    elif base in _INT_KEYS:
        if not float(value).is_integer():
            raise ConfigError(f"{key!r} needs integer values, got {value!r}")
        cfg[base] = int(value)
    else:
        cfg[base] = value


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
    algorithm = cfg.get("algorithm")
    step = step if step is not None else cfg.get("step", 0.01)
    rows = []
    for overlay_value in overlay_values:
        for axis_value in values:
            scenario = dict(cfg)
            _apply_field(scenario, axis, axis_value)
            for key in also_set:
                _apply_field(scenario, key, axis_value)
            if overlay_key:
                _apply_field(scenario, overlay_key, overlay_value)
            params = build_params(scenario)
            result = opt.maximize_for(params, algorithm=algorithm, step=step,
                                      pa_mode=pa_mode)
            rows.append([axis, axis_value, overlay_key, overlay_value, result.feasible,
                         result.r_s_star, result.theta_star, result.p_a_star,
                         result.steps, result.infeasibility_reason])
    return 0, _csv(SWEEP_HEADER, rows)


VERIFY_HEADER = ["name", "kind", "closed_form", "estimate", "std_err", "z_score",
                 "ks_stat", "threshold", "passed"]


def cmd_verify(cfg: dict, trials: int, seed: int, pa_mode: str,
               corrupt: str | None) -> tuple[int, str]:
    if trials < 10_000:
        raise ConfigError("verification needs at least 10000 trials")
    params = build_params(cfg)
    mode = cf.resolve_pa_mode(params, pa_mode)
    p_a, theta, r_s = _operating_point(params, cfg, mode)
    split = make_split(params, p_a, theta)
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
                        choices=("auto", "noise_limited", "interference_limited",
                                 "an_leakage"),
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
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
