import dataclasses
import os
import time

import numpy as np
import pytest

import secrate.cli as cli
import secrate.closedform as cf
import secrate.optimizer as opt
from secrate.errors import ConfigError
from secrate.model import SystemParams, make_split

from conftest import MIN_PA_UNDERFLOW

BASE_CFG = """\
# antenna-sweep scenario at N=6
n_antennas=6
k_passive=1
m_active=1
var_ab_db=10
var_aea_db=3
var_aek_db=3
var_eab_db=3
var_jb_db=2
var_jea_db=7
var_jek_db=7
p_max_db=40
p_ea_db=10
r_b=8
delta=0.1
epsilon=0.01
"""


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_config_values_and_db():
    cfg = cli.parse_config("r_b = 8\nvar_ab_db=10 # comment\n\n# full line\ntheta=0.25\n")
    assert cfg == {"r_b": 8.0, "var_ab": 10.0, "theta": 0.25}


def test_parse_config_errors_name_key_and_line():
    with pytest.raises(ConfigError, match="line 2.*'bogus_key'"):
        cli.parse_config("r_b=8\nbogus_key=3\n")
    with pytest.raises(ConfigError, match="line 1.*integer"):
        cli.parse_config("n_antennas=4.5\n")
    with pytest.raises(ConfigError, match="line 1: key 'n_antennas' needs an integer, got 'abc'"):
        cli.parse_config("n_antennas=abc\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        cli.parse_config("r_b=8\nvar_ab=1\nr_b=9\n")
    with pytest.raises(ConfigError, match="line 1.*key=value"):
        cli.parse_config("what even is this\n")


def test_missing_required_key_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "n_antennas=6\nr_b=8\n")
    code, out, err = _run(["eval", "--config", path], capsys)
    assert code == 2
    assert "missing required" in err


def test_eval_deterministic_and_matches_library(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG + "p_a=242\ntheta=0.3\nr_s=4\n")
    code1, out1, _ = _run(["eval", "--config", path], capsys)
    code2, out2, _ = _run(["eval", "--config", path], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    header, row = out1.strip().split("\n")
    assert header.split(",") == cli.EVAL_HEADER
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["p_a"]) == 242.0
    cfg = cli.load_config(path)
    params = cli.build_params(cfg)
    import secrate.closedform as cf
    from secrate.model import make_split
    split = make_split(params, 242.0, 0.3)
    assert float(values["p_so1"]) == pytest.approx(
        float(cf.sop_active(params, split, 4.0)), rel=1e-11)
    assert float(values["p_so2"]) == pytest.approx(
        float(cf.sop_passive(params, split, 4.0)), rel=1e-11)


def test_optimize_matches_library_row(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG)
    code, out, _ = _run(["optimize", "--config", path,
                         "--pa-mode", "noise_limited"], capsys)
    assert code == 0
    cfg = cli.load_config(path)
    params = cli.build_params(cfg)
    result = opt.maximize_for(params, pa_mode="noise_limited")
    expected = cli._csv(cli.OPTIMIZE_HEADER,
                        [[result.feasible, result.r_s_star, result.theta_star,
                          result.p_a_star, result.steps, result.infeasibility_reason]])
    assert out == expected


def test_optimize_infeasible_exit_3(tmp_path, capsys):
    text = BASE_CFG.replace("delta=0.1", "delta=0.000001").replace(
        "p_max_db=40", "p_max_db=20")
    path = _write(tmp_path, text)
    code, out, _ = _run(["optimize", "--config", path,
                         "--pa-mode", "noise_limited"], capsys)
    assert code == 3
    assert "PA_EXCEEDS_PMAX" in out


def test_optimize_pa_mode_changes_power(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG)
    rows = {}
    for mode in ("noise_limited", "interference_limited"):
        code, out, _ = _run(["optimize", "--config", path, "--pa-mode", mode], capsys)
        assert code == 0
        rows[mode] = out.strip().split("\n")[1].split(",")
    p_a_col = cli.OPTIMIZE_HEADER.index("p_a_star")
    assert rows["noise_limited"][p_a_col] != rows["interference_limited"][p_a_col]


def test_sweep_output_shape_and_order(tmp_path, capsys):
    text = BASE_CFG + "axis=n_antennas\nvalues=4,6,8\noverlay=epsilon:0.1,0.01\n"
    path = _write(tmp_path, text)
    code, out, _ = _run(["sweep", "--config", path, "--pa-mode", "noise_limited"],
                        capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split(",") == cli.SWEEP_HEADER
    assert len(lines) == 1 + 3 * 2
    firsts = [line.split(",")[1] for line in lines[1:4]]
    assert firsts == ["4", "6", "8"]
    overlay_vals = [line.split(",")[3] for line in lines[1:]]
    assert overlay_vals == ["0.1"] * 3 + ["0.01"] * 3


def test_sweep_requires_sorted_values(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG + "axis=n_antennas\nvalues=6,4\n")
    code, _, err = _run(["sweep", "--config", path], capsys)
    assert code == 2
    assert "sorted" in err


def test_verify_exit_codes_and_seed_env(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, BASE_CFG + "p_a=242\ntheta=0.3\nr_s=6.5\n")
    code, out1, _ = _run(["verify", "--config", path, "--trials", "20000",
                          "--seed", "5"], capsys)
    assert code == 0
    assert out1.startswith(",".join(cli.VERIFY_HEADER))
    monkeypatch.setenv("SECRATE_SEED", "5")
    code, out2, _ = _run(["verify", "--config", path, "--trials", "20000",
                          "--seed", "12345"], capsys)
    assert code == 0
    assert out2 == out1  # env seed overrides the flag
    monkeypatch.delenv("SECRATE_SEED")
    monkeypatch.setenv("SECRATE_CORRUPT", "sop_passive")
    code, out3, _ = _run(["verify", "--config", path, "--trials", "20000",
                          "--seed", "5"], capsys)
    assert code == 4
    assert "false" in out3


def test_verify_trial_floor(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG)
    code, _, err = _run(["verify", "--config", path, "--trials", "500"], capsys)
    assert code == 2
    assert "10000" in err


def test_verify_oversized_trial_count_exits_2(tmp_path, capsys):
    # 1e12 trials would list about 2.4e8 chunks and exhaust memory: the
    # count is refused at once, as a range error
    path = _write(tmp_path, BASE_CFG)
    began = time.perf_counter()
    code, out, err = _run(["verify", "--config", path, "--trials", str(10 ** 12)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"secrate: {10 ** 12} trials at N = 6, K = 1 need")
    assert time.perf_counter() - began < 1.0


def test_out_file_written_with_lf(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG + "p_a=242\ntheta=0.3\nr_s=4\n")
    out_path = tmp_path / "result.csv"
    code, stdout, _ = _run(["eval", "--config", path, "--out", str(out_path)], capsys)
    assert code == 0
    assert stdout == ""
    data = out_path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


@pytest.mark.parametrize("target", ["missing/result.csv", ""], ids=["missing_dir", "a_dir"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    path = _write(tmp_path, BASE_CFG + "p_a=242\ntheta=0.3\nr_s=4\n")
    code, out, err = _run(["eval", "--config", path, "--out", str(tmp_path / target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("secrate: ") and err.count("\n") == 1


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE_CFG.replace("antenna-sweep", "antenna-sweep \xe9").encode("latin-1"))
    code, out, err = _run(["eval", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("secrate: config error: cannot read config") and err.count("\n") == 1


def test_sweep_overlay_without_a_name_exits_2(tmp_path, capsys):
    path = _write(tmp_path, BASE_CFG + "axis=n_antennas\nvalues=4,6\noverlay=:1,2\n")
    code, out, err = _run(["sweep", "--config", path], capsys)
    assert (code, out) == (2, "")
    assert "does not name a scenario field" in err


def test_eval_default_theta_sits_at_passive_stationary_point(capsys):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code, out, _ = _run(["eval", "--config",
                         os.path.join(here, "configs", "sweep_active_gain_bob_estimate.cfg")], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["theta"]) == 0.2  # 1/(N-1) default at N=6
    assert abs(float(values["dsop_passive_dtheta"])) <= 1e-9


def test_shipped_figure_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("sweep_antennas", "sweep_passive_gain_targets", "sweep_bob_estimate",
                 "sweep_active_gain_bob_estimate", "sweep_passive_gain_estimates",
                 "sweep_active_gain_estimates", "sweep_an_ratio_passive_gain"):
        cfg = cli.load_config(os.path.join(here, "configs", f"{name}.cfg"))
        params = cli.build_params(cfg)
        assert params.r_b == 8.0
        assert "axis" in cfg and "values" in cfg
        values = cli._parse_values(cfg["values"], "values")
        assert values == sorted(values)


def _eval_row(tmp_path, capsys, text):
    code, out, _ = _run(["eval", "--config", _write(tmp_path, text)], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


def _assert_interval(values, prefix, interval):
    for end in ("lo", "hi"):
        if interval.empty:
            assert values[f"{prefix}_{end}"] == "nan"
        else:
            assert float(values[f"{prefix}_{end}"]) == pytest.approx(
                getattr(interval, end), rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("extra,kinds", [
    ("m_active=2\n", ("active_multi", "passive_multi")),
    ("rho_ea=0.6\n", ("active_imperfect", "passive")),
])
def test_eval_row_matches_library_per_family(tmp_path, capsys, extra, kinds):
    # p_a=2000, r_s=7 puts interior endpoints into both intervals of both rows
    text = BASE_CFG.replace("m_active=1\n", "") + extra + "p_a=2000\ntheta=0.3\nr_s=7\n"
    values = _eval_row(tmp_path, capsys, text)
    params = cli.build_params(cli.parse_config(text))
    import secrate.closedform as cf
    from secrate.model import make_split
    split = make_split(params, 2000.0, 0.3)
    active, passive = kinds
    assert float(values["p_so1"]) == pytest.approx(
        float(getattr(cf, f"sop_{active}")(params, split, 7.0)), rel=1e-11)
    assert float(values["p_so2"]) == pytest.approx(
        float(getattr(cf, f"sop_{passive}")(params, split, 7.0)), rel=1e-11)
    active_iv = getattr(opt, f"theta_interval_{active}")(params, 2000.0, 7.0)
    passive_iv = getattr(opt, f"theta_interval_{passive}")(params, 2000.0, 7.0)
    assert 0.0 < active_iv.lo < active_iv.hi and 0.0 < passive_iv.hi < 1.0
    _assert_interval(values, "active", active_iv)
    _assert_interval(values, "passive", passive_iv)
    assert values["theta_floor_active"] == "nan"
    if params.m_active > 1:
        assert values["dsop_active_dtheta"] == values["dsop_passive_dtheta"] == "nan"
    else:
        assert float(values["dsop_active_dtheta"]) == pytest.approx(
            cf.sop_active_dtheta(params, split, 7.0), rel=1e-11)
        assert float(values["dsop_passive_dtheta"]) == pytest.approx(
            cf.sop_passive_dtheta(params, split, 7.0), rel=1e-11)


def test_optimize_nan_step_exits_2(tmp_path, capsys):
    code, out, err = _run(["optimize", "--config", _write(tmp_path, BASE_CFG),
                           "--step", "nan"], capsys)
    assert code == 2 and out == ""
    assert "step" in err


def test_optimize_step_overflowing_grid_exits_2(tmp_path, capsys):
    code, out, err = _run(["optimize", "--config", _write(tmp_path, BASE_CFG),
                           "--step", "5e-324"], capsys)
    assert code == 2 and out == ""
    assert "step" in err


@pytest.mark.parametrize("extra", ["axis=n_antennas\nvalues=5.5,6.7\n",
                                   "axis=n_antennas\nvalues=6\noverlay=k_passive:1,2.5\n"])
def test_sweep_rejects_non_integral_counts(tmp_path, capsys, extra):
    code, out, err = _run(["sweep", "--config", _write(tmp_path, BASE_CFG + extra)], capsys)
    assert code == 2 and out == ""
    assert "integer" in err


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("r_s", ["9", "-1", "nan", "inf"])
def test_operating_point_rejects_r_s_outside_0_r_b(tmp_path, capsys, command, r_s):
    path = _write(tmp_path, BASE_CFG + f"p_a=242\ntheta=0.3\nr_s={r_s}\n")
    code, out, err = _run([command, "--config", path, "--trials", "20000"], capsys)
    assert code == 2 and out == ""
    assert "r_s" in err


def test_eval_at_r_s_equal_r_b_is_certain_outage(tmp_path, capsys):
    values = _eval_row(tmp_path, capsys, BASE_CFG + "p_a=242\ntheta=0.3\nr_s=8\n")
    assert values["p_so1"] == values["p_so2"] == "1"


def test_eval_at_r_s_equal_r_b_is_certain_outage_where_p_max_over_p_a_overflows(
        tmp_path, capsys):
    # p_max / p_a = inf at p_a = 1e-310, and alpha = (p_max/p_a - 1) x at the
    # threshold x = 0 was inf * 0: alpha, beta and both SOPs printed nan
    text = ("n_antennas=6\nk_passive=2\nvar_ab=1\nvar_aea=1\nvar_aek=1\nvar_eab=1\n"
            "var_jb=1\nvar_jea=1\nvar_jek=1\np_max=1\np_ea=1\nr_b=1\ndelta=0.1\n"
            "epsilon=0.01\ntheta=1\nr_s=1\n")
    tiny = _eval_row(tmp_path, capsys, text + "p_a=1e-310\n")
    assert [tiny[name] for name in ("alpha", "beta", "p_so1", "p_so2")] == ["0", "0", "1", "1"]
    assert "nan" not in [tiny[name] for name in ("lambda_cap", "p_to", "dsop_active_dtheta",
                                                 "dsop_passive_dtheta")]
    # past p_a, the row of a p_a at which p_max / p_a is finite: the floor and
    # the (empty) intervals print nan as at every alpha = 0
    finite = _eval_row(tmp_path, capsys, text + "p_a=1e-300\n")
    assert list(tiny.values())[1:] == list(finite.values())[1:]
    params = cli.build_params(cli.load_config(_write(tmp_path, text)))
    assert cf.alpha_ratio(params, 1e-310, params.r_b) == 0.0
    assert cf.alpha_ratio(params, 1e-310, np.array([params.r_b, 0.5])).tolist() == [0.0, np.inf]
    assert cf.sop_passive(params, make_split(params, 1e-310, 1.0), params.r_b) == 1.0


def test_pa_mode_config_line_exits_2_naming_the_key(tmp_path, capsys):
    # only --pa-mode sets the pa-mode
    path = _write(tmp_path, BASE_CFG + "pa_mode=interference_limited\n")
    code, out, err = _run(["eval", "--config", path, "--pa-mode", "interference_limited"],
                          capsys)
    assert code == 2 and out == ""
    assert err.startswith("secrate:") and "'pa_mode'" in err


@pytest.mark.parametrize("extra", ["axis=r_b_db\nvalues=8\n",
                                   "axis=n_antennas\nvalues=6\noverlay=rho_b_db:-1\n",
                                   "axis=var_jea\nvalues=5\nalso_set=epsilon_db\n"])
def test_sweep_names_take_db_only_on_variances_and_powers(tmp_path, capsys, extra):
    code, out, err = _run(["sweep", "--config", _write(tmp_path, BASE_CFG + extra)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("secrate:") and "_db'" in err


def test_integral_count_parses_to_int():
    cfg = cli.parse_config("n_antennas=6.0\nk_passive=2\nm_active=1e0\n")
    assert cfg == {"n_antennas": 6, "k_passive": 2, "m_active": 1}
    assert all(type(value) is int for value in cfg.values())


_DB_FIELDS = ("var_ab", "var_aea", "var_aek", "var_eab", "var_jb", "var_jea", "var_jek",
              "p_max", "p_ea")


@pytest.mark.parametrize("key", [f.name + suffix for f in dataclasses.fields(SystemParams)
                                 for suffix in ("", "_db")])
def test_config_line_and_sweep_value_type_alike(key):
    swept: dict = {}
    if key.endswith("_db") and key[:-3] not in _DB_FIELDS:
        with pytest.raises(ConfigError, match=f"line 1.*'{key}'"):
            cli.parse_config(f"{key}=3.0\n")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            cli._apply_field(swept, key, 3.0)
        return
    line = cli.parse_config(f"{key}=3.0\n")
    cli._apply_field(swept, key, 3.0)
    assert line == swept and len(line) == 1
    assert [type(v) for v in line.values()] == [type(v) for v in swept.values()]


@pytest.mark.parametrize("flag,env", [("-1", None), (str(2 ** 128), None), ("0", "-1")],
                         ids=["negative", "2**128", "env-negative"])
def test_verify_rejects_out_of_range_seed(tmp_path, capsys, monkeypatch, flag, env):
    if env is not None:
        monkeypatch.setenv("SECRATE_SEED", env)
    code, out, err = _run(["verify", "--config", _write(tmp_path, BASE_CFG),
                           "--trials", "10000", "--seed", flag], capsys)
    assert code == 2 and out == ""
    assert err.startswith("secrate:") and "seed" in err


@pytest.mark.parametrize("fields, mode", MIN_PA_UNDERFLOW,
                         ids=[mode for _, mode in MIN_PA_UNDERFLOW])
@pytest.mark.parametrize("command", ["optimize", "eval"])
def test_minimum_power_that_rounds_to_zero_exits_2(tmp_path, capsys, command, fields, mode):
    path = _write(tmp_path, "".join(f"{key}={value!r}\n" for key, value in fields.items()))
    code, out, err = _run([command, "--config", path, "--pa-mode", mode], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("secrate: ") and "minimum Alice power" in err


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_minimum_power_over_p_max_exits_3(tmp_path, capsys, command):
    path = _write(tmp_path, BASE_CFG.replace("p_max_db=40", "p_max=0.001"))
    code, out, err = _run([command, "--config", path, "--trials", "10000"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("secrate: infeasible: required Alice power ")
    assert err.rstrip().endswith("exceeds p_max=0.001")


def test_non_integer_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SECRATE_SEED", "abc")
    code, out, err = _run(["verify", "--config", _write(tmp_path, BASE_CFG),
                           "--trials", "10000"], capsys)
    assert code == 2 and out == ""
    assert err == "secrate: SECRATE_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("extra, message", [
    ("axis=r_b\nvalues=\n", "values must not be empty"),
    ("axis=r_b\nvalues=a,b\n", "values must be a comma-separated number list, got 'a,b'"),
    ("values=1,2\n", "sweep configs need 'axis' and 'values' keys"),
])
def test_sweep_values_and_axis_errors_exit_2(tmp_path, capsys, extra, message):
    code, out, err = _run(["sweep", "--config", _write(tmp_path, BASE_CFG + extra)], capsys)
    assert code == 2 and out == ""
    assert err == f"secrate: config error: {message}\n"
