"""The shipped sweep configs reproduce the benchmark's reference CSVs.

Every row of each config in ``configs/`` runs as a one-row sweep and must
print the reference row of ``perfbench/reference/sweep`` in every column but
``steps`` (a work counter whose meaning may change). The rate search of each
row is also held to a work bound: its probes and its curve evaluations.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import secrate.cli as cli
import secrate.closedform as cf
import secrate.optimizer as opt

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
STRIDE = 1


def _one_row_configs(cfg: dict) -> list[dict]:
    """One single-row config per (overlay value, axis value), in sweep order."""
    values = cli._parse_values(cfg["values"], "values")
    overlay_key, overlay_values = "", [None]
    if "overlay" in cfg:
        name, _, tail = cfg["overlay"].partition(":")
        overlay_key, overlay_values = name.strip(), cli._parse_values(tail, "overlay")
    rows = []
    for overlay_value in overlay_values:
        for value in values:
            row = dict(cfg, values=repr(value))
            if overlay_key:
                row["overlay"] = f"{overlay_key}:{overlay_value!r}"
            rows.append(row)
    return rows


def test_shipped_configs_have_references():
    assert len(CONFIGS) == 7
    for path in CONFIGS:
        assert (ROOT / "perfbench" / "reference" / "sweep" / f"{path.stem}.csv").is_file()


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_sweep_rows_match_reference(path):
    lines = (ROOT / "perfbench" / "reference" / "sweep" / f"{path.stem}.csv").read_text(
        encoding="utf-8").splitlines()
    header, reference = lines[0], lines[1:]
    rows = _one_row_configs(cli.load_config(str(path)))
    assert len(rows) == len(reference)
    steps = header.split(",").index("steps")
    for index in range(0, len(rows), STRIDE):
        code, text = cli.cmd_sweep(rows[index], None, "auto")
        got_header, got = text.splitlines()
        assert code == 0 and got_header == header
        got_fields, want_fields = got.split(","), reference[index].split(",")
        del got_fields[steps], want_fields[steps]
        assert got_fields == want_fields, f"{path.stem} row {index}"


@pytest.fixture(scope="module")
def search_work() -> dict:
    """config path -> (probes, curve evaluations) of each row of its sweep,
    counted as calls of the one kernel entry that the prediction and the
    interval solves share."""
    evals = 0
    rows = []
    kernel, maximize = cf.log_sf_at, opt.maximize_for

    def counting_kernel(*args):
        nonlocal evals
        evals += 1
        return kernel(*args)

    def counting_maximize(*args, **kwargs):
        before = evals
        result = maximize(*args, **kwargs)
        rows.append((result.steps, evals - before))
        return result

    work = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cf, "log_sf_at", counting_kernel)
        patch.setattr(opt, "maximize_for", counting_maximize)
        for path in CONFIGS:
            rows = []
            code, _ = cli.cmd_sweep(cli.load_config(str(path)), None, "auto")
            assert code == 0 and rows
            work[path] = rows
    return work


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_sweep_rows_land_on_the_predicted_boundary(search_work, path):
    # every row confirms the predicted boundary in at most 3 probes and takes
    # at most 90 curve evaluations, and the rows of all the shipped sweeps
    # average at most 10
    rows = search_work[path]
    assert max(probes for probes, _ in rows) <= 3, rows
    assert max(count for _, count in rows) <= 90, rows
    everything = [count for rows in search_work.values() for _, count in rows]
    assert sum(everything) <= 10 * len(everything), sum(everything) / len(everything)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_probe_with_failing_passive_minimum_solves_no_crossing(monkeypatch, path):
    # a probe whose passive SOP exceeds epsilon even at its minimizer is
    # empty after the two minima are checked: at most 3 curve evaluations,
    # where solving the active interval first took about 35
    probes = []
    solve = opt._Search.theta

    def recording(search, r_s):
        probes.append((search.params, search.p_req, r_s, search.kinds))
        return solve(search, r_s)

    monkeypatch.setattr(opt._Search, "theta", recording)
    cli.cmd_sweep(cli.load_config(str(path)), None, "auto")
    monkeypatch.undo()
    failing = [(params, p_a, r_s, kinds) for params, p_a, r_s, kinds in probes
               if cf.sop_theta_curve(kinds[1], params, p_a, r_s)(
                   opt._theta_reference(params, kinds[1])) > params.epsilon]
    assert failing
    evals = 0
    kernel = cf.log_sf_at

    def counting_kernel(*args):
        nonlocal evals
        evals += 1
        return kernel(*args)

    monkeypatch.setattr(cf, "log_sf_at", counting_kernel)
    for params, p_a, r_s, kinds in failing:
        evals = 0
        assert opt._Search(params, p_a, kinds).theta(r_s) is None
        assert evals <= 3, (r_s, kinds, evals)


def test_perfect_estimates_predict_the_boundary_without_a_root(monkeypatch):
    # with perfect estimates every case of the boundary prediction is closed
    # form: with its root made to fail loudly, the search still returns the
    # same result on every perfect-kind row of the shipped sweeps and on the
    # perfect and multi scenarios of the benchmark's optimize_mix population
    searches = []
    maximize = opt.maximize_for

    def recording(params, **kwargs):
        searches.append((params, kwargs))
        return maximize(params, **kwargs)

    monkeypatch.setattr(opt, "maximize_for", recording)
    for path in CONFIGS:
        cli.cmd_sweep(cli.load_config(str(path)), None, "auto")
    monkeypatch.undo()
    searches = [(params, kwargs) for params, kwargs in searches
                if cf.scenario_kinds(params, kwargs["algorithm"])[0] != "active_imperfect"]
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    searches += [(params, {"algorithm": algorithm, "step": 0.01, "pa_mode": "noise_limited"})
                 for algorithm, params in workloads.generate_scenarios(7, 90)
                 if algorithm != "imperfect"]
    assert len(searches) == 125 + 60
    want = [repr(maximize(params, **kwargs)) for params, kwargs in searches]

    def no_root(*args):
        raise AssertionError("the boundary prediction solved a root")

    monkeypatch.setattr(opt, "_predicted_root", no_root)
    assert [repr(maximize(params, **kwargs)) for params, kwargs in searches] == want
