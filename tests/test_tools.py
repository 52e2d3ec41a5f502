"""Smoke tests for the measuring scripts under tools/.

``search_counts`` patches optimizer functions by name, so a renamed function
would otherwise break it without any test noticing; ``identity`` must print
the same lines on every run of one tree.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(text: str) -> dict[str, list[str]]:
    """The printed rows keyed by their name column."""
    return {fields[-1] if fields[0].isdigit() else fields[0]: fields
            for fields in map(str.split, text.strip().splitlines())}


def test_search_counts_prints_a_consistent_total(capsys):
    assert _tool("search_counts").main(["search_counts.py"]) == 0
    rows = _rows(capsys.readouterr().out)
    header = rows.pop("config")
    assert header[-3:] == ["pred", "feas", "infeas"]
    total = rows.pop("total")
    assert len(rows) == len(list((TOOLS.parent / "configs").glob("*.cfg")))
    count, probes, max_probes, evals, max_evals = (float(v) for v in total[1:6])
    assert count == sum(int(row[1]) for row in rows.values()) > 0
    assert 1.0 <= probes <= max_probes <= 3
    assert 0.0 < evals <= max_evals
    # the phases split every evaluation of a row (each printed to 0.1)
    assert sum(map(float, total[6:9])) == pytest.approx(evals, abs=0.2)


def test_code_lines_prints_a_consistent_total(capsys):
    assert _tool("code_lines").main(["code_lines.py"]) == 0
    rows = _rows(capsys.readouterr().out)
    total = int(rows.pop("total")[0])
    assert "optimizer.py" in rows and "__init__.py" in rows
    assert total == sum(int(row[0]) for row in rows.values()) > 0


def test_identity_prints_the_same_lines_twice(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() puts the tree first
    identity = _tool("identity")
    runs = []
    for _ in range(2):
        assert identity.main(["identity.py", "--small"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    modes = ("auto", "noise_limited", "interference_limited", "an_leakage")
    assert [line.split()[1] for line in runs[0]] == [
        *(f"{group}/{mode}" for mode in modes for group in ("sweep", "sweep-no-steps")),
        *(f"eval/{mode}" for mode in modes), "verify", "samples", "maximize_for",
        "maximize_for-results", "oracle", "oracle-edges"]
    assert all(len(line.split()[0]) == 64 for line in runs[0])
