"""`secrate verify` reproduces the benchmark's reference reports byte for byte.

The four cases are the benchmark's ``verify_mc`` inputs (see
``perfbench/README.md``): 1e5 trials at Monte Carlo seed 0. Every column,
the sampled estimates included, must equal ``perfbench/reference/verify``,
so any change to the sampling stream or to how trials are batched shows here.
"""
from pathlib import Path

import pytest

import secrate.cli as cli

ROOT = Path(__file__).resolve().parent.parent
CASES = {
    # name: (config, overrides)
    "antennas_m1": (ROOT / "configs" / "sweep_antennas.cfg", {}),
    "bob_estimate": (ROOT / "configs" / "sweep_bob_estimate.cfg", {}),
    "passive_gain_rho_ea_0.6": (ROOT / "configs" / "sweep_passive_gain_estimates.cfg",
                                {"rho_ea": 0.6}),
    "antennas_m3": (ROOT / "perfbench" / "configs" / "verify_m3.cfg", {}),
}


@pytest.mark.parametrize("name", CASES)
def test_verify_report_matches_reference(name):
    path, overrides = CASES[name]
    cfg = dict(cli.load_config(str(path)), **overrides)
    code, text = cli.cmd_verify(cfg, 100_000, 0, "auto", None)
    reference = (ROOT / "perfbench" / "reference" / "verify" / f"{name}.csv").read_text(
        encoding="utf-8")
    assert code == 0
    assert text == reference
