"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/``: the full ``cmd_sweep`` CSV of every shipped
config, the optimize_mix results, and the verify reports
at the Monte Carlo seed. Run it only in a change that deliberately alters
program output, and record that change.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import secrate.cli as cli  # noqa: E402
import workloads as w  # noqa: E402


def main() -> None:
    (w.REFERENCE / "sweep").mkdir(parents=True, exist_ok=True)
    (w.REFERENCE / "verify").mkdir(parents=True, exist_ok=True)
    for path in sorted((w.ROOT / "configs").glob("*.cfg")):
        _, text = cli.cmd_sweep(cli.load_config(str(path)), None, "auto")
        (w.REFERENCE / "sweep" / f"{path.stem}.csv").write_text(text, encoding="utf-8")
        print(f"sweep {path.stem}", flush=True)

    lines = ["index,algorithm," + ",".join(w.RESULT_FIELDS)]
    for i, (algorithm, params) in enumerate(w.generate_scenarios(
            w.OptimizeMix.population_seed, w.OptimizeMix.population)):
        result, oracle = w.OptimizeMix.run(w.Op("", (algorithm, params, i)))
        problems = w.oracle_problems(f"{algorithm}#{i}", result, oracle)
        if problems:
            raise SystemExit("\n".join(problems))
        lines.append(f"{i},{algorithm}," + ",".join(w.result_fields(result)))
    (w.REFERENCE / "optimize_mix.csv").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")
    print("optimize_mix", flush=True)

    for name, path, overrides in w.VERIFY_CASES:
        cfg = dict(cli.load_config(str(path)), **overrides)
        code, text = cli.cmd_verify(cfg, w.TRIALS, w.MC_SEED, "auto", None)
        if code != 0:
            raise SystemExit(f"verify {name} fails at the reference seed:\n{text}")
        (w.REFERENCE / "verify" / f"{name}.csv").write_text(text, encoding="utf-8")
        print(f"verify {name}", flush=True)


if __name__ == "__main__":
    main()
