"""Count the work of the rate search on the shipped sweep configs.

For each config in ``configs/`` it runs the sweep in-process and prints the
mean number of probes (``OptResult.steps``: rates whose AN-ratio interval was
solved) and of curve evaluations per row, the largest of each over the rows,
and the same figures over all rows. A curve evaluation is one call of
``closedform.log_sf_at``, the kernel entry of both the boundary prediction
and the interval solves. The mean evaluations per row are then split into
three phases: the boundary prediction (``pred``), the probes that found a
feasible AN-ratio interval (``feas``) and those that found none
(``infeas``). Run from the repository root:

    PYTHONPATH=src python tools/search_counts.py

It needs only the standard library and ``secrate``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import secrate.cli as cli
import secrate.closedform as cf
import secrate.optimizer as opt

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("pred", "feas", "infeas")


def sweep_counts(path: Path) -> list[tuple[int, int, dict]]:
    """(probes, curve evaluations, evaluations by phase) of each row of the
    sweep in ``path``."""
    evals = 0
    rows = []
    kernel, maximize = cf.log_sf_at, opt.maximize_for
    predict, solve = opt._predicted_bracket, opt._feasible_interval
    phases = dict.fromkeys(PHASES, 0)

    def counting_kernel(*args):
        nonlocal evals
        evals += 1
        return kernel(*args)

    def counted(phase_of, fn):
        """``fn``, its evaluations added to the phase ``phase_of(result)`` names."""
        def wrapper(*args, **kwargs):
            before = evals
            result = fn(*args, **kwargs)
            phases[phase_of(result)] += evals - before
            return result
        return wrapper

    def counting_maximize(*args, **kwargs):
        before = evals
        phases.update(dict.fromkeys(PHASES, 0))
        result = maximize(*args, **kwargs)
        rows.append((result.steps, evals - before, dict(phases)))
        return result

    patched = {
        (cf, "log_sf_at"): counting_kernel,
        (opt, "maximize_for"): counting_maximize,
        (opt, "_predicted_bracket"): counted(lambda _: "pred", predict),
        (opt, "_feasible_interval"): counted(
            lambda interval: "infeas" if interval.empty else "feas", solve),
    }
    saved = {key: getattr(*key) for key in patched}
    for (module, name), fn in patched.items():
        setattr(module, name, fn)
    try:
        cli.cmd_sweep(cli.load_config(str(path)), None, "auto")
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)
    return rows


def _line(name: str, rows: list[tuple[int, int, dict]]) -> str:
    probes, evals, phases = zip(*rows)
    split = " ".join(f"{sum(p[phase] for p in phases) / len(rows):7.1f}" for phase in PHASES)
    return (f"{name:34s} {len(rows):4d} {sum(probes) / len(rows):7.2f} {max(probes):4d}"
            f" {sum(evals) / len(rows):8.1f} {max(evals):5d} {split}")


def main(argv: list[str]) -> int:
    configs = sorted((Path(argv[1]) if len(argv) > 1 else ROOT / "configs").glob("*.cfg"))
    print(f"{'config':34s} rows  probes  max    evals   max "
          + " ".join(f"{phase:>7s}" for phase in PHASES))
    everything = []
    for path in configs:
        rows = sweep_counts(path)
        everything += rows
        print(_line(path.stem, rows))
    print(_line("total", everything))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
