"""Count the work of the rate search on the shipped sweep configs.

For each config in ``configs/`` it runs the sweep in-process and prints the
mean number of probes (``OptResult.steps``: rates whose AN-ratio interval was
solved) and of curve evaluations per row, the largest of each over the rows,
and the same figures over all rows. A curve evaluation is one call of
``closedform.log_sf_at``, the kernel entry of both the boundary prediction
and the interval solves. Run from the repository root:

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


def sweep_counts(path: Path) -> list[tuple[int, int]]:
    """(probes, curve evaluations) of each row of the sweep in ``path``."""
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

    cf.log_sf_at, opt.maximize_for = counting_kernel, counting_maximize
    try:
        cli.cmd_sweep(cli.load_config(str(path)), None, "auto")
    finally:
        cf.log_sf_at, opt.maximize_for = kernel, maximize
    return rows


def _line(name: str, rows: list[tuple[int, int]]) -> str:
    probes, evals = zip(*rows)
    return (f"{name:34s} {len(rows):4d} {sum(probes) / len(rows):7.2f} {max(probes):4d}"
            f" {sum(evals) / len(rows):8.1f} {max(evals):5d}")


def main(argv: list[str]) -> int:
    configs = sorted((Path(argv[1]) if len(argv) > 1 else ROOT / "configs").glob("*.cfg"))
    print(f"{'config':34s} rows  probes  max    evals   max")
    everything = []
    for path in configs:
        rows = sweep_counts(path)
        everything += rows
        print(_line(path.stem, rows))
    print(_line("total", everything))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
