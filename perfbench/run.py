"""secrate benchmark: one workload per run, one thread, outputs checked.

    python3 perfbench/run.py --workload sweep_figures --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Runs the named workload (see ``workloads.py``) from the root of a checkout,
importing the package from that checkout's ``src``. It starts operations for
``--seconds`` seconds and until every input has run once, checks every
output, prints a report, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics that ``BENCHMARK.json``
declares (its ``end_to_end`` list with ``--trace 0``, its ``per_layer`` list
with ``--trace 1``). A traced run also writes its spans to
``perfbench/out/``. Exits 2 without a result when the program or its inputs
are missing.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_PROBE_TIMEOUT_S = 120


def import_program():
    """Import secrate from this checkout (never from elsewhere), then the
    benchmark modules that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import secrate
    if Path(secrate.__file__).resolve().parent != src / "secrate":
        raise ImportError(f"secrate resolved to {secrate.__file__}, not {src}")
    import tracing
    import workloads
    return workloads, tracing


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(), "seed": seed,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def set_up(workload_cls):
    """Load and validate the inputs, then one untimed warm-up operation."""
    workload = workload_cls()
    return workload, workload.warm_up()


def seeded_cycle(inputs: list, seed: int):
    """The inputs over and over, each pass in a new order drawn from ``seed``."""
    import numpy as np
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(inputs)):
            yield inputs[i]


def setup_seconds(name: str) -> list[float]:
    """Set-up time of fresh processes: import, inputs and warm-up op."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
            check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]):
    """(percentile, value): p90 from 100 samples up, else the highest
    percentile with at least ten samples beyond it; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = 90 if n >= 100 else math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct * n / 100) - 1]


def per_op(spans, name: str | None) -> dict:
    """op -> summed duration of the spans called ``name`` (the root if None)."""
    out: dict = {}
    for s in spans:
        if s.op is not None and s.op >= 0 and s.name == (name or "op"):
            out[s.op] = out.get(s.op, 0.0) + s.duration
    return out


def timing_report(workload, spans) -> tuple[dict, list[tuple]]:
    """End-to-end values plus the named report lines (name, value, unit, note).

    An input that ran more than once counts once, with its median time, so
    that the values do not depend on which inputs a run happened to repeat.
    """
    roots = {s.op: s for s in spans if s.name == "op" and s.op >= 0}

    def by_input(durations: dict) -> dict:
        groups: dict = {}
        for op, duration in durations.items():
            groups.setdefault(roots[op].attrs["input"], []).append(duration)
        return {key: statistics.median(values) for key, values in groups.items()}

    wall = by_input(per_op(spans, None))
    latency = list(by_input(per_op(spans, workload.latency_span)).values())
    e2e = {"ops_per_s": len(wall) / sum(wall.values()),
           "op_ms_p50": 1e3 * statistics.median(latency)}
    n = f"n={len(wall)} inputs, {len(roots)} ops"
    lines = []

    def latency_lines(prefix, values):
        lines.append((f"{prefix}_p50", 1e3 * statistics.median(values), "ms", n))
        t = tail(values)
        if t:
            lines.append((f"{prefix}_p{t[0]}", 1e3 * t[1], "ms", n))

    if workload.name == "sweep_figures":
        lines.append(("sweep_rows_per_s", e2e["ops_per_s"], "1/s", n))
        latency_lines("sweep_row_ms", latency)
    elif workload.name == "optimize_mix":
        lines.append(("optimize_per_s", len(latency) / sum(latency), "1/s", n))
        latency_lines("optimize_ms", latency)
        oracle = by_input(per_op(spans, "optimizer.grid_search_oracle"))
        latency_lines("oracle_ms", list(oracle.values()))
        lines.append(("scenarios_per_s", e2e["ops_per_s"], "1/s", "rate sweep + oracle"))
    else:
        cases = {s.attrs["input"]: s.attrs for s in roots.values()}
        for label, multi in (("m1", False), ("multi", True)):
            mine = [key for key, attrs in cases.items() if (attrs["m"] > 1) == multi]
            lines.append((f"verify_{label}_trials_per_s",
                          sum(cases[key]["trials"] for key in mine)
                          / sum(wall[key] for key in mine), "1/s", f"n={len(mine)} configs"))
        lines.append(("verify_ms_p50", e2e["op_ms_p50"], "ms", n))
    return e2e, lines


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------

def run_workload(wl, tracing, name: str, seed: int, seconds: float, trace: bool):
    cls = wl.WORKLOADS[name]
    light = tracing.Tracer(tracing.LIGHT_SPANS)
    full = tracing.Tracer(tracing.FULL_SPANS, tracing.FULL_HOT) if trace else None
    if trace:
        (workload, problems), _ = full.run(-1, lambda: set_up(cls))
        setup = None
    else:
        setup = setup_seconds(name)
        workload, problems = set_up(cls)
    problems = list(problems)

    # The warm-up operation is checked too. A run covers every input at least
    # once, even if that takes longer than ``seconds``. In a traced run the
    # first ``paired_ops`` operations also run untraced, alternating which
    # goes first, so that the overhead is measured on the same work.
    ops = seeded_cycle(workload.inputs, seed)
    attempted, failed = 1, int(bool(problems))
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or i < len(workload.inputs):
        op = next(ops)
        if not trace:
            tracers = [light]
        elif i < workload.paired_ops:
            tracers = [light, full] if i % 2 == 0 else [full, light]
        else:
            tracers = [full]
        for tracer in tracers:
            attempted += 1
            try:
                output, _ = tracer.run(i, lambda: workload.run(op),
                                       dict(op.attrs or {}, input=op.label))
                found = workload.check(op, output)
            except Exception as exc:  # an operation that raises counts as failed
                found = [f"{op.label}: {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                problems += found
        i += 1

    self_test = workload.self_test()
    e2e, lines = timing_report(workload, light.spans)
    lines.append(("fail_frac", failed / attempted, "", f"{failed}/{attempted} ops"))
    if trace:
        metrics = tracing.layer_metrics(full.spans, len(workload.inputs))
        untraced = per_op(light.spans, None)
        traced = per_op(full.spans, None)
        metrics["trace.overhead_frac"] = (
            sum(traced[op] for op in untraced) / sum(untraced.values()) - 1.0)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        full.write(out / f"spans-{name}-seed{seed}.jsonl.gz")
    else:
        metrics = dict(e2e, setup_s=statistics.median(setup))
        lines.insert(0, ("setup_s", metrics["setup_s"], "s",
                         f"median of {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup)))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "self_test": self_test, "metrics": metrics, "lines": lines}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_figures", "optimize_mix", "verify_mc", "all"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to start operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wl, tracing = import_program()
        if args.setup_probe:
            set_up(wl.WORKLOADS[args.workload])
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        declared = declared_metrics(bool(args.trace))
        names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
        env = environment(args.seed)
        print("env " + json.dumps(env), flush=True)
        runs = {}
        for name in names:
            runs[name] = run_workload(wl, tracing, name, args.seed, args.seconds,
                                      bool(args.trace))
    except (ImportError, OSError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, run in runs.items():
        print(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for label, value, unit, note in run["lines"]:
            print(f"  {label:<30} {value:>14.6g} {unit:<4} {note}")
        for problem in run["problems"][:20]:
            print(f"  FAILED {problem}")
        for problem in run["self_test"]:
            print(f"  CHECKER SELF-TEST FAILED {problem}")
        if args.trace:
            for label, value in sorted(run["metrics"].items()):
                print(f"  {label:<42} {value:>14.6g}")
        prefix = f"{name}." if len(runs) > 1 else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": run["metrics"][m["name"]],
                                           "unit": m["unit"]}
    result = {
        "correct": all(r["failed"] == 0 and not r["self_test"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
