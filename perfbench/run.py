"""kbmerge benchmark: one closed-loop client, one process per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload merge_n100 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload all`` runs each workload in a child process of its own, so
that ``peak_rss_mib`` belongs to that workload alone, and prints their
results merged, with each metric name prefixed by its workload's name.

Untraced (``--trace 0``): set up the workload's inputs at least
SETUP_REPEATS times and for at least SETUP_MIN_S seconds in all
(``setup_s`` is the median), then run ops back to back until their summed
time reaches ``--seconds``. Every output is checked outside the timed
interval. Prints the end-to-end metrics.

The machine's speed drifts during and between runs, so after each set-up
and each op the run also times units of fixed reference work (see
``reference.py``), REF_SHARE of the measured time in all. Each op's and
each set-up's wall time is divided by the speed of the reference units
around it, so the times reported are those at the reference's nominal
speed. The wall times, unadjusted, are printed in the table as ``wall_*``.

Traced (``--trace 1``): run a fixed number of ops, each once untraced and
once with a span around every call into kbmerge. Prints the per-layer
metrics, a per-span table of inclusive and self time, and
``trace.overhead_ratio`` (traced loop time over untraced loop time). Writes
the spans as JSONL under OUT_DIR.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output was correct, 1 when some check failed and 2 when the
kbmerge sources are not found next to this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
REF_SHARE = 0.1
LOCAL = 8

E2E_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _timed_op(wl, index, inputs, api, checker):
    """Run one op, then check its output; return (seconds, output is correct)."""
    from kbmerge import KbError

    t0 = perf_counter()
    try:
        out = wl.op(inputs[index], api)
    except KbError:
        return perf_counter() - t0, False
    dt = perf_counter() - t0
    return dt, wl.check(checker, index, inputs[index], out)


def _p90(ms: list[float]) -> float:
    return statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]


def run_untraced(wl, seed: int, seconds: float):
    """Return (attempted, failed, metrics, extras); values are (value, unit)."""
    from reference import NOMINAL_MS, time_unit
    from workloads import PLAIN_API, Checker

    ref: list[float] = []
    spent = 0.0

    def gauge():
        # time reference units until they add up to REF_SHARE of the time
        # measured so far, so that every stretch of the run is gauged
        while sum(ref) < REF_SHARE * spent * 1000.0 or not ref:
            ref.append(time_unit())

    durations: list[float] = []
    setup_ref: list[tuple[int, int]] = []
    while len(durations) < SETUP_REPEATS or sum(durations) < SETUP_MIN_S:
        start = len(ref)
        t0 = perf_counter()
        inputs = wl.setup(seed)
        durations.append(perf_counter() - t0)
        spent += durations[-1]
        gauge()
        setup_ref.append((start, len(ref)))

    checker = Checker()
    times: list[float] = []
    op_ref: list[tuple[int, int]] = []
    total = 0.0
    failed = 0
    while total < seconds:
        start = len(ref)
        dt, ok = _timed_op(wl, len(times) % len(inputs), inputs, PLAIN_API, checker)
        times.append(dt)
        total += dt
        spent += dt
        failed += not ok
        gauge()
        op_ref.append((start, len(ref)))

    def speed(bounds):
        """Machine speed around one op or set-up: the median reference
        time of the units taken after it and LOCAL on either side, over
        NOMINAL_MS (above 1 means slower than nominal)."""
        lo, hi = bounds
        lo = max(0, min(lo, hi - 1) - LOCAL)
        return statistics.median(ref[lo:hi + LOCAL]) / NOMINAL_MS

    raw = sorted(t * 1000.0 for t in times)
    ms = sorted(t * 1000.0 / speed(b) for t, b in zip(times, op_ref))
    metrics = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": _p90(ms),
        "ops_per_s": len(ms) / sum(ms) * 1000.0,
        "setup_s": statistics.median(d / speed(b) for d, b in zip(durations, setup_ref)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {
        "failed_ratio": (failed / len(times), "ratio"),
        "ops": (len(times), "count"),
        "ops_beyond_p90": (sum(1 for x in ms if x > metrics["op_ms_p90"]), "count"),
        "distinct_inputs": (len(inputs), "count"),
        "setups": (len(durations), "count"),
        "reference_units": (len(ref), "count"),
        "reference_ms_p50": (statistics.median(ref), "ms"),
        "wall_op_ms_p50": (statistics.median(raw), "ms"),
        "wall_op_ms_p90": (_p90(raw), "ms"),
        "wall_ops_per_s": (len(times) / total, "1/s"),
        "wall_setup_s": (statistics.median(durations), "s"),
    }
    return len(times), failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extras


def run_traced(wl, seed: int, seconds: float):
    """Return (attempted, failed, metrics, extras); values are (value, unit).

    The op count is fixed by the arguments, so counts repeat exactly
    between runs with the same seed and seconds.
    """
    from tracing import LAYER_UNITS, Tracer, layer_metrics, self_times
    from workloads import PLAIN_API, Checker

    inputs = wl.setup(seed)
    n_ops = max(1, math.ceil(seconds * wl.trace_ops_per_s))
    checker = Checker()
    tracer = Tracer()
    traced_wl = replace(wl, op=tracer.wrap("op", wl.op))
    api = tracer.api()
    plain = traced = 0.0
    failed = 0
    # each op runs untraced and then traced, so that both loops see the same
    # warm-up and the same machine state
    for i in range(n_ops):
        index = i % len(inputs)
        dt, ok = _timed_op(wl, index, inputs, PLAIN_API, checker)
        plain += dt
        failed += not ok
        tracer.op = i
        with tracer.solver_checks():
            dt, ok = _timed_op(traced_wl, index, inputs, api, checker)
        traced += dt
        failed += not ok

    values = layer_metrics(tracer.spans, n_ops, traced / plain)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(f"  {'span':32s} {'calls':>8s} {'incl ms/op':>12s} {'self ms/op':>12s}")
    for name, (calls, incl, own) in self_times(tracer.spans, n_ops).items():
        print(f"  {name:32s} {calls:8d} {incl:12.4f} {own:12.4f}")
    metrics = {k: (values[k], unit) for k, unit in LAYER_UNITS.items()}
    return 2 * n_ops, failed, metrics, {"failed_ratio": (failed / (2 * n_ops), "ratio")}


def run_each_in_child(names, args) -> tuple[int, int, dict] | None:
    """Run each workload as a child ``run.py`` and merge the results.

    Returns (attempted, failed, metrics) with metric names prefixed by the
    workload's name, or None when a child printed no result.
    """
    attempted = failed = 0
    metrics = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return None
        print("\n".join(lines[:-1]))
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="merge_n100, pipeline_small, count_small or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "kbmerge" / "__init__.py").is_file():
        print(f"perfbench: no kbmerge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        merged = run_each_in_child(list(WORKLOADS), args)
        if merged is None:
            return 1
        attempted, failed, metrics = merged
    elif args.workload in WORKLOADS:
        wl = WORKLOADS[args.workload]
        print(f"== {wl.name} (seed {args.seed}, trace {args.trace})")
        run = run_traced if args.trace else run_untraced
        attempted, failed, values, extras = run(wl, args.seed, args.seconds)
        for key, (value, unit) in {**values, **extras}.items():
            print(f"  {key:32s} {value:14.4f} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        parser.error(f"unknown workload {args.workload!r}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
