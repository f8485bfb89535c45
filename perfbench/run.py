#!/usr/bin/env python3
"""ultrametrica benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload surject-n1 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run builds the workload's inputs from the seed
(untimed), times the set-up several times, then replays the same fixed
set of ops in whole passes until ``--seconds`` have elapsed, and prints
the end-to-end metrics.  With ``--trace 1`` it times one untraced set-up
and pass over the first ``TRACED_OPS`` inputs, repeats them with every
measured library function wrapped in a span, and prints the per-layer
metrics.  The last line of standard output is always the JSON result;
the lines before it are the same numbers for a human reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_SETUPS = 3        # set-up repetitions, at least ...
SETUP_BUDGET_S = 1.0  # ... and more while they fit in this budget,
MAX_SETUPS = 25       # ... up to this many
TRACED_OPS = 200      # ops covered by the traced run

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p98_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


# The traced run's table: calls and self time of every wrapped function,
# then the counters and shares derived from the spans.
PER_LAYER = tuple(
    row for name in spans.SPAN_NAMES
    for row in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))
) + (
    ("series.mul.products", "count", "lower"),
    ("series.mul.terms_out", "count", "lower"),
    ("series.mul.kept_ratio", "ratio", "higher"),
    ("tatealg.evaluate.terms_in", "count", "lower"),
    ("gleason.oracle.monomial.hits", "count", "higher"),
    ("io.spec_json_bytes", "B", "lower"),
    ("setup.build_schedule_share", "ratio", "lower"),
    ("op_tail.oracle_schedule_share", "ratio", "lower"),
    ("op_tail.evaluate_share", "ratio", "lower"),
    ("op_rest.oracle_schedule_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def nearest_rank(sorted_values, q):
    """The q-quantile by the nearest-rank rule (no interpolation)."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload, state, items, latencies=None, tracer=None):
    """Run every op once, in order.  Returns (seconds in ops, failed ops,
    {op count: digest of the outputs so far}, op span indices).  The
    digest after ``TRACED_OPS`` ops is kept so that a traced run can be
    compared with a full pass; output serialisation is untimed."""
    digest = hashlib.sha256()
    digests = {}
    clock = time.perf_counter
    busy = 0.0
    failed = 0
    op_spans = []
    for i, item in enumerate(items):
        if tracer is None:
            t0 = clock()
            ok, output = workload.op(state, i, item)
            dt = clock() - t0
        else:
            with tracer.span("bench.op") as idx:
                t0 = clock()
                ok, output = workload.op(state, i, item)
                dt = clock() - t0
            op_spans.append(idx)
        busy += dt
        if latencies is not None:
            latencies[i].append(dt)
        failed += not ok
        digest.update(json.dumps(workload.output_json(output), sort_keys=True).encode())
        digest.update(b"\n")
        if i + 1 == TRACED_OPS:
            digests[TRACED_OPS] = digest.hexdigest()
    digests[len(items)] = digest.hexdigest()
    return busy, failed, digests, op_spans


def timed_setups(workload, inputs):
    """Repeat the set-up; returns (median seconds, repetitions, spec JSON
    of the last one, state of the last one, whether all specs agreed)."""
    times = []
    spec = None
    same = True
    state = None
    started = time.perf_counter()
    while len(times) < MIN_SETUPS or (
            time.perf_counter() - started < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        state = None  # let the previous build go before timing the next
        t0 = time.perf_counter()
        state = workload.setup(inputs)
        times.append(time.perf_counter() - t0)
        blob = workload.spec_json(state)
        same = same and (spec is None or blob == spec)
        spec = blob
    return statistics.median(times), len(times), spec, state, same


def timed_run(workload, seed: int, seconds: float) -> dict:
    inputs = workload.generate(seed, workload.n_inputs)
    setup_s, setups, spec, state, specs_agree = timed_setups(workload, inputs)
    items = workload.items(state)
    latencies = [[] for _ in items]
    pass_s, digests, failed = [], [], 0
    started = time.perf_counter()
    while True:
        busy, fails, digest, _ = run_pass(workload, state, items, latencies)
        pass_s.append(busy)
        digests.append(digest)
        failed += fails
        if time.perf_counter() - started >= seconds:
            break
    per_op = sorted(statistics.median(v) for v in latencies)
    loop_s = statistics.median(pass_s)
    notes = []
    if not specs_agree:
        notes.append("set-up produced different specs across repetitions")
    if any(d != digests[0] for d in digests):
        notes.append("passes over the same inputs produced different outputs")
    return {
        "metrics": {
            "setup_s": setup_s,
            "total_s": setup_s + loop_s,
            "ops_per_s": len(items) / loop_s,
            "op_p50_ms": 1e3 * nearest_rank(per_op, 0.50),
            "op_p98_ms": 1e3 * nearest_rank(per_op, 0.98),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "attempted": len(items) * len(pass_s),
        "failed": failed,
        "digests": digests[0],
        "spec_sha256": _sha256(spec),
        "notes": notes,
        "samples": {"ops": len(items), "passes": len(pass_s), "setups": setups,
                    "ops_beyond_p98": len(per_op) - math.ceil(0.98 * len(per_op))},
    }


def traced_run(workload, seed: int, ops: int = TRACED_OPS, stem: str = None) -> dict:
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span("bench.generate"):
            inputs = workload.generate(seed, min(ops, workload.n_inputs))
    # Untraced reference over the same work, for the overhead ratio.
    t0 = time.perf_counter()
    state = workload.setup(inputs)
    plain_setup = time.perf_counter() - t0
    plain_busy, _, plain_digest, _ = run_pass(workload, state, workload.items(state))
    state = None
    with tracer.installed():
        with tracer.span("bench.setup") as setup_idx:
            t0 = time.perf_counter()
            state = workload.setup(inputs)
            traced_setup = time.perf_counter() - t0
        items = workload.items(state)
        busy, failed, digest, op_spans = run_pass(workload, state, items, tracer=tracer)
    spec = workload.spec_json(state)

    calls, _, self_ns = tracer.summary()
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    c = tracer.counters
    products = c["series.mul.products"]
    metrics.update({
        "series.mul.products": products,
        "series.mul.terms_out": c["series.mul.terms_out"],
        "series.mul.kept_ratio": c["series.mul.terms_out"] / products if products else 0.0,
        "tatealg.evaluate.terms_in": c["tatealg.evaluate.terms_in"],
        "gleason.oracle.monomial.hits": c["gleason.oracle.monomial.hits"],
        "io.spec_json_bytes": len(spec.encode()),
    })
    setup_ns = tracer.end[setup_idx] - tracer.start[setup_idx]
    build = tracer.inclusive_by_root("bench.setup", "gleason.build_schedule")
    metrics["setup.build_schedule_share"] = build[setup_idx] / setup_ns

    # Split the ops at their p95 latency and see where each group's time went.
    dur = {i: tracer.end[i] - tracer.start[i] for i in op_spans}
    cut = nearest_rank(sorted(dur.values()), 0.95)
    tail = [i for i in op_spans if dur[i] >= cut]
    rest = [i for i in op_spans if dur[i] < cut]
    sched = tracer.inclusive_by_root("bench.op", "gleason.oracle.schedule")
    evals = tracer.inclusive_by_root("bench.op", "tatealg.evaluate")

    def share(part, group):
        whole = sum(dur[i] for i in group)
        return sum(part[i] for i in group) / whole if whole else 0.0

    metrics["op_tail.oracle_schedule_share"] = share(sched, tail)
    metrics["op_tail.evaluate_share"] = share(evals, tail)
    metrics["op_rest.oracle_schedule_share"] = share(sched, rest)
    metrics["trace.spans"] = len(tracer)
    metrics["trace.overhead"] = (traced_setup + busy) / (plain_setup + plain_busy)
    if stem is not None:
        tracer.write(stem)
    notes = []
    if digest != plain_digest:
        notes.append("the traced pass produced different outputs")
    return {
        "metrics": metrics,
        "attempted": len(items),
        "failed": failed,
        "digests": digest,
        "spec_sha256": _sha256(spec),
        "notes": notes,
        "samples": {"ops": len(items), "spans": len(tracer)},
    }


def check_digest_history(key: str, result: dict, path: Path) -> None:
    """A run is wrong if an earlier run of the same workload and seed
    recorded other outputs or another spec for the same number of ops
    (the ``invert`` spec is the JSON of its units, so it depends on the
    count).  Records this run's digests."""
    seen = json.loads(path.read_text()) if path.exists() else {}
    entries = {f"{key} ops={n}": d for n, d in result["digests"].items()}
    entries[f"{key} ops={result['samples']['ops']} spec"] = result["spec_sha256"]
    for k, v in entries.items():
        if seen.get(k, v) != v:
            result["notes"].append(f"{k}: output digest differs from an earlier run")
    seen.update(entries)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(workload, args.seed, stem=str(OUT / f"trace-{args.workload}"))
        table = PER_LAYER
    else:
        result = timed_run(workload, args.seed, args.seconds)
        table = END_TO_END
    check_digest_history(f"{args.workload} seed={args.seed}", result,
                         OUT / "digests.json")

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    for name, unit, _ in table:
        print(f"{args.workload:<11} {name:<52} {metrics[name]:>14.6g} {unit}")
    print(f"{args.workload:<11} {'fail_frac':<52} {failed / attempted:>14.6g} 1")
    for n, digest in sorted(result["digests"].items()):
        print(f"{args.workload:<11} result_digest {digest} (first {n} ops)")
    print(f"{args.workload:<11} spec_sha256   {result['spec_sha256']}")
    print(f"{args.workload:<11} samples       {json.dumps(result['samples'])}")
    for note in result["notes"]:
        print(f"{args.workload:<11} ERROR {note}")
    correct = failed == 0 and not result["notes"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


def _import_library():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not (SRC / "ultrametrica" / "__init__.py").is_file():
        raise ImportError(f"no ultrametrica sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ultrametrica

    if Path(ultrametrica.__file__).resolve().parent != SRC / "ultrametrica":
        raise ImportError(f"imported ultrametrica from {ultrametrica.__file__}")


if __name__ == "__main__":
    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
