#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --parent-commit PARENT_SHA --change-commit CHANGE_SHA \\
        --workload surject-n2 --seeds 1 7 --pairs 10 5 --seconds 20 \\
        --digest-seeds 1 2 3 23 --claim "..." --out BENCH_surject-n2.json

Each checkout is a directory holding the files of one commit (a fresh
``git archive`` export, say); ``perfbench/run.py`` runs in it, against its
own ``src/``.  An export holds no ``.git``, so the record names the two
commits only as ``--parent-commit`` and ``--change-commit`` give them.
A checkout that already holds ``perfbench/out/digests.json`` is refused
(exit 2, naming the file); the runs write that file, and it is removed
again when the invocation ends, so one pair of exports serves every
workload.  For each seed in turn, pair k runs
both sides once with ``--seconds``: even pairs run the parent first, odd
pairs the change first.  The first seed is the claimed one (``seed_<s>`` in the output);
every later seed is held out (``held_out_seed_<s>``).  ``--pairs`` gives
one pair count per seed, or one for all.  Each seed's summary gives, per
end-to-end metric of BENCHMARK.json, both sides' quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the change's wins,
the relative worsening of the median, the median per-pair gain and
whether the gap between the medians exceeds the parent's interquartile
range.  With ``--digest-seeds`` both sides also run each of those seeds
for 0.1 s, and the result and spec digests are recorded and compared.
Result digests and spec hashes are compared apart, so a declared change
of the spec's wire format does not read as a change of the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
METHOD = ("alternating pairs (even pairs run the parent first, odd pairs the change"
          " first), each side from a fresh export of its commit; quartiles are"
          " statistics.quantiles(n=4, method='inclusive')")
DIGEST_SECONDS = 0.1
# perfbench/run.py's record of earlier runs' digests in a checkout.  It keys
# a spec hash by workload, seed and op count alone, so a checkout that keeps
# one from before a declared spec change reads "correct": false on right
# outputs; the pairs run only in checkouts without one, and the one their
# runs write is removed when the invocation ends.
DIGEST_HISTORY = Path("perfbench/out/digests.json")
_DIGEST_LINE = re.compile(r"^(\S+)\s+result_digest (\w+) \(first (\d+) ops\)$")
_SPEC_LINE = re.compile(r"^(\S+)\s+spec_sha256\s+(\w+)$")


def end_to_end_metrics(path: Path = ROOT / "BENCHMARK.json"):
    """(name, better, bound) of every end-to-end metric in BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run in checkout: its metric values, attempted and
    failed ops, the digest of its whole pass (``result_digest``) and the
    hash of its spec (``spec_sha256``), each labelled as
    perfbench/out/digests.json labels it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout, seed)


def parse_run(stdout: str, seed: int) -> dict:
    """run_side's record, read from the standard output of one run."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    passes, specs = [], []
    for line in lines:
        if m := _DIGEST_LINE.match(line):
            passes.append((int(m[3]), m[1], m[2]))
        if m := _SPEC_LINE.match(line):
            specs.append(m[2])
    n, name, digest = max(passes)  # the digest of a whole pass
    label = f"{name} seed={seed} ops={n}"
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "result_digest": {label: digest},
        "spec_sha256": {f"{label} spec": specs[0]},
    }


def run_pairs(dirs: dict, workload: str, seed: int, n_pairs: int, seconds: float,
              names):
    """n_pairs alternating pairs at one seed: (pair records, every run's
    record, whether every run was correct)."""
    pairs, runs, correct = [], [], True
    for k in range(n_pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        record = {"pair": k, "first": order[0], "attempted": {}}
        for side in order:
            run = run_side(dirs[side], workload, seed, seconds)
            record["attempted"][side] = run["attempted"]
            record[side] = {name: run["metrics"][name] for name in names}
            record[f"{side}_failed"] = run["failed"]
            runs.append(run)
            correct = correct and run["correct"]
        print(f"seed {seed} pair {k}: " + ", ".join(
            f"{side} op_p98_ms={record[side].get('op_p98_ms', float('nan')):.3f}"
            for side in SIDES))
        pairs.append(record)
    return pairs, runs, correct


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs, metrics) -> dict:
    """Per metric (name, better, bound): both sides' quartiles, the
    change's wins (a tie is no win), the median's relative worsening, the
    median per-pair gain (parent over change when lower is better, change
    over parent when higher is) and whether the medians lie further apart,
    in the change's favour, than the parent's interquartile range."""
    summary = {}
    for name, better, bound in metrics:
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        if better == "lower":
            wins = sum(c < q for q, c in zip(par, chg))
            gains = [q / c for q, c in zip(par, chg)]
            gap = pq[1] - cq[1]
        else:
            wins = sum(c > q for q, c in zip(par, chg))
            gains = [c / q for q, c in zip(par, chg)]
            gap = cq[1] - pq[1]
        summary[name] = {
            "better": better,
            "bound": bound,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": f"{wins}/{len(pairs)}",
            "relative_worsening_of_median": round(-gap / pq[1], 4),
            "median_pair_gain": round(statistics.median(gains), 4),
            "median_gain_exceeds_parent_iqr": gap > pq[2] - pq[0],
        }
    return summary


def fail_frac(pairs) -> dict:
    return {side: sum(p[f"{side}_failed"] for p in pairs)
            / sum(p["attempted"][side] for p in pairs) for side in SIDES}


def _all_equal(runs, key: str) -> bool:
    return all(run[key] == runs[0][key] for run in runs)


def seed_block(pairs, runs, correct, metrics) -> dict:
    return {
        "pairs": pairs,
        "summary": summarize(pairs, metrics),
        "result_digest_equal_across_all_runs": correct and _all_equal(runs, "result_digest"),
        "spec_sha256_equal_across_all_runs": _all_equal(runs, "spec_sha256"),
        "fail_frac": fail_frac(pairs),
    }


def digest_block(dirs: dict, workload: str, seeds) -> dict:
    """Both sides' result digests and spec hashes for each seed, from one
    short run each; the values are the change's, and the parent's spec
    hashes are added when they differ."""
    values = {side: {"result_digest": {}, "spec_sha256": {}} for side in SIDES}
    for seed in seeds:
        for side in SIDES:
            run = run_side(dirs[side], workload, seed, DIGEST_SECONDS)
            for key, got in values[side].items():
                got.update(run[key])
    parent, change = values["parent"], values["change"]
    block = {
        "result_digest_equal": parent["result_digest"] == change["result_digest"],
        "spec_sha256_equal": parent["spec_sha256"] == change["spec_sha256"],
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED"
                   f" --seconds {DIGEST_SECONDS}",
        "values": dict(sorted({**change["result_digest"], **change["spec_sha256"]}.items())),
    }
    if not block["spec_sha256_equal"]:
        block["parent_spec_sha256"] = dict(sorted(parent["spec_sha256"].items()))
    return block


def traced_block(dirs: dict, workload: str, seed: int, names) -> dict:
    """The named per-layer metrics of one traced run per side."""
    block = {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed}"
                        " --seconds 1 --trace 1"}
    for side in SIDES:
        metrics = run_side(dirs[side], workload, seed, 1, trace=1)["metrics"]
        block[side] = {name: metrics[name] for name in names}
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="the claimed seed, then held-out seeds")
    parser.add_argument("--pairs", type=int, nargs="+", required=True,
                        help="pairs per seed, or one count for all seeds")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--digest-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--trace-metrics", nargs="*", default=[],
                        help="per-layer metrics to record from one traced run per side")
    parser.add_argument("--parent-commit", default="", help="commit of the parent checkout")
    parser.add_argument("--change-commit", default="", help="commit of the change checkout")
    parser.add_argument("--claim", default="")
    parser.add_argument("--machine", default=f"{os.cpu_count()} vCPU {platform.machine()},"
                                             f" {platform.system()}")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.pairs) not in (1, len(args.seeds)):
        parser.error("give one pair count, or one per seed")
    counts = args.pairs * len(args.seeds) if len(args.pairs) == 1 else args.pairs

    metrics = end_to_end_metrics()
    names = [name for name, _, _ in metrics]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    stale = [str(d / DIGEST_HISTORY) for d in dirs.values() if (d / DIGEST_HISTORY).exists()]
    if stale:
        print(f"bench_pairs.py: {', '.join(stale)} holds earlier runs' digests, which can"
              " read as \"correct\": false; run on a fresh export of each commit",
              file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED"
                   f" --seconds {args.seconds:g}",
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "python": platform.python_version(),
        "machine": args.machine,
        "method": METHOD,
        "claim": args.claim,
    }
    try:
        for i, (seed, n_pairs) in enumerate(zip(args.seeds, counts)):
            pairs, runs, correct = run_pairs(dirs, args.workload, seed, n_pairs,
                                             args.seconds, names)
            key = f"seed_{seed}" if i == 0 else f"held_out_seed_{seed}"
            record[key] = seed_block(pairs, runs, correct, metrics)
        if args.digest_seeds:
            key = "digests_seeds_" + "_".join(map(str, args.digest_seeds))
            record[key] = digest_block(dirs, args.workload, args.digest_seeds)
        if args.trace_metrics:
            record["information_only"] = {
                "note": "not claimed; one traced run per side (perfbench/test_perfbench.py"
                        " checks that traced counts repeat exactly; self times are single"
                        " readings)",
                f"traced_seed_{args.seeds[0]}": traced_block(
                    dirs, args.workload, args.seeds[0], args.trace_metrics),
            }
    finally:
        # No checkout held a history before the runs, so this invocation
        # wrote every one that is there now.
        for d in dirs.values():
            (d / DIGEST_HISTORY).unlink(missing_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
