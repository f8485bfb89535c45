"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They pin the workloads to the library's own acceptance load and CLI,
and check that tracing changes neither outputs nor counts.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ultrametrica import cli, gleason, series, valuegroup  # noqa: E402


def test_surject_op_records_match_cli_report():
    w = workloads.SurjectWorkload("small", [2], 32, 8, n_inputs=5,
                                  floor_exponent=10)
    report, _ = cli.run_surjection_trials(w.config, trials=5, depth=8, seed=7)
    state = w.setup(w.generate(7, 5))
    records = [w.op(state, i, beta)[1] for i, beta in enumerate(w.items(state))]
    assert records == report["cases"]
    assert all(r["ok"] for r in records)


def test_invert_seed_303_is_criterion_3(monkeypatch):
    """Run criterion 3 itself and record the units it inverts."""
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance_for_perfbench", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    seen = []

    def recording_invert(f, target):
        seen.append(f)
        return series.invert(f, target)

    monkeypatch.setattr(acceptance, "invert", recording_invert)
    w = workloads.make_workload("invert")
    acceptance.test_criterion_3_inversion(w.profile)
    assert len(seen) == 200
    assert w.setup(w.generate(303, 200)) == seen


def test_invert_op_counts_a_raising_op_as_failed():
    w = workloads.make_workload("invert", 1)
    ok, output = w.op(None, 0, series.series_zero(w.profile))
    assert not ok and "FloorTooCoarseError" in output["error"]


@pytest.mark.parametrize("name", ["invert", "surject-n1"])
def test_traced_run_matches_untraced_digest(name):
    w = workloads.make_workload(name, 12)
    timed = run.timed_run(w, seed=5, seconds=0)
    traced = run.traced_run(w, seed=5, ops=12)
    assert timed["failed"] == traced["failed"] == 0
    assert timed["notes"] == traced["notes"] == []
    assert traced["digests"][12] == timed["digests"][12]
    assert traced["spec_sha256"] == timed["spec_sha256"]


def test_traced_counts_repeat_exactly():
    w = workloads.make_workload("surject-n1", 12)

    def counts(result):
        return {k: v for k, v in result["metrics"].items() if isinstance(v, int)}

    first = counts(run.traced_run(w, seed=9, ops=12))
    second = counts(run.traced_run(w, seed=9, ops=12))
    assert first == second
    assert first["gleason.divide_step.calls"] == 12 * w.steps
    assert first["sampling.random_series.calls"] == 12


def test_tracer_restores_every_wrapped_function():
    originals = (series.mul, gleason.mul, valuegroup.Weight.sign,
                 gleason.SurjectionSpec.schedule_answer)
    one = series.one(valuegroup.make_profile(2, [valuegroup.FreeRadius(2)]))
    tracer = spans.Tracer()
    with tracer.installed():
        assert series.mul is gleason.mul is not originals[0]
        with tracer.span("bench.op"):
            series.mul(one, one)
        series.mul(one, one)  # outside every phase: not counted
    assert (series.mul, gleason.mul, valuegroup.Weight.sign,
            gleason.SurjectionSpec.schedule_answer) == originals
    calls, _, _ = tracer.summary()
    assert calls["series.mul"] == 1
    assert tracer.counters["series.mul.products"] == 1


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("bench.op"):
        with tracer.span("inner"):
            pass
    calls, total, self_ns = tracer.summary()
    assert calls == {"bench.op": 1, "inner": 1}
    assert self_ns["bench.op"] == total["bench.op"] - total["inner"]


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)


def test_nearest_rank_leaves_ten_ops_beyond_the_tail():
    # p98 of a 500-op pass and p95 of the 200 traced ops
    assert run.nearest_rank(list(range(500)), 0.98) == 489
    assert run.nearest_rank(list(range(200)), 0.95) == 189
    assert run.nearest_rank(list(range(200)), 0.50) == 99


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surject-n1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
