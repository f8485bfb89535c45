"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
canned numbers; nothing here runs the benchmark."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("op_p98_ms", "lower", 0.25), ("ops_per_s", "higher", 0.25)]


def canned_pairs():
    parent = [(3.0, 100.0), (2.0, 200.0), (4.0, 150.0), (2.5, 120.0)]
    change = [(2.0, 150.0), (1.6, 200.0), (2.0, 180.0), (2.6, 100.0)]
    return [
        {"pair": k, "first": "parent" if k % 2 == 0 else "change",
         "attempted": {"parent": 600, "change": 600},
         "parent": {"op_p98_ms": p98, "ops_per_s": ops}, "parent_failed": 0,
         "change": {"op_p98_ms": c98, "ops_per_s": cops}, "change_failed": 3 * (k == 1)}
        for k, ((p98, ops), (c98, cops)) in enumerate(zip(parent, change))
    ]


def test_summary_of_a_lower_is_better_metric():
    got = bench_pairs.summarize(canned_pairs(), METRICS)["op_p98_ms"]
    assert got["parent_q1_median_q3"] == pytest.approx([2.375, 2.75, 3.25])
    assert got["change_q1_median_q3"] == pytest.approx([1.9, 2.0, 2.15])
    assert got["change_wins"] == "3/4"
    assert got["relative_worsening_of_median"] == round(-0.75 / 2.75, 4)
    # per-pair gains 1.5, 1.25, 2.0 and 2.5/2.6
    assert got["median_pair_gain"] == 1.375
    # the medians lie 0.75 apart, inside the parent's IQR of 0.875
    assert got["median_gain_exceeds_parent_iqr"] is False
    assert (got["better"], got["bound"]) == ("lower", 0.25)


def test_summary_of_a_higher_is_better_metric_counts_no_tie_as_a_win():
    got = bench_pairs.summarize(canned_pairs(), METRICS)["ops_per_s"]
    assert got["parent_q1_median_q3"] == pytest.approx([115.0, 135.0, 162.5])
    assert got["change_q1_median_q3"][1] == pytest.approx(165.0)
    assert got["change_wins"] == "2/4"  # pair 1 ties at 200
    assert got["relative_worsening_of_median"] == round(-30 / 135, 4)
    assert got["median_pair_gain"] == pytest.approx(1.1)
    assert got["median_gain_exceeds_parent_iqr"] is False


def test_a_gap_wider_than_the_parent_iqr_is_flagged():
    pairs = canned_pairs()
    for p in pairs:
        p["change"]["op_p98_ms"] = 1.0
    assert bench_pairs.summarize(pairs, METRICS)["op_p98_ms"][
        "median_gain_exceeds_parent_iqr"] is True


def _run(result, spec):
    return {"result_digest": {"w seed=1 ops=600": result},
            "spec_sha256": {"w seed=1 ops=600 spec": spec}}


def test_seed_block_counts_failures_and_compares_digests():
    pairs = canned_pairs()
    same = [_run("aa", "bb")] * 8
    block = bench_pairs.seed_block(pairs, same, True, METRICS)
    assert block["fail_frac"] == {"parent": 0.0, "change": 3 / 2400}
    assert block["result_digest_equal_across_all_runs"] is True
    assert block["spec_sha256_equal_across_all_runs"] is True
    moved = bench_pairs.seed_block(pairs, same[:7] + [_run("ab", "bb")], True, METRICS)
    assert (moved["result_digest_equal_across_all_runs"],
            moved["spec_sha256_equal_across_all_runs"]) == (False, True)
    assert not bench_pairs.seed_block(pairs, same, False, METRICS)[
        "result_digest_equal_across_all_runs"]


def test_a_changed_spec_does_not_read_as_changed_outputs():
    """A declared change of the spec's wire format moves spec_sha256 and
    leaves the result digest, and the block says so field by field."""
    runs = [_run("aa", "bb"), _run("aa", "cc")] * 4
    block = bench_pairs.seed_block(canned_pairs(), runs, True, METRICS)
    assert block["result_digest_equal_across_all_runs"] is True
    assert block["spec_sha256_equal_across_all_runs"] is False


def test_digest_block_compares_results_and_specs_apart(monkeypatch):
    def fake_run_side(checkout, workload, seed, seconds):
        spec = "bb" if checkout == "parent-dir" else "cc"
        return {"result_digest": {f"w seed={seed} ops=600": f"r{seed}"},
                "spec_sha256": {f"w seed={seed} ops=600 spec": spec}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    dirs = {"parent": "parent-dir", "change": "change-dir"}
    block = bench_pairs.digest_block(dirs, "w", [1, 2])
    assert (block["result_digest_equal"], block["spec_sha256_equal"]) == (True, False)
    assert block["values"] == {"w seed=1 ops=600": "r1", "w seed=1 ops=600 spec": "cc",
                               "w seed=2 ops=600": "r2", "w seed=2 ops=600 spec": "cc"}
    assert block["parent_spec_sha256"] == {"w seed=1 ops=600 spec": "bb",
                                           "w seed=2 ops=600 spec": "bb"}


def test_parse_run_reads_the_metrics_and_the_whole_pass_digest():
    stdout = "\n".join([
        "surject-n2  op_p98_ms                                                   2.1 ms",
        "surject-n2  result_digest " + "1" * 64 + " (first 200 ops)",
        "surject-n2  result_digest " + "2" * 64 + " (first 600 ops)",
        "surject-n2  spec_sha256   " + "3" * 64,
        '{"correct": true, "attempted": 1200, "failed": 0,'
        ' "metrics": {"op_p98_ms": {"value": 2.1, "unit": "ms"}}}',
    ])
    got = bench_pairs.parse_run(stdout, 7)
    assert got == {
        "metrics": {"op_p98_ms": 2.1}, "attempted": 1200, "failed": 0, "correct": True,
        "result_digest": {"surject-n2 seed=7 ops=600": "2" * 64},
        "spec_sha256": {"surject-n2 seed=7 ops=600 spec": "3" * 64},
    }


def test_metrics_come_from_benchmark_json():
    names = [name for name, _, _ in bench_pairs.end_to_end_metrics()]
    assert {"setup_s", "op_p98_ms", "ops_per_s", "peak_rss_mb"} <= set(names)


def test_a_checkout_with_digest_history_is_refused(tmp_path, monkeypatch, capsys):
    """A checkout that keeps perfbench/out/digests.json from earlier runs is
    refused with exit 2, naming the file, before anything runs."""
    def no_run(*args, **kwargs):
        raise AssertionError("ran the benchmark")

    monkeypatch.setattr(bench_pairs, "run_side", no_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "perfbench" / "out").mkdir(parents=True)
    change.mkdir()
    stale = parent / "perfbench" / "out" / "digests.json"
    stale.write_text("{}")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w",
            "--seeds", "1", "--pairs", "1", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert str(stale) in capsys.readouterr().err
    assert not out.exists()
