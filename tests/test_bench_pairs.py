"""tools/bench_pairs.py: the paired summary and its bound verdict."""

import importlib.util
import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "rounds_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}


def _runs(pairs, name):
    out = []
    for seed, (parent, change) in enumerate(pairs):
        for side, value in (("parent", parent), ("change", change)):
            out.append({"seed": seed, "side": side, "correct": True, "failed": 0,
                        "attempted": 1, name: value})
    return out


def test_within_bound_on_both_sides_of_the_bound():
    assert bench_pairs.within_bound(0.75, HIGHER)
    assert not bench_pairs.within_bound(0.74, HIGHER)
    assert bench_pairs.within_bound(1.05, LOWER)
    assert not bench_pairs.within_bound(1.06, LOWER)
    assert bench_pairs.within_bound(3.0, HIGHER) and bench_pairs.within_bound(0.1, LOWER)


def test_compare_records_the_bound_verdict_of_the_median_ratio():
    # ratios 0.5, 0.9, 1.2: the median 0.9 is within 0.25, though one pair is not
    got = bench_pairs.compare(_runs([(10, 5), (10, 9), (10, 12)], "rounds_per_s"), [HIGHER])
    s = got["rounds_per_s"]
    assert s["median_paired_ratio"] == 0.9 and s["bound"] == 0.25 and s["within_bound"]
    assert s["change_wins"] == 1 and s["pairs"] == 3
    got = bench_pairs.compare(_runs([(40, 43), (40, 42)], "peak_rss_mb"), [LOWER])
    assert not got["peak_rss_mb"]["within_bound"]


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.pair_order(k)[0] for k in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(bench_pairs.pair_order(k)) == ["change", "parent"] for k in range(4))


def test_run_pytest_times_a_node_with_the_checkout_src_on_the_path(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe_mod.py").write_text("VALUE = 3\n")
    (tmp_path / "test_probe.py").write_text(
        "import probe_mod\n\n"
        "def test_ok():\n    assert probe_mod.VALUE == 3\n\n"
        "def test_bad():\n    assert probe_mod.VALUE == 4\n")
    ok = bench_pairs.run_pytest(str(tmp_path), "test_probe.py::test_ok")
    assert ok["correct"] and ok["failed"] == 0 and ok["attempted"] == 1 and ok["wall_s"] > 0
    bad = bench_pairs.run_pytest(str(tmp_path), "test_probe.py::test_bad")
    assert not bad["correct"] and bad["failed"] == 1


def test_compare_summarizes_wall_seconds_without_a_bound():
    # ratios 0.8, 0.9, 1.1: the change is faster in two pairs of three
    got = bench_pairs.compare(_runs([(10, 8), (10, 9), (10, 11)], "wall_s"), [bench_pairs.WALL])
    s = got["wall_s"]
    assert s["median_paired_ratio"] == 0.9 and s["change_wins"] == 2 and s["pairs"] == 3
    assert s["bound"] is None and s["within_bound"]
    assert got["all_correct"] and got["attempted"] == {"parent": 3, "change": 3}


def test_run_once_records_the_exit_code_of_every_run(tmp_path):
    # the workload arguments reach the command as its sys.argv
    silent = bench_pairs.run_once(str(tmp_path), [sys.executable, "-c", "raise SystemExit(3)"],
                                  "w", 1, 0.5)
    assert silent == {"correct": False, "attempted": 0, "failed": 0, "exit": 3}
    line = json.dumps({"correct": True, "attempted": 4, "failed": 1,
                       "metrics": {"rounds_per_s": {"value": 12.5}}})
    ok = bench_pairs.run_once(str(tmp_path), [sys.executable, "-c", f"print({line!r})"],
                              "w", 1, 0.5)
    assert ok == {"correct": True, "attempted": 4, "failed": 1, "exit": 0, "rounds_per_s": 12.5}


def test_unknown_workload_is_a_usage_error_before_any_run(monkeypatch, capsys):
    def export(rev, into):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
        return rev

    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", "probe", "--parent", "a",
                                      "--change", "b", "--seeds", "1-10",
                                      "--workloads", "quad-sweep,quad-swep"])
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main()
    assert exit_info.value.code == 2
    assert "--workloads: quad-swep not among BENCHMARK.json's quad-sweep" in capsys.readouterr().err
