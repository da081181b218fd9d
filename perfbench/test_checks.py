"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench

Each check is shown to pass on a real output and to reject the same output
with one deliberate fault, so no check can pass vacuously.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fedpart import fedcore, harness  # noqa: E402

QUAD = dict(objective="quadratic", n=6, m=3, K=4, T=30, d_u=3, d_v=2,
            spread=1.0, sigma_u=0.5, sigma_v=0.5, gamma=0.01)


def run(tmp_path, **over):
    cfg = harness.config_from_mapping({**QUAD, "output": str(tmp_path / "t.csv"), **over})
    oracle = harness.build_oracle(cfg)
    result = fedcore.run_training(cfg.algorithm, oracle, cfg.hyper_params(), cfg.seed)
    rows = checks.parse_trace(harness.trace_csv_text(result.traces))
    return cfg, oracle, result, rows


def replace_row(rows, k, **fields):
    return rows[:k] + [checks.TraceRow(**{**rows[k].__dict__, **fields})] + rows[k + 1:]


# ---------------------------------------------------------------- quadratic


@pytest.fixture(scope="module")
def quad_run(tmp_path_factory):
    return run(tmp_path_factory.mktemp("quad"), algorithm="scaffold_p")


def test_quadratic_final_accepts_real_run(quad_run):
    cfg, oracle, result, rows = quad_run
    u, V = workloads.final_state(result)
    checks.check_quadratic_final(rows, oracle.centers_u, oracle.centers_v, u, V, cfg.m)


@pytest.mark.parametrize("block", ["u", "v"])
def test_quadratic_final_rejects_nudged_iterate(quad_run, block):
    cfg, oracle, result, rows = quad_run
    u, V = workloads.final_state(result)
    if block == "u":
        u = u + np.array([1e-6, 0.0, 0.0])
    else:
        V = V.copy()
        V[2, 1] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_quadratic_final(rows, oracle.centers_u, oracle.centers_v, u, V, cfg.m)


def test_quadratic_final_rejects_wrong_m(quad_run):
    cfg, oracle, result, rows = quad_run
    u, V = workloads.final_state(result)
    with pytest.raises(checks.CheckError, match="grad_norm_v_hat"):
        checks.check_quadratic_final(rows, oracle.centers_u, oracle.centers_v, u, V, cfg.m + 1)


def test_quadratic_final_rejects_f_below_infimum(quad_run):
    cfg, oracle, _, rows = quad_run
    # at (abar, b_i) f equals b^2/2 exactly; a trace claiming less is wrong
    u = oracle.centers_u.mean(axis=0)
    V = oracle.centers_v.copy()
    f, g_u, g_v, g_v_hat = checks.quadratic_reference(oracle.centers_u, V, u, V, cfg.m)
    rows = replace_row(rows, len(rows) - 1, f_value=f, grad_norm_u=g_u,
                       grad_norm_v=g_v, grad_norm_v_hat=g_v_hat)
    checks.check_quadratic_final(rows, oracle.centers_u, oracle.centers_v, u, V, cfg.m)
    low = np.nextafter(f, -np.inf)
    with pytest.raises(checks.CheckError, match="below inf"):
        checks.check_quadratic_final(replace_row(rows, len(rows) - 1, f_value=low),
                                     oracle.centers_u, oracle.centers_v, u, V, cfg.m)


def test_control_mean_accepts_real_run_and_rejects_drift(quad_run):
    c, C = workloads.control_state(quad_run[2])
    checks.check_control_mean(c, C)
    with pytest.raises(checks.CheckError):
        checks.check_control_mean(c + np.array([1e-9, 0.0, 0.0]), C)


# ------------------------------------------------------------------- rounds


def test_rounds_accepts_real_trace(quad_run):
    cfg, _, _, rows = quad_run
    checks.check_rounds(rows, cfg.T, cfg.m, cfg.n)
    checks.check_measure_decreases(rows)


def test_rounds_rejects_missing_row(quad_run):
    cfg, _, _, rows = quad_run
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_rounds(rows[:7] + rows[8:], cfg.T, cfg.m, cfg.n)
    with pytest.raises(checks.CheckError, match="numbered"):
        checks.check_rounds(rows[:7] + rows[8:] + rows[-1:], cfg.T, cfg.m, cfg.n)


@pytest.mark.parametrize("sampled", [(2, 2, 5), (5, 2, 3), (0, 2, 3), (2, 3, 7), (1, 2)])
def test_rounds_rejects_bad_sampled_set(quad_run, sampled):
    cfg, _, _, rows = quad_run
    with pytest.raises(checks.CheckError):
        checks.check_rounds(replace_row(rows, 4, sampled=sampled), cfg.T, cfg.m, cfg.n)


def test_measure_rejects_no_progress(quad_run):
    rows = quad_run[3]
    with pytest.raises(checks.CheckError):
        checks.check_measure_decreases(rows[::-1])


# -------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    base = {k: v for k, v in QUAD.items() if k != "K"}
    spec = harness.SweepSpec(base={**base, "T": 12}, axis="K", values=[1, 3],
                             seeds=[4, 5], out_dir=str(out))
    summary = harness.run_sweep(spec)
    with open(summary) as f:
        text = f.read()
    cell_rows = {}
    for row in checks.parse_summary(text):
        if row[2] != "mean":
            with open(row[5]) as f:
                cell_rows[row[5]] = checks.parse_trace(f.read())
    return spec, text, cell_rows


def test_summary_accepts_real_sweep(sweep):
    spec, text, cell_rows = sweep
    checks.check_summary(text, "K", spec.values, spec.seeds, cell_rows)


def _nudge_floor(text, line_no):
    lines = text.split("\n")
    f = lines[line_no].split(",")
    f[3] = format(float(np.nextafter(float(f[3]), np.inf)), ".17g")
    lines[line_no] = ",".join(f)
    return "\n".join(lines)


@pytest.mark.parametrize("line_no", [2, 5], ids=["cell", "mean"])
def test_summary_rejects_floor_off_by_one_ulp(sweep, line_no):
    spec, text, cell_rows = sweep
    with pytest.raises(checks.CheckError, match="floor"):
        checks.check_summary(_nudge_floor(text, line_no), "K", spec.values, spec.seeds, cell_rows)


def test_summary_rejects_missing_cell_row(sweep):
    spec, text, cell_rows = sweep
    lines = text.split("\n")
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_summary("\n".join(lines[:2] + lines[3:]), "K", spec.values,
                             spec.seeds, cell_rows)


def test_summary_rejects_trace_with_row_missing(sweep):
    spec, text, cell_rows = sweep
    first = next(iter(cell_rows))
    short = {**cell_rows, first: cell_rows[first][:-1]}
    with pytest.raises(checks.CheckError, match="floor"):
        checks.check_summary(text, "K", spec.values, spec.seeds, short)


def test_same_trace_ignores_only_wall_ms(tmp_path):
    _, _, result, _ = run(tmp_path)
    text = harness.trace_csv_text(result.traces)
    other_wall = "".join(line.rsplit(",", 1)[0] + ",0\n" for line in text.splitlines())
    checks.check_same_trace(text, other_wall)
    lines = text.split("\n")
    f = lines[3].split(",")
    f[1] = format(float(np.nextafter(float(f[1]), np.inf)), ".17g")
    lines[3] = ",".join(f)
    with pytest.raises(checks.CheckError):
        checks.check_same_trace(text, "\n".join(lines))


# ----------------------------------------------------------------- logistic


@pytest.fixture(scope="module")
def logistic_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    corpus.write_corpus(str(d), seed=3)
    wl = workloads.make("logistic-corpus", 3, str(d))
    wl.params = {**wl.params, "T": 3}
    wl.setup()
    wl.unit()
    return wl


def test_logistic_workload_check_accepts_real_run(logistic_run):
    logistic_run.check()


def test_logistic_final_rejects_nudged_iterate(logistic_run):
    wl = logistic_run
    with open(wl.cfg.output) as f:
        rows = checks.parse_trace(f.read())
    data = np.load(os.path.join(wl.work_dir, "corpus.npz"))
    shards = checks.label_sorted_shards(data["images"], data["labels"], 10, 1000, 392)
    u, V = workloads.final_state(wl.result)
    checks.check_logistic_final(rows, shards, wl.cfg.rho, u, V, wl.cfg.m)
    with pytest.raises(checks.CheckError):
        checks.check_logistic_final(rows, shards, wl.cfg.rho, u + 1e-6, V, wl.cfg.m)
    # shards capped one row short are not the data the program trained on
    short = checks.label_sorted_shards(data["images"], data["labels"], 10, 999, 392)
    with pytest.raises(checks.CheckError):
        checks.check_logistic_final(rows, short, wl.cfg.rho, u, V, wl.cfg.m)


def test_label_sorted_shards_are_capped_and_parity_labelled():
    labels = np.array([3, 0, 1, 2, 0, 1, 3])
    images = np.arange(7 * 4, dtype=np.uint8).reshape(7, 2, 2)
    shards = checks.label_sorted_shards(images, labels, n=3, cap=2, d_u=1)
    # stable sort by digit gives rows 1,4,2 | 5,3 | 0,6; the first block is capped
    assert [s.y.tolist() for s in shards] == [[1, 1], [-1, 1], [-1, -1]]
    assert shards[1].A[:, 0].tolist() == [20 / 255, 12 / 255]
    assert shards[0].B.shape == (2, 3)


def test_corpus_is_a_function_of_the_seed():
    a, la = corpus.make_corpus(5)
    b, lb = corpus.make_corpus(5)
    c, _ = corpus.make_corpus(6)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    assert np.bincount(la).tolist() == [corpus.CORPUS_PER_DIGIT] * 10


# ------------------------------------------------------------------- tracer


def test_tracer_counts_per_round_and_restores(tmp_path):
    originals = (fedcore.run_round, harness.build_oracle)
    tr = tracer.Tracer()
    tr.install({"workloads": workloads})
    try:
        assert fedcore.run_round is not originals[0]
        cfg, *_ = run(tmp_path, algorithm="scaffold_p")
    finally:
        tr.remove()
    assert (fedcore.run_round, harness.build_oracle) == originals
    m = {k: v["value"] for k, v in tr.layer_metrics(units=1).items()}
    assert m["objectives.value.calls"] == cfg.n
    assert m["objectives.grads.calls"] == 2 * cfg.n
    assert m["objectives.local_steps.calls"] == cfg.m
    assert m["rng.stream.calls"] == cfg.m + 1
    assert m["harness.build_oracle.ms"] > 0 and m["fedcore.run_round.self_ms"] > 0
    assert m["dataio.load_mnist.ms"] == 0.0
    spans = list(tr.spans())
    ids = {s[0] for _, s in spans}
    assert all(parent == 0 or parent in ids for _, (_, parent, *_r) in spans)


def test_tracer_reports_absent_layer(monkeypatch):
    monkeypatch.delattr(fedcore, "sample_clients")
    tr = tracer.Tracer()
    tr.install({"workloads": workloads})
    tr.remove()
    assert tr.absent_layers() == ["fedcore.sample_clients.ms"]


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: unit for k, (unit, _, _) in tracer.LAYER_METRICS.items()}
    emitted.update({"harness.sweep.cpu_util": "ratio", "trace.overhead_pct": "%"})
    assert listed == emitted
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
