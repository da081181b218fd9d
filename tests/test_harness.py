"""Config parsing/validation, trace CSV output, floor/threshold summaries,
sweeps, and the command line front end.

CSV goldens below were produced once with this package and frozen; they pin
the file format and the deterministic numerics together. wall_ms is the one
column allowed to vary between runs.
"""

import argparse
import dataclasses
import gzip
import json
import math
import os
import re

import numpy as np
import pytest

import idxbytes
from fedpart import cli, harness, metrics
from fedpart.fedcore import RoundTrace
from fedpart.harness import (
    ConfigError,
    ExperimentConfig,
    ParseError,
    SweepSpec,
    UnknownKey,
    ValidationError,
    cell_config,
    config_from_mapping,
    echo_path_for,
    floor_of,
    load_config,
    load_sweep_spec,
    rounds_to_threshold,
    run_experiment,
    run_sweep,
)

TINY = dict(algorithm="fedavg_p", objective="quadratic", n=3, m=2, K=2, T=3,
            gamma=0.1, seed=123, d_u=2, d_v=1, spread=1.0, sigma_u=0.25)

# golden trace for TINY (wall_ms column stripped); regenerate only on a
# deliberate numerics change
TINY_GOLDEN = """\
t,f_value,grad_norm_u,grad_norm_v,grad_norm_v_hat,sampled
0,1.5746421756396407,0.0017538454480696066,2.7753398447161799,1.8502265631441199,2;3
1,1.0971310643101893,0.005557822389700191,1.8165136451156469,1.2110090967437646,1;2
2,1.0781616179621849,0.0011616970496727242,1.7829708777596656,1.188647251839777,2;3
"""


def tiny_cfg(tmp_path, name="t.csv", **over):
    raw = {**TINY, "output": str(tmp_path / name), **over}
    return config_from_mapping(raw)


def strip_wall(text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in text.strip().split("\n")) + "\n"


# ------------------------------------------------------------------- config


def test_defaults_fill():
    cfg = config_from_mapping({})
    assert cfg.algorithm == "fedavg_p"
    assert cfg.objective == "quadratic"
    assert (cfg.n, cfg.m, cfg.K, cfg.T) == (10, 9, 25, 2000)
    assert cfg.batch_size == 1
    assert cfg.partition == "by_label"
    assert (cfg.d_u, cfg.d_v) == (5, 5)
    assert cfg.eta_u == pytest.approx(3.0, abs=0)
    assert cfg.eta_v == pytest.approx(math.sqrt(10 / 9), abs=0)
    assert cfg.gamma_u == pytest.approx(0.001 / 3.0, abs=0)
    assert cfg.gamma_v == pytest.approx(0.001 / math.sqrt(10 / 9), abs=0)
    assert cfg.gamma is None  # consumed during resolution


def test_logistic_dim_defaults():
    cfg = config_from_mapping(dict(objective="logistic_mnist", d_u=200,
                                   images_path="i", labels_path="l"))
    assert cfg.d_v == 584


def test_m_larger_than_n_rejected():
    with pytest.raises(ValidationError) as ei:
        config_from_mapping({"m": 11})
    assert ei.value.field == "m"
    assert str(ei.value).startswith("m: ")


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey, match="unknown config key\\(s\\): gama_u"):
        config_from_mapping({"gama_u": 0.1})


def test_gamma_forms_are_exclusive():
    with pytest.raises(ValidationError, match="not both"):
        config_from_mapping({"gamma": 0.1, "gamma_u": 0.1, "gamma_v": 0.1})
    with pytest.raises(ValidationError, match="together"):
        config_from_mapping({"gamma_u": 0.1})
    cfg = config_from_mapping({"gamma_u": 0.2, "gamma_v": 0.3})
    assert (cfg.gamma_u, cfg.gamma_v) == (0.2, 0.3)


def test_int_fields_are_strict():
    with pytest.raises(ValidationError, match="must be an integer, got 2.5"):
        config_from_mapping({"K": 2.5})
    with pytest.raises(ValidationError, match="integer"):
        config_from_mapping({"T": True})
    # json ints are accepted for float fields
    cfg = config_from_mapping({"gamma": 1, "spread": 2})
    assert cfg.spread == 2.0 and isinstance(cfg.spread, float)


@pytest.mark.parametrize("raw", [
    {"gamma": True},
    {"gamma": "0.1"},
    {"eta_u": "2"},
    {"sigma_u": "abc"},
    {"spread": float("nan")},
    {"rho": float("inf")},
    {"sigma_v": None},
    {"d_u": 2.5},
    {"seed": -1},
    {"seed": 2**64},
    {"output": 5},
    {"output": ["a"]},
    {"output": ""},
    {"images_path": True},
    {"images_path": 0},
])
def test_number_fields_are_typed(raw):
    (field, val), = raw.items()
    with pytest.raises(ValidationError) as ei:
        config_from_mapping(raw)
    assert ei.value.field == field
    assert ei.value.reason.endswith(f"got {val!r}")


def test_resolved_step_sizes_must_be_finite():
    # finite inputs whose quotient gamma / eta_u overflows to inf
    with pytest.raises(ValidationError) as ei:
        config_from_mapping({"gamma": 1e308, "eta_u": 1e-308})
    assert ei.value.field == "gamma_u"
    assert ei.value.reason == "must be finite and > 0, got inf"
    with pytest.raises(ValidationError) as ei:
        config_from_mapping({"gamma_u": 0.1, "gamma_v": 0.0})
    assert ei.value.field == "gamma_v"


def test_logistic_validation():
    with pytest.raises(ValidationError, match="784"):
        config_from_mapping(dict(objective="logistic_mnist", d_u=100, d_v=100,
                                 images_path="i", labels_path="l"))
    with pytest.raises(ValidationError, match="images_path"):
        config_from_mapping(dict(objective="logistic_mnist", d_u=392, d_v=392))


def test_more_validation():
    for raw, field in ((dict(n=0), "n"), (dict(m=0), "m"), (dict(K=0), "K"),
                       (dict(T=-1), "T"), (dict(batch_size=0), "batch_size"),
                       (dict(rho=-0.1), "rho"), (dict(gamma=0.0), "gamma"),
                       (dict(algorithm="sgd"), "algorithm"),
                       (dict(partition="dirichlet"), "partition"),
                       (dict(output=""), "output"), (dict(d_v=0), "d_v"),
                       (dict(eta_u=0), "eta_u"), (dict(eta_v=0.0), "eta_v"),
                       (dict(labels_path=True), "labels_path"),
                       (dict(objective="logistic_mnist", d_u=784, images_path="i",
                             labels_path="l"), "d_u")):
        with pytest.raises(ValidationError) as ei:
            config_from_mapping(raw)
        assert ei.value.field == field, raw


def test_count_fields_are_bounded():
    # each count below 2^32 (one stream-key word), checked before any
    # derived size; the largest arrays checked before they are allocated
    for name in ("n", "T", "K", "batch_size", "per_client_cap", "d_u", "d_v"):
        with pytest.raises(ValidationError) as ei:
            config_from_mapping({name: 2**32})
        assert ei.value.field == name
        assert ei.value.reason == "must be below 2^32, got 4294967296"
    with pytest.raises(ValidationError) as ei:
        config_from_mapping({"n": 2**32, "m": 2**32})
    assert ei.value.field == "n"
    cfg = config_from_mapping({"T": 2**32 - 1, "per_client_cap": 2**32 - 1})
    assert cfg.T == 2**32 - 1
    assert config_from_mapping({"seed": 2**64 - 1}).seed == 2**64 - 1
    for raw, field, what in (
            ({"n": 2**27, "m": 1}, "n", "n * (d_u + d_v) = 1342177280"),
            ({"d_u": 10**8}, "n", "n * (d_u + d_v) = 1000000050"),
            ({"K": 10**7}, "K", "m * K * (d_u + d_v) = 900000000"),
            ({"objective": "logistic_mnist", "images_path": "i", "labels_path": "l",
              "K": 1, "m": 1, "batch_size": 10**6}, "batch_size",
             "batch_size * (d_u + d_v) = 784000000")):
        with pytest.raises(ValidationError) as ei:
            config_from_mapping(raw)
        assert ei.value.field == field, raw
        assert ei.value.reason.startswith(what), ei.value.reason
    # at the limit, and batch_size is not a quadratic size
    config_from_mapping({"n": 2**28 // 10, "m": 1})
    config_from_mapping({"batch_size": 2**32 - 1})


def test_readme_config_table_lists_every_field():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = {key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])}
    assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_readme_names_every_cli_subcommand_and_option():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = [f"fedpart {command}" for command in sub.choices]
    names += [opt for command in sub.choices.values() for a in command._actions
              if not isinstance(a, argparse._HelpAction) for opt in a.option_strings]
    missing = [name for name in names
               if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", readme)]
    assert missing == []


def test_mapping_round_trip():
    cfg = config_from_mapping(dict(TINY, output="x.csv"))
    m = cfg.to_mapping()
    assert "gamma" not in m  # None keys dropped
    assert config_from_mapping(m) == cfg


def test_load_config(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(TINY, output=str(tmp_path / "o.csv"))))
    cfg = load_config(str(p))
    assert cfg.n == 3
    p.write_text("{not json")
    with pytest.raises(ParseError, match=str(p)):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        load_config(str(p))
    # past Python's int-string digit limit json.loads raises a plain ValueError
    p.write_text('{"rho": 1' + "0" * 5000 + "}")
    with pytest.raises(ParseError, match="digits"):
        load_config(str(p))
    p.write_bytes(b'\xff{"T": 2}')
    with pytest.raises(ParseError, match="utf-8"):
        load_config(str(p))


# -------------------------------------------------------------- experiments


def test_t0_writes_header_only(tmp_path):
    cfg = tiny_cfg(tmp_path, T=0)
    path, res = run_experiment(cfg)
    assert open(path).read() == harness.CSV_HEADER + "\n"
    assert res.traces == []
    assert math.isnan(floor_of(res.traces))


def test_rerun_identical_except_wall_ms(tmp_path):
    a, _ = run_experiment(tiny_cfg(tmp_path, "a.csv", T=10))
    b, _ = run_experiment(tiny_cfg(tmp_path, "b.csv", T=10))
    ta, tb = open(a).read(), open(b).read()
    assert ta != tb or True  # wall_ms may coincide; only the stripped form matters
    assert strip_wall(ta) == strip_wall(tb)


def test_golden_trace_csv(tmp_path):
    path, _ = run_experiment(tiny_cfg(tmp_path))
    assert strip_wall(open(path).read()) == TINY_GOLDEN


def test_csv_floats_round_trip(tmp_path):
    path, res = run_experiment(tiny_cfg(tmp_path, sigma_u=0.37, T=6))
    rows = open(path).read().strip().split("\n")[1:]
    assert len(rows) == 6
    for row, tr in zip(rows, res.traces):
        t, f, gu, gv, gvh, sampled, wall = row.split(",")
        assert int(t) == tr.t
        # 17g formatting is enough to reproduce the double exactly
        assert float(f) == tr.f_value
        assert float(gu) == tr.grad_norm_u
        assert float(gv) == tr.grad_norm_v
        assert float(gvh) == tr.grad_norm_v_hat
        assert tuple(int(s) for s in sampled.split(";")) == tr.sampled
        assert float(wall) >= 0.0


def test_config_echo_reproduces_run(tmp_path):
    path, res = run_experiment(tiny_cfg(tmp_path, "first.csv", T=8))
    echo = echo_path_for(path)
    assert echo == str(tmp_path / "first.config.json")
    cfg2 = load_config(echo)
    cfg2.output = str(tmp_path / "second.csv")
    path2, res2 = run_experiment(cfg2)
    assert strip_wall(open(path).read()) == strip_wall(open(path2).read())


def test_echo_is_sorted_json(tmp_path):
    path, _ = run_experiment(tiny_cfg(tmp_path))
    raw = json.loads(open(echo_path_for(path)).read())
    assert list(raw) == sorted(raw)
    assert raw["gamma_u"] == pytest.approx(0.1 / math.sqrt(2.0), abs=0)


# ---------------------------------------------------------- floors/threshold


def _fake_traces(g_u, g_vh):
    return [RoundTrace(t=i, f_value=0.0, grad_norm_u=u, grad_norm_v=0.0,
                       grad_norm_v_hat=vh, sampled=(1,), wall_ms=0.0)
            for i, (u, vh) in enumerate(zip(g_u, g_vh))]


def test_floor_window_rule():
    tr = _fake_traces(range(7), [0.0] * 7)
    assert floor_of(tr) == 6.0  # window = max(1, 7//5) = 1
    tr = _fake_traces(range(12), [1.0] * 12)
    assert floor_of(tr) == pytest.approx((11 + 12) / 2)  # last two, +1 from v_hat
    tr = _fake_traces([2.0] * 600, [1.0] * 600)
    assert floor_of(tr) == pytest.approx(3.0)


def test_rounds_to_threshold():
    tr = _fake_traces([5.0, 3.0, 1.0, 0.5], [0.0] * 4)
    assert rounds_to_threshold(tr, 1.0) == 2
    assert rounds_to_threshold(tr, 10.0) == 0
    assert rounds_to_threshold(tr, 0.4) is None
    assert rounds_to_threshold([], 1.0) is None


# ------------------------------------------------------------------- sweeps


def test_sweep_spec_validation(tmp_path):
    with pytest.raises(ValidationError, match="axis"):
        SweepSpec(base={}, axis="T", values=[1], seeds=[0])
    with pytest.raises(ValidationError, match="values"):
        SweepSpec(base={}, axis="K", values=[], seeds=[0])
    with pytest.raises(ValidationError, match="seeds"):
        SweepSpec(base={}, axis="K", values=[1], seeds=[])
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"base": {"seed": 7}, "axis": "K", "values": [1, 2]}))
    spec = load_sweep_spec(str(p))
    assert spec.seeds == [7]  # defaults to the base seed
    p.write_text(json.dumps({"base": {}, "axis": "K", "values": [1], "vals": []}))
    with pytest.raises(UnknownKey, match="unknown sweep key\\(s\\): vals"):
        load_sweep_spec(str(p))
    p.write_text(json.dumps({"axis": "K", "values": [1]}))
    with pytest.raises(ValidationError, match="base"):
        load_sweep_spec(str(p))
    p.write_text(json.dumps({"base": {}, "values": [1]}))
    with pytest.raises(ValidationError) as ei:
        load_sweep_spec(str(p))
    assert ei.value.field == "axis"
    p.write_text('{"axis": "K", "values": [1' + "0" * 5000 + "]}")
    with pytest.raises(ParseError, match="digits"):
        load_sweep_spec(str(p))


@pytest.mark.parametrize("axis,values", [("gamma", [0.01, 0.02, 0.01]),
                                         ("m", [3, 3]), ("K", [5, 10, 5.0])])
def test_sweep_spec_rejects_duplicate_cells(axis, values):
    # equal cells would share one trace file and skew the per-value mean
    with pytest.raises(ValidationError, match="duplicate values"):
        SweepSpec(base={}, axis=axis, values=values, seeds=[0])
    with pytest.raises(ValidationError, match="duplicate seeds: 1"):
        SweepSpec(base={}, axis=axis, values=values[:1], seeds=[1, 2, 1])


def test_cell_config_naming(tmp_path):
    spec = SweepSpec(base=dict(TINY), axis="gamma", values=[0.05], seeds=[3],
                     out_dir=str(tmp_path / "sw"))
    cfg = cell_config(spec, 0.05, 3)
    assert cfg.output == os.path.join(spec.out_dir, "gamma_0.05_seed3.csv")
    assert cfg.seed == 3
    assert cfg.gamma_u == pytest.approx(0.05 / math.sqrt(2.0), abs=0)


def test_sweep_single_cell_matches_direct_run(tmp_path):
    spec = SweepSpec(base=dict(TINY, T=40), axis="gamma", values=[0.05],
                     seeds=[0], out_dir=str(tmp_path / "sw"))
    summary = run_sweep(spec)
    lines = open(summary).read().strip().split("\n")
    assert lines[0] == "axis,value,seed,floor,rounds_to_threshold,trace_file"
    assert len(lines) == 3  # cell row + mean row
    cell = lines[1].split(",")
    _, res = run_experiment(tiny_cfg(tmp_path, "direct.csv", T=40, gamma=0.05, seed=0))
    assert float(cell[3]) == floor_of(res.traces)
    mean_row = lines[2].split(",")
    assert mean_row[2] == "mean"
    assert float(mean_row[3]) == float(cell[3])
    assert os.path.exists(cell[5])


def test_sweep_cells_equal_direct_runs(tmp_path):
    # a value's seeds run as one replica run; each cell's trace and echo are
    # its config run alone, and the replicas share each round's wall_ms
    spec = SweepSpec(base=dict(TINY, T=30, sigma_v=0.5), axis="K", values=[1, 3],
                     seeds=[0, 1, 2], out_dir=str(tmp_path / "sw"))
    run_sweep(spec)
    for value in spec.values:
        cells = [cell_config(spec, value, seed) for seed in spec.seeds]
        texts = [open(c.output).read() for c in cells]
        for cell, text in zip(cells, texts):
            direct = tiny_cfg(tmp_path, "direct.csv", T=30, sigma_v=0.5, K=value, seed=cell.seed)
            run_experiment(direct)
            assert strip_wall(text) == strip_wall(open(direct.output).read())
            echo = json.load(open(echo_path_for(cell.output)))
            assert echo == dict(direct.to_mapping(), output=cell.output)
        walls = [[line.rsplit(",", 1)[1] for line in t.split("\n")[1:-1]] for t in texts]
        assert walls[0] == walls[1] == walls[2]


def test_run_experiments_rejects_configs_that_differ_beyond_seed(tmp_path):
    with pytest.raises(ValueError, match="only in seed and output"):
        harness.run_experiments([tiny_cfg(tmp_path, "a.csv"), tiny_cfg(tmp_path, "b.csv", K=3)])
    assert not os.path.exists(tmp_path / "a.csv")


def test_sweep_deterministic(tmp_path):
    def rows(out_dir):
        spec = SweepSpec(base=dict(TINY, T=30), axis="m", values=[1, 3],
                         seeds=[0, 1], out_dir=str(tmp_path / out_dir))
        text = open(run_sweep(spec)).read().strip().split("\n")
        return [",".join(line.split(",")[:-1]) for line in text]  # drop paths

    assert rows("sw1") == rows("sw2")


def test_sweep_larger_k_raises_floor(tmp_path):
    # fixed gamma with gradient noise: more local steps push the floor up
    base = dict(algorithm="fedavg_p", objective="quadratic", n=6, m=5, T=300,
                gamma=0.02, d_u=4, d_v=4, spread=1.0, sigma_u=0.5, sigma_v=0.5)
    spec = SweepSpec(base=base, axis="K", values=[5, 20, 80], seeds=[0, 1],
                     out_dir=str(tmp_path / "sw"))
    lines = open(run_sweep(spec)).read().strip().split("\n")[1:]
    per_seed = {}
    means = []
    for line in lines:
        axis, value, seed, fl = line.split(",")[:4]
        if seed == "mean":
            means.append(float(fl))
        else:
            per_seed.setdefault(int(seed), []).append(float(fl))
    assert means == sorted(means) and len(set(means)) == 3
    for seed, floors in per_seed.items():
        assert floors[0] < floors[1] < floors[2], (seed, floors)


# ---------------------------------------------------------------------- CLI


def write_cfg(tmp_path, name="c.json", **over):
    p = tmp_path / name
    p.write_text(json.dumps({**TINY, "output": str(tmp_path / "out.csv"), **over}))
    return str(p)


def test_cli_run_happy_path(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_cfg(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "floor" in out and "config echo:" in out
    assert os.path.exists(tmp_path / "out.csv")
    assert os.path.exists(tmp_path / "out.config.json")


def test_cli_run_output_override(tmp_path, capsys):
    other = str(tmp_path / "elsewhere.csv")
    rc = cli.main(["run", "--config", write_cfg(tmp_path), "--output", other])
    assert rc == 0
    assert os.path.exists(other)
    assert not os.path.exists(tmp_path / "out.csv")


def test_cli_run_empty_output_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_cfg(tmp_path), "--output", ""])
    assert rc == 2
    assert "output: must be a non-empty string, got ''" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
        harness._atomic_write_text(str(path), "t\n\ud800")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_cli_run_missing_config(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = cli.main(["run", "--config", missing])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err


def test_cli_run_bad_config(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_cfg(tmp_path, m=11)])
    assert rc == 2
    assert "m" in capsys.readouterr().err


def test_cli_run_non_finite_number_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_cfg(tmp_path, spread=float("nan"))])
    assert rc == 2
    assert "spread: must be a finite number" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out.csv")


def test_cli_run_integer_beyond_double_range_is_config_error(tmp_path, capsys):
    # json.dumps writes the int as 1 followed by 400 zeros
    rc = cli.main(["run", "--config", write_cfg(tmp_path, rho=10**400)])
    assert rc == 2
    assert "rho: must be a finite number" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out.csv")


def test_cli_run_absurd_client_count_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_cfg(tmp_path, n=10**30, m=1, T=1)])
    assert rc == 2
    assert "n: must be below 2^32, got 10000000000" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out.csv")


def test_cli_run_large_representable_dimension_is_config_error(tmp_path, capsys):
    # a d_u the array limit rejects before anything is allocated
    rc = cli.main(["run", "--config", write_cfg(tmp_path, d_u=10**9, T=1)])
    assert rc == 2
    assert "n: n * (d_u + d_v) = " in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out.csv")


def test_cli_run_infinite_resolved_step_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_cfg(tmp_path, gamma=1e308, eta_u=1e-308)])
    assert rc == 2
    assert "gamma_u: must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out.csv")


@pytest.mark.parametrize("over", [
    {"output": 5}, {"output": ["a"]}, {"output": ""},
    {"images_path": True}, {"images_path": 0},
    {"seed": -1}, {"seed": 2**64},
], ids=["output_int", "output_list", "output_empty", "images_true", "images_zero",
        "seed_negative", "seed_2_64"])
def test_cli_run_malformed_field_is_config_error(tmp_path, capsys, monkeypatch, over):
    # a logistic config whose other keys are valid; nothing is read or written
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, **{"objective": "logistic_mnist", "images_path": "i.idx",
                                 "labels_path": "l.idx", "n": 2, "m": 1, "T": 1,
                                 "d_u": 392, "d_v": 392, **over})
    assert cli.main(["run", "--config", cfg]) == 2
    field = next(iter(over))
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert os.listdir(tmp_path) == ["c.json"]


def test_cli_run_divergence_is_runtime_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, gamma=None, gamma_u=50.0, gamma_v=0.1, K=20, T=10,
                    sigma_u=0.0)
    with np.errstate(all="ignore"):
        rc = cli.main(["run", "--config", cfg])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated_gz", "wrong_magic"])
def test_cli_run_bad_idx_file_names_it(tmp_path, capsys, damage):
    images = idxbytes.images_bytes(np.zeros((4, 28, 28), dtype=np.uint8))
    if damage == "truncated_gz":
        ip = tmp_path / "images.idx.gz"
        ip.write_bytes(gzip.compress(images, mtime=0)[:-20])
    else:
        ip = tmp_path / "images.idx"
        ip.write_bytes(idxbytes.labels_bytes(np.zeros(20, dtype=np.uint8)))
    lp = tmp_path / "labels.idx"
    lp.write_bytes(idxbytes.labels_bytes(np.arange(4, dtype=np.uint8)))
    cfg = write_cfg(tmp_path, objective="logistic_mnist", images_path=str(ip),
                    labels_path=str(lp), n=2, m=1, T=1, d_u=392, d_v=392)
    rc = cli.main(["run", "--config", cfg])
    assert rc == 1
    assert f"error: {ip}: " in capsys.readouterr().err


def test_cli_stepsize(capsys):
    rc = cli.main(["stepsize", "--variant", "fedavgp_partial", "--L", "1",
                   "--K", "1", "--T", "3", "--F0", "1", "--sigma-u", "1",
                   "--m", "1", "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("gamma = 0.0285714285714285")
    assert float(out[0].split("=")[1]) == pytest.approx(1 / 35, rel=1e-15)
    assert float(out[1].split("=")[1]) == 1.0
    assert float(out[2].split("=")[1]) == 1.0


def test_cli_stepsize_rejects_bad_variant(capsys):
    # argparse exits with SystemExit(2); main() traps it into the return code
    rc = cli.main(["stepsize", "--variant", "nope", "--L", "1", "--K", "1",
                   "--T", "1", "--F0", "1", "--m", "1", "--n", "1"])
    assert rc == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--F0", "nan"), ("--L", "inf"), ("--L", "nan"),
                                        ("--sigma-u", "nan"), ("--sigma-v", "inf"),
                                        ("--b", "nan"), ("--F0", "-1")])
def test_cli_stepsize_rejects_bad_numbers_as_usage_errors(capsys, flag, value):
    args = {"--L": "1", "--K": "1", "--T": "3", "--F0": "1", "--m": "1", "--n": "1",
            flag: value}
    rc = cli.main(["stepsize", "--variant", "fedavgp_partial",
                   *(x for kv in args.items() for x in kv)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("flag,value,message", [
    ("--radius", "-1", "radius must be finite and > 0"),
    ("--radius", "nan", "radius must be finite and > 0"),
    ("--radius", "0", "radius must be finite and > 0"),
    ("--probes", "1", "need at least 2 probe points"),
])
def test_cli_estimate_rejects_bad_probe_settings_as_usage_errors(tmp_path, capsys, flag, value,
                                                                 message):
    cfg_path = write_cfg(tmp_path, n=4, d_u=3, d_v=2, spread=1.3, sigma_u=0.0)
    rc = cli.main(["estimate", "--config", cfg_path, flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_cli_estimate(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, n=4, d_u=3, d_v=2, spread=1.3, sigma_u=0.0)
    rc = cli.main(["estimate", "--config", cfg_path])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    got = {line.split(" = ")[0]: float(line.split(" = ")[1]) for line in out}
    assert 0.99 <= got["L_hat"] <= 1.0 + 1e-9
    obj = harness.build_oracle(load_config(cfg_path))
    assert got["b2_hat"] == pytest.approx(obj.dissimilarity_b2(), rel=1e-8)
    u0 = np.zeros(3)
    v0 = [np.zeros(2) for _ in range(4)]
    f0 = metrics.round_metrics(obj, u0, v0, obj.n)[0]
    assert got["F0"] == pytest.approx(f0 - obj.infimum(), rel=1e-8)


def test_cli_sweep(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "base": dict(TINY, T=20),
        "axis": "K", "values": [1, 2], "seeds": [0],
        "out_dir": str(tmp_path / "sw"),
    }))
    rc = cli.main(["sweep", "--spec", str(spec)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert os.path.exists(tmp_path / "sw" / "summary.csv")


@pytest.mark.parametrize("bad", [
    {"base": [1]},
    {"values": 5},
    {"seeds": 3},
    {"threshold": "x"},
    {"threshold": True},
    {"out_dir": 5},
    {"axis": 1},
], ids=["base_list", "values_int", "seeds_int", "threshold_str", "threshold_bool",
        "out_dir_int", "axis_int"])
def test_cli_sweep_malformed_spec_is_config_error(tmp_path, capsys, bad):
    # rejected with exit 2 before any cell runs: no trace or summary appears
    out_dir = tmp_path / "sw"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "base": dict(TINY, T=20), "axis": "K", "values": [1, 2], "seeds": [0],
        "out_dir": str(out_dir), **bad,
    }))
    assert cli.main(["sweep", "--spec", str(spec)]) == 2
    field = next(iter(bad))
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out_dir.exists()


def test_cli_sweep_aliasing_seeds_are_config_error(tmp_path, capsys):
    # -1 and 2^64 - 1 would name the same streams: two identical traces
    # averaged as if independent
    out_dir = tmp_path / "sw"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"base": dict(TINY, T=20), "axis": "K", "values": [1, 2],
                                "seeds": [-1, 2**64 - 1], "out_dir": str(out_dir)}))
    assert cli.main(["sweep", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error: seed: must be >= 0, got -1")
    assert not out_dir.exists()


def test_logistic_replica_group_loads_the_corpus_once(tmp_path, mnist_paths, monkeypatch):
    images, labels = mnist_paths
    calls = []

    def counted(*args):
        calls.append(args)
        return load_mnist(*args)

    load_mnist = harness.dataio.load_mnist
    monkeypatch.setattr(harness.dataio, "load_mnist", counted)
    configs = [config_from_mapping(dict(
        algorithm="fedavg_p", objective="logistic_mnist", n=4, m=3, K=2, T=2,
        per_client_cap=40, images_path=images, labels_path=labels, partition="iid",
        seed=seed, output=str(tmp_path / f"s{seed}.csv"))) for seed in (0, 1, 2)]
    assert len(harness.run_experiments(configs)) == 3
    assert calls == [(images, labels)]


def test_logistic_sweep_cells_equal_direct_runs(tmp_path, mnist_paths):
    # each axis value's seeds run as one replica run; each cell equals its
    # config run alone
    images, labels = mnist_paths
    base = dict(algorithm="scaffold_p", objective="logistic_mnist", n=4, m=3, K=2, T=6,
                batch_size=5, per_client_cap=40, images_path=images, labels_path=labels,
                partition="iid")
    spec = SweepSpec(base=base, axis="K", values=[2, 3], seeds=[0, 1],
                     out_dir=str(tmp_path / "sw"))
    run_sweep(spec)
    for value in spec.values:
        for seed in spec.seeds:
            cell = cell_config(spec, value, seed)
            direct = config_from_mapping({**base, "K": value, "seed": seed,
                                          "output": str(tmp_path / "direct.csv")})
            run_experiment(direct)
            assert strip_wall(open(cell.output).read()) == strip_wall(
                open(direct.output).read())


def test_cli_usage_errors():
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["run"]) == 2  # --config required
