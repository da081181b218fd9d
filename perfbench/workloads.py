"""The workloads: inputs made from a seed, one unit of work, checks.

A unit is one whole call of the program: a full sweep for `quad-sweep`, a
full T-round run plus its trace write for the single-run workloads. The run
phase repeats whole units, so every run attempts the same rounds.

The program is reached only through its public entry points (harness
configs, `harness.build_oracle`, `harness.run_sweep`,
`harness.run_experiment`, `fedcore.run_training`, `harness.trace_csv_text`),
always looked up on the module at call time so the traced run can wrap them.
"""

from __future__ import annotations

import os

import numpy as np

import checks
from fedpart import fedcore, harness

# default quadratic profile with noisy gradients; K axis as in the
# local-step study, crossed with two seeds
SWEEP_BASE = dict(algorithm="fedavg_p", objective="quadratic", n=10, m=9,
                  d_u=5, d_v=5, spread=1.0, sigma_u=1.0, sigma_v=1.0, T=100)
SWEEP_AXIS = "K"
SWEEP_VALUES = [5, 10, 20, 40]

WIDE = dict(algorithm="scaffold_p", objective="quadratic", n=1000, m=100,
            d_u=50, d_v=50, K=10, T=40, spread=1.0, sigma_u=1.0, sigma_v=1.0)

# criterion-9 shape, on the corpus that corpus.py writes
LOGISTIC = dict(algorithm="scaffold_p", objective="logistic_mnist", n=10, m=9,
                K=25, T=30, batch_size=200, d_u=392, d_v=392,
                partition="by_label", per_client_cap=1000)


def write_trace(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def final_state(result):
    """(u, V) of a finished run."""
    return np.asarray(result.u), np.asarray(result.v_all)


def control_state(result):
    """(c, C): server control and the stacked client controls."""
    return result.server.c, np.stack([cl.c_i for cl in result.clients])


class SingleRun:
    """One fedcore.run_training run on an oracle built once in set-up."""

    def __init__(self, params: dict, seed: int, work_dir: str):
        self.params = params
        self.seed = seed
        self.work_dir = work_dir
        self.result = None

    def setup(self) -> None:
        raw = {**self.params, "seed": self.seed,
               "output": os.path.join(self.work_dir, "trace.csv")}
        if self.params["objective"] == harness.LOGISTIC:
            raw["images_path"] = os.path.join(self.work_dir, "images.idx.gz")
            raw["labels_path"] = os.path.join(self.work_dir, "labels.idx.gz")
        self.cfg = harness.config_from_mapping(raw)
        self.oracle = harness.build_oracle(self.cfg)

    @property
    def workers(self) -> int:
        return 1

    def unit(self) -> int:
        cfg = self.cfg
        self.result = fedcore.run_training(cfg.algorithm, self.oracle, cfg.hyper_params(), cfg.seed)
        write_trace(cfg.output, harness.trace_csv_text(self.result.traces))
        return cfg.T

    def trace_files(self) -> list[str]:
        return [self.cfg.output]

    def check(self) -> None:
        cfg = self.cfg
        rows = checks.parse_trace(_read(cfg.output))
        checks.check_rounds(rows, cfg.T, cfg.m, cfg.n)
        checks.check_measure_decreases(rows)
        u, V = final_state(self.result)
        if cfg.objective == harness.QUADRATIC:
            checks.check_quadratic_final(
                rows, self.oracle.centers_u, self.oracle.centers_v, u, V, cfg.m
            )
        else:
            corpus = np.load(os.path.join(self.work_dir, "corpus.npz"))
            shards = checks.label_sorted_shards(
                corpus["images"], corpus["labels"], cfg.n, cfg.per_client_cap, cfg.d_u
            )
            checks.check_logistic_final(rows, shards, cfg.rho, u, V, cfg.m)
        if cfg.algorithm == fedcore.SCAFFOLD_P:
            checks.check_control_mean(*control_state(self.result))


class Sweep:
    """One harness.run_sweep over the K axis, crossed with two seeds."""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "sweep")

    def setup(self) -> None:
        self.spec = harness.SweepSpec(
            base=dict(SWEEP_BASE), axis=SWEEP_AXIS, values=list(SWEEP_VALUES),
            seeds=[2 * self.seed, 2 * self.seed + 1], out_dir=self.out_dir,
        )

    @property
    def cells(self) -> list[tuple[int, int]]:
        return [(v, s) for v in self.spec.values for s in self.spec.seeds]

    @property
    def workers(self) -> int:
        """Worker count run_sweep uses: FEDPART_THREADS, or the CPU count
        when unset or 0, capped at the number of cells."""
        try:
            cap = int(os.environ.get("FEDPART_THREADS", "0"))
        except ValueError:
            cap = 0
        if cap <= 0:
            cap = os.cpu_count() or 1
        return max(1, min(cap, len(self.cells)))

    def unit(self) -> int:
        self.summary = harness.run_sweep(self.spec)
        return SWEEP_BASE["T"] * len(self.cells)

    def trace_files(self) -> list[str]:
        return [row[5] for row in checks.parse_summary(_read(self.summary))
                if row[2] != "mean"]

    def check(self) -> None:
        base = SWEEP_BASE
        cell_rows = {}
        for path in self.trace_files():
            rows = checks.parse_trace(_read(path))
            checks.check_rounds(rows, base["T"], base["m"], base["n"])
            checks.check_measure_decreases(rows)
            cell_rows[path] = rows
        checks.check_summary(_read(self.summary), SWEEP_AXIS, self.spec.values,
                             self.spec.seeds, cell_rows)

        # re-run one cell alone, chosen by the seed, and compare
        k = self.seed % len(self.cells)
        value, seed = self.cells[k]
        cfg = harness.config_from_mapping({
            **base, SWEEP_AXIS: value, "seed": seed,
            "output": os.path.join(self.work_dir, "rerun.csv"),
        })
        path, result = harness.run_experiment(cfg)
        checks.check_same_trace(_read(self.trace_files()[k]), _read(path))
        oracle = harness.build_oracle(cfg)
        u, V = final_state(result)
        checks.check_quadratic_final(
            checks.parse_trace(_read(path)), oracle.centers_u, oracle.centers_v, u, V, cfg.m
        )


def make(name: str, seed: int, work_dir: str):
    if name == "quad-sweep":
        return Sweep(seed, work_dir)
    if name == "quad-wide":
        return SingleRun(WIDE, seed, work_dir)
    if name == "logistic-corpus":
        return SingleRun(LOGISTIC, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
