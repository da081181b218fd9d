"""Experiment harness: config loading/validation, single runs, sweeps.

Configs are flat JSON key-value files; unknown keys are rejected. Every
field of a config or sweep spec is checked by one rule (`_check_kinds`):
its annotation gives the kind it takes, `_RANGES` the bounds of a numeric
field and `_CHOICES` the values of a named option. A run writes one CSV row
per round plus a config echo alongside the output, with all defaults
resolved, so loading the echo reproduces an identical run. All files are
written atomically (temp file + rename), with the mode `open` would give.
Every rejected config or sweep spec raises `ConfigError`.

The "floor" of a run is the mean of grad_norm_u + grad_norm_v_hat over the
final min(100, T//5) rounds: the steady-state plateau the theory's noise
terms predict.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dataio, fedcore
from .objectives import LogisticObjective
from .rng import SEED_MAX

QUADRATIC = "quadratic"
LOGISTIC = "logistic_mnist"

CSV_HEADER = "t,f_value,grad_norm_u,grad_norm_v,grad_norm_v_hat,sampled,wall_ms"

# (least, most) of each numeric field. Every count stays below 2^32, so
# each round t and client id is one stream-key word (rng.stream_keys), and
# a seed below 2^64 is the whole seed word, so no two seeds name the same
# streams. The largest arrays a run allocates are held to _MAX_ELEMENTS
# entries (2 GiB of float64) before any allocation.
_COUNT = 2**32 - 1
_RANGES = {
    "n": (1, _COUNT), "m": (1, _COUNT), "K": (1, _COUNT), "T": (0, _COUNT),
    "seed": (0, SEED_MAX), "batch_size": (1, _COUNT), "rho": (0, math.inf),
    "d_u": (1, _COUNT), "d_v": (1, _COUNT), "spread": (0, math.inf),
    "sigma_u": (0, math.inf), "sigma_v": (0, math.inf), "per_client_cap": (1, _COUNT),
}
_MAX_ELEMENTS = 2**28
_CHOICES = {
    "algorithm": fedcore.ALGORITHMS,
    "objective": (QUADRATIC, LOGISTIC),
    "partition": ("iid", "by_label"),
    "axis": ("gamma", "m", "K"),
}
# annotation -> (the type a value must have, what the reason calls it)
_KINDS = {"int": (int, "an integer"), "float": (float, "a finite number"),
          "str": (str, "a non-empty string"), "list": (list, "a non-empty list"),
          "dict": (dict, "a mapping")}


class ConfigError(Exception):
    """A config or sweep spec that does not parse or fails a check; a field
    check's message is f"{field}: {reason}"."""


def _check_kinds(obj) -> None:
    """Check each field of a JSON-facing dataclass, in field order, against
    its annotation, then its `_RANGES` and `_CHOICES` entries.

    int takes an int; float a finite number, stored as a float (json has no
    int/float distinction a writer can rely on); str a non-empty string,
    list a non-empty list and dict a mapping. A field whose default is None
    may also be None. bool is never a number.
    """
    for f in dataclasses.fields(obj):
        name, val = f.name, getattr(obj, f.name)
        if val is None and f.default is None:
            continue
        want, what = _KINDS[f.type.split(" ")[0]]  # "float | None" -> float
        if want is float and isinstance(val, int) and not isinstance(val, bool):
            try:
                val = float(val)
            except OverflowError:
                raise ConfigError(f"{name}: must be {what}, got an integer "
                                  "beyond the double range") from None
        if (not isinstance(val, want) or isinstance(val, bool)
                or (want is float and not math.isfinite(val))
                or (want in (str, list) and not val)):
            raise ConfigError(f"{name}: must be {what}, got {getattr(obj, name)!r}")
        setattr(obj, name, val)
        if name in _RANGES:
            least, most = _RANGES[name]
            if val < least:
                raise ConfigError(f"{name}: must be >= {least}, got {val!r}")
            if val > most:  # most is 2^k - 1 or inf
                raise ConfigError(f"{name}: must be below 2^{most.bit_length()}, got {val!r}")
        if name in _CHOICES and val not in _CHOICES[name]:
            raise ConfigError(f"{name}: must be one of {_CHOICES[name]}, got {val!r}")


@dataclass
class ExperimentConfig:
    """One experiment. `gamma` is the effective-step shorthand: it resolves
    to gamma_u = gamma/eta_u, gamma_v = gamma/eta_v and is cleared after
    resolution; give either gamma or explicit gamma_u/gamma_v, never both.

    Defaults mirror the shipped profile: n=10, m=9, K=25, effective step
    0.001, eta_u = sqrt(m), eta_v = sqrt(n/m). T=2000 is an artifact choice.
    """

    algorithm: str = fedcore.FEDAVG_P
    objective: str = QUADRATIC
    n: int = 10
    m: int = 9
    K: int = 25
    T: int = 2000
    gamma: float | None = None
    gamma_u: float | None = None
    gamma_v: float | None = None
    eta_u: float | None = None
    eta_v: float | None = None
    seed: int = 0
    batch_size: int = 1
    rho: float = 0.01
    d_u: int | None = None
    d_v: int | None = None
    spread: float = 1.0
    sigma_u: float = 0.0
    sigma_v: float = 0.0
    images_path: str | None = None
    labels_path: str | None = None
    partition: str = "by_label"
    per_client_cap: int = 1000
    output: str = "trace.csv"

    def __post_init__(self):
        _check_kinds(self)
        if self.m > self.n:
            raise ConfigError(f"m: must be <= n = {self.n}, got {self.m}")
        if self.d_u is None:
            self.d_u = 5 if self.objective == QUADRATIC else 392
        if self.d_v is None:
            self.d_v = 5 if self.objective == QUADRATIC else 784 - self.d_u
        self._resolve_steps()
        if self.objective == LOGISTIC:
            if self.d_u + self.d_v != 784 or self.d_v < 1:
                raise ConfigError("d_u: d_u + d_v must equal 784 with d_v >= 1, "
                                  f"got d_u = {self.d_u}, d_v = {self.d_v}")
            if self.images_path is None or self.labels_path is None:
                raise ConfigError("images_path: logistic_mnist needs images_path and labels_path")
        self._check_sizes()

    def _resolve_steps(self):
        if self.gamma is not None and (self.gamma_u is not None or self.gamma_v is not None):
            raise ConfigError("gamma: give gamma or gamma_u/gamma_v, not both")
        if (self.gamma_u is None) != (self.gamma_v is None):
            raise ConfigError("gamma_u: gamma_u and gamma_v must be given together")
        if self.eta_u is None:
            self.eta_u = math.sqrt(self.m)
        if self.eta_v is None:
            self.eta_v = math.sqrt(self.n / self.m)
        self._check_steps("eta_u", "eta_v")
        if self.gamma_u is None:
            base = 0.001 if self.gamma is None else self.gamma
            if base <= 0:
                raise ConfigError("gamma: must be > 0")
            self.gamma_u = base / self.eta_u
            self.gamma_v = base / self.eta_v
        self.gamma = None
        self._check_steps("gamma_u", "gamma_v")

    def _check_steps(self, *names):
        for name in names:
            val = getattr(self, name)
            # a resolved step gamma / eta can overflow to inf from finite inputs
            if not 0 < val < math.inf:
                raise ConfigError(f"{name}: must be finite and > 0, got {val!r}")

    def _check_sizes(self):
        # V, C and the quadratic centers have n rows; a round's local-step
        # block m * K rows; a logistic round draws m * K minibatches of
        # batch_size row indices and gathers batch_size data rows per step
        d = self.d_u + self.d_v
        sizes = [("n", "n * (d_u + d_v)", self.n * d),
                 ("K", "m * K * (d_u + d_v)", self.m * self.K * d)]
        if self.objective == LOGISTIC:
            sizes += [("batch_size", "m * K * batch_size", self.m * self.K * self.batch_size),
                      ("batch_size", "batch_size * (d_u + d_v)", self.batch_size * d)]
        for name, what, size in sizes:
            if size > _MAX_ELEMENTS:
                raise ConfigError(f"{name}: {what} = {size} exceeds the "
                                  f"{_MAX_ELEMENTS}-element array limit")

    def to_mapping(self) -> dict:
        """Resolved key-value form; loading it reproduces this config exactly."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if getattr(self, f.name) is not None}

    def hyper_params(self) -> fedcore.HyperParams:
        return fedcore.HyperParams(
            gamma_u=self.gamma_u, gamma_v=self.gamma_v,
            eta_u=self.eta_u, eta_v=self.eta_v,
            K=self.K, T=self.T, m=self.m,
        )


def _from_mapping(cls, raw: dict, what: str):
    """cls(**raw) for a JSON-facing dataclass; ConfigError for a key that
    names no field and for a missing field without default."""
    fields = dataclasses.fields(cls)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(sorted(unknown))}")
    for f in fields:
        if f.name not in raw and f.default is dataclasses.MISSING:
            raise ConfigError(f"{f.name}: required {what} key")
    return cls(**raw)


def config_from_mapping(raw: dict) -> ExperimentConfig:
    return _from_mapping(ExperimentConfig, raw, "config")


def _load_json_object(path: str) -> dict:
    """The JSON object a file holds; ConfigError naming the file otherwise."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as e:  # not UTF-8, malformed JSON, or an int past the digit limit
            raise ConfigError(f"{path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return config_from_mapping(_load_json_object(path))


def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.urandom(16).hex()}.tmp")
    try:
        # "x" creates the file with the mode "w" would give, 0o666 & ~umask
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return format(x, ".17g")


def trace_csv_text(traces) -> str:
    lines = [CSV_HEADER]
    for tr in traces:
        sampled = ";".join(str(i) for i in tr.sampled)
        lines.append(
            f"{tr.t},{_fmt(tr.f_value)},{_fmt(tr.grad_norm_u)},{_fmt(tr.grad_norm_v)},"
            f"{_fmt(tr.grad_norm_v_hat)},{sampled},{_fmt(tr.wall_ms)}"
        )
    return "\n".join(lines) + "\n"


def echo_path_for(output: str) -> str:
    base, _ = os.path.splitext(output)
    return base + ".config.json"


def build_oracle(config: ExperimentConfig, corpus: dataio.RawDataset | None = None):
    """Instantiate the configured objective (and its data) for this run. A
    logistic config partitions `corpus`, its IDX pair already loaded, when
    given, and loads the pair otherwise; ValueError, before any row is
    gathered, unless d_u + d_v is the corpus's feature count."""
    if config.objective == QUADRATIC:
        return dataio.synth_quadratic(
            config.n, config.d_u, config.d_v,
            config.spread, config.sigma_u, config.sigma_v, config.seed,
        )
    if corpus is None:
        corpus = dataio.load_mnist(config.images_path, config.labels_path)
    W = corpus.images.shape[1]
    if config.d_u + config.d_v != W:
        raise ValueError(f"d_u + d_v = {config.d_u} + {config.d_v} must equal feature count {W}")
    shards = dataio.partition_clients(corpus, config.n, config.partition, config.seed,
                                      cap=config.per_client_cap)
    return LogisticObjective(shards, config.d_u, rho=config.rho, batch_size=config.batch_size)


def run_experiments(configs: list[ExperimentConfig]):
    """Run configs that differ only in `seed` and `output` as one replica
    run (`fedcore.run_replicas`); write each trace CSV and config echo;
    return one (output_path, TrainingResult) per config.

    Each result is bitwise the config run alone, except `wall_ms`: a
    round's time is the shared replica round's. Raises ValueError for no
    configs, and before any run for configs that differ in anything but
    seed and output or that name one output twice.
    """
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    shared = {tuple(dict(c.to_mapping(), seed=0, output="").items()) for c in configs}
    if len(shared) > 1 or len({os.path.abspath(c.output) for c in configs}) < len(configs):
        raise ValueError("replica configs may differ only in seed and output, one output each")
    # the configs name one corpus: parse it once, partition it per seed
    corpus = (dataio.load_mnist(first.images_path, first.labels_path)
              if first.objective == LOGISTIC else None)
    results = fedcore.run_replicas(first.algorithm, [build_oracle(c, corpus) for c in configs],
                                   first.hyper_params(), [c.seed for c in configs])
    for config, result in zip(configs, results):
        _atomic_write_text(config.output, trace_csv_text(result.traces))
        _atomic_write_text(
            echo_path_for(config.output),
            json.dumps(config.to_mapping(), indent=2, sort_keys=True) + "\n",
        )
    return [(config.output, result) for config, result in zip(configs, results)]


def run_experiment(config: ExperimentConfig):
    """Run one experiment; write the trace CSV and config echo; return
    (output_path, TrainingResult)."""
    return run_experiments([config])[0]


def floor_of(traces) -> float:
    """Steady-state level: mean grad_norm_u + grad_norm_v_hat, final window."""
    T = len(traces)
    if T == 0:
        return float("nan")
    window = min(100, max(1, T // 5))
    tail = traces[-window:]
    return float(np.mean([tr.grad_norm_u + tr.grad_norm_v_hat for tr in tail]))


def rounds_to_threshold(traces, threshold: float):
    for tr in traces:
        if tr.grad_norm_u + tr.grad_norm_v_hat <= threshold:
            return tr.t
    return None


@dataclass
class SweepSpec:
    """One-axis sweep over gamma, m or K, crossed with seeds.

    `base` is kept unresolved so per-cell defaults (eta from the cell's m)
    re-derive correctly for each axis value.
    """

    base: dict
    axis: str
    values: list
    seeds: list | None = None  # default: the base seed
    threshold: float | None = None
    out_dir: str = "sweep"

    def __post_init__(self):
        # every check runs before any cell does; the cells' own configs are
        # validated by run_sweep before the first one runs
        _check_kinds(self)
        if self.seeds is None:
            self.seeds = [self.base.get("seed", 0)]
        for name in ("values", "seeds"):
            items = getattr(self, name)
            # equal entries would share one trace file and one summary mean
            dups = sorted({repr(x) for j, x in enumerate(items) if x in items[:j]})
            if dups:
                raise ConfigError(f"{name}: duplicate {name}: {', '.join(dups)}")


def load_sweep_spec(path: str) -> SweepSpec:
    return _from_mapping(SweepSpec, _load_json_object(path), "sweep")


def cell_config(spec: SweepSpec, value, seed: int) -> ExperimentConfig:
    raw = dict(spec.base)
    raw[spec.axis] = value  # every axis choice is a config field
    raw["seed"] = seed
    raw["output"] = os.path.join(spec.out_dir, f"{spec.axis}_{value!r}_seed{seed}.csv")
    return config_from_mapping(raw)


def run_sweep(spec: SweepSpec) -> str:
    """Run all (value, seed) cells; write per-cell traces and a summary CSV.

    Summary rows: one per cell plus one aggregate row per axis value
    (seed column "mean"). The cells of one axis value run as one replica
    run over the seeds (`run_experiments`), the values one after another.
    Each cell is bitwise its config run alone, so the summary is
    deterministic.
    """
    cells = [(value, seed) for value in spec.values for seed in spec.seeds]
    configs = [cell_config(spec, value, seed) for value, seed in cells]
    group = len(spec.seeds)
    all_traces = [result.traces for j in range(0, len(configs), group)
                  for _, result in run_experiments(configs[j:j + group])]

    lines = ["axis,value,seed,floor,rounds_to_threshold,trace_file"]
    by_value: dict = {}
    for (value, seed), cfg, traces in zip(cells, configs, all_traces):
        fl = floor_of(traces)
        thr = spec.threshold if spec.threshold is not None else 2.0 * fl
        rt = rounds_to_threshold(traces, thr)
        by_value.setdefault(value, []).append((fl, rt))
        rt_str = "" if rt is None else str(rt)
        lines.append(f"{spec.axis},{value!r},{seed},{_fmt(fl)},{rt_str},{cfg.output}")
    for value in spec.values:
        rows = by_value[value]
        mean_floor = float(np.mean([fl for fl, _ in rows]))
        hits = [rt for _, rt in rows if rt is not None]
        mean_rt = _fmt(float(np.mean(hits))) if len(hits) == len(rows) else ""
        lines.append(f"{spec.axis},{value!r},mean,{_fmt(mean_floor)},{mean_rt},")

    summary = os.path.join(spec.out_dir, "summary.csv")
    _atomic_write_text(summary, "\n".join(lines) + "\n")
    return summary
