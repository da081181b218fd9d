"""Span tracer for the traced run.

`Tracer.install` replaces module and class attributes of fedpart with
timing wrappers defined here; `remove` puts the originals back. A span
wrapper records (id, parent id, name, start ns, end ns, inside a round) on
the calling thread's own stack, so spans of sweep worker threads are kept
apart; a count wrapper only counts calls made inside a round. Spans stay in
memory until `write_spans`. A wrapped attribute that no longer exists is
reported absent and its metrics read 0.

Self time is a span's duration minus the durations of its direct children.
Children run on the parent's thread, nested by the call stack, so they
never overlap and their sum is the time they cover.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter

ROUND = "fedcore.run_round"

# span name -> (module path, attribute) targets; a class target names the
# class, whose method is wrapped
SPANS = {
    "rng.stream": [("fedpart.fedcore", "stream")],
    ROUND: [("fedpart.fedcore", "run_round")],
    "fedcore.sample_clients": [("fedpart.fedcore", "sample_clients")],
    "fedcore.merge_personal": [("fedpart.fedcore", "merge_personal")],
    "fedcore.aggregate_shared": [("fedpart.fedcore", "aggregate_shared")],
    "fedcore.update_client_control": [("fedpart.fedcore", "update_client_control")],
    "fedcore.update_server_control": [("fedpart.fedcore", "update_server_control")],
    "fedcore.init_control_variates": [("fedpart.fedcore", "init_control_variates")],
    "objectives.local_steps": [("fedpart.objectives.QuadraticObjective", "local_steps"),
                               ("fedpart.objectives.LogisticObjective", "local_steps")],
    "kernels.local_steps": [("fedpart.backend", "quad_local_steps"),
                            ("fedpart.backend", "logistic_local_steps"),
                            ("fedpart.kernels", "quad_local_steps"),
                            ("fedpart.kernels", "logistic_local_steps")],
    "metrics.function_value": [("fedpart.metrics", "function_value")],
    "metrics.grad_norm_shared": [("fedpart.metrics", "grad_norm_shared")],
    "metrics.grad_norm_personal": [("fedpart.metrics", "grad_norm_personal")],
    "dataio.load_mnist": [("fedpart.dataio", "load_mnist")],
    "dataio.partition_clients": [("fedpart.dataio", "partition_clients")],
    "dataio.synth_quadratic": [("fedpart.dataio", "synth_quadratic")],
    "harness.build_oracle": [("fedpart.harness", "build_oracle")],
    "harness.run_experiment": [("fedpart.harness", "run_experiment")],
    "harness.write": [("fedpart.harness", "trace_csv_text"),
                      ("fedpart.harness", "_atomic_write_text"),
                      ("workloads", "write_trace")],
}

# counted, not timed: these run n to 3n times a round on quad-wide
COUNTS = {
    "objectives.value": [("fedpart.objectives.QuadraticObjective", "value"),
                         ("fedpart.objectives.LogisticObjective", "value")],
    "objectives.grads": [("fedpart.objectives.QuadraticObjective", "grads"),
                         ("fedpart.objectives.LogisticObjective", "grads")],
}

# metric -> (unit, how, span or count names). how: "round_ms" sums the
# spans' time inside rounds, "round_self_ms" their self time, "round_calls"
# counts their calls inside rounds (each per round); "all_round_ms" sums all
# their time per round; "call_ms" is mean time per call; "unit_calls" is
# calls per unit of work
LAYER_METRICS = {
    "rng.stream.calls": ("calls/round", "round_calls", ["rng.stream"]),
    "rng.stream.ms": ("ms/round", "round_ms", ["rng.stream"]),
    "fedcore.run_round.self_ms": ("ms/round", "round_self_ms", [ROUND]),
    "fedcore.sample_clients.ms": ("ms/round", "round_ms", ["fedcore.sample_clients"]),
    "fedcore.merge.ms": ("ms/round", "round_ms",
                         ["fedcore.merge_personal", "fedcore.aggregate_shared"]),
    "fedcore.control.ms": ("ms/round", "round_ms",
                           ["fedcore.update_client_control", "fedcore.update_server_control"]),
    "fedcore.init_control_variates.ms": ("ms", "call_ms", ["fedcore.init_control_variates"]),
    "objectives.local_steps.calls": ("calls/round", "round_calls", ["objectives.local_steps"]),
    "objectives.local_steps.self_ms": ("ms/round", "round_self_ms", ["objectives.local_steps"]),
    "kernels.local_steps.ms": ("ms/round", "round_ms", ["kernels.local_steps"]),
    "metrics.function_value.ms": ("ms/round", "round_ms", ["metrics.function_value"]),
    "metrics.grad_norm_shared.ms": ("ms/round", "round_ms", ["metrics.grad_norm_shared"]),
    "metrics.grad_norm_personal.ms": ("ms/round", "round_ms", ["metrics.grad_norm_personal"]),
    "objectives.value.calls": ("calls/round", "round_calls", ["objectives.value"]),
    "objectives.grads.calls": ("calls/round", "round_calls", ["objectives.grads"]),
    "dataio.load_mnist.ms": ("ms", "call_ms", ["dataio.load_mnist"]),
    "dataio.partition_clients.ms": ("ms", "call_ms", ["dataio.partition_clients"]),
    "dataio.synth_quadratic.ms": ("ms", "call_ms", ["dataio.synth_quadratic"]),
    "harness.build_oracle.ms": ("ms", "call_ms", ["harness.build_oracle"]),
    "harness.run_experiment.calls": ("calls/unit", "unit_calls", ["harness.run_experiment"]),
    "harness.write.ms": ("ms/round", "all_round_ms", ["harness.write"]),
}


def _resolve(path: str):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class _ThreadRecord:
    __slots__ = ("ident", "stack", "round_depth", "spans", "counts")

    def __init__(self):
        self.ident = threading.get_ident()
        self.stack = []
        self.round_depth = 0
        self.spans = []
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._ids = itertools.count(1)
        self._saved = []
        self.absent: set[str] = set()

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            self._records.append(rec)
        return rec

    def _span_wrapper(self, name: str, fn):
        record, ids, clock = self._record, self._ids, time.perf_counter_ns
        is_round = name == ROUND

        def wrapper(*args, **kwargs):
            rec = record()
            sid = next(ids)
            parent = rec.stack[-1] if rec.stack else 0
            in_round = rec.round_depth > 0
            rec.stack.append(sid)
            if is_round:
                rec.round_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if is_round:
                    rec.round_depth -= 1
                rec.stack.pop()
                rec.spans.append((sid, parent, name, t0, t1, in_round))

        return wrapper

    def _count_wrapper(self, name: str, fn):
        record = self._record

        def wrapper(*args, **kwargs):
            rec = record()
            if rec.round_depth:
                rec.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, extra_modules: dict) -> None:
        """Wrap every target; `extra_modules` maps names of the benchmark's
        own modules (not importable by path from fedpart) to the module."""
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, targets in table.items():
                for owner_path, attr in targets:
                    owner = extra_modules.get(owner_path) or _resolve(owner_path)
                    fn = None if owner is None else vars(owner).get(attr)
                    if fn is None:
                        self.absent.add(f"{owner_path}.{attr}")
                        continue
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, make(name, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def spans(self):
        """(thread ident, span) pairs, all threads."""
        for rec in self._records:
            for s in rec.spans:
                yield rec.ident, s

    def counts(self) -> Counter:
        total = Counter()
        for rec in self._records:
            total.update(rec.counts)
        return total

    def layer_metrics(self, units: int) -> dict:
        """Per-layer metrics over everything recorded; per-round values are
        divided by the number of rounds traced."""
        child_ns = Counter()
        for _, (sid, parent, _, t0, t1, _) in self.spans():
            if parent:
                child_ns[parent] += t1 - t0
        calls, round_calls = Counter(), Counter(self.counts())
        ns, round_ns, round_self_ns = Counter(), Counter(), Counter()
        for _, (sid, _, name, t0, t1, in_round) in self.spans():
            calls[name] += 1
            ns[name] += t1 - t0
            # a round span is not inside a round, but its time is per round
            if in_round or name == ROUND:
                round_calls[name] += 1
                round_ns[name] += t1 - t0
                round_self_ns[name] += t1 - t0 - child_ns[sid]
        rounds = calls[ROUND]
        out = {}
        for metric, (unit, how, names) in LAYER_METRICS.items():
            if how == "round_calls":
                v = sum(round_calls[n] for n in names) / rounds if rounds else 0.0
            elif how == "round_ms":
                v = sum(round_ns[n] for n in names) / 1e6 / rounds if rounds else 0.0
            elif how == "round_self_ms":
                v = sum(round_self_ns[n] for n in names) / 1e6 / rounds if rounds else 0.0
            elif how == "all_round_ms":
                v = sum(ns[n] for n in names) / 1e6 / rounds if rounds else 0.0
            elif how == "call_ms":
                c = sum(calls[n] for n in names)
                v = sum(ns[n] for n in names) / 1e6 / c if c else 0.0
            else:  # unit_calls
                v = sum(calls[n] for n in names) / units if units else 0.0
            out[metric] = {"value": v, "unit": unit}
        return out

    def absent_layers(self) -> list[str]:
        """Metrics none of whose targets exist any more."""
        gone = []
        for metric, (_, _, names) in LAYER_METRICS.items():
            targets = [f"{p}.{a}" for n in names for p, a in {**SPANS, **COUNTS}[n]]
            if all(t in self.absent for t in targets):
                gone.append(metric)
        return gone

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,thread,name,start_ns,end_ns,in_round\n")
            for ident, (sid, parent, name, t0, t1, in_round) in self.spans():
                f.write(f"{sid},{parent},{ident},{name},{t0},{t1},{int(in_round)}\n")
