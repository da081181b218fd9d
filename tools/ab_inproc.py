"""In-process A/B timing of two source trees, with an A/A control.

    python3 tools/ab_inproc.py --parent HEAD~1 --change HEAD --pairs 80
    python3 tools/ab_inproc.py --trees PARENT_DIR CHANGE_DIR --pairs 5

Exports each revision with `bench_pairs.export` (or takes two directories
as they are), plus a second copy of the parent as an A/A control, and loads
each tree's `src/fedpart` into this one process under its own package
name. The three copies share one interpreter, one numpy and one BLAS, so
what differs between them is their code and where it lies in memory.

Four call sites are timed, each on inputs made once from `--seed`. The
logistic objective is the one `harness.build_oracle` makes of 10 000
random uint8 images with digit labels (`by_label`, 10 shards of 1000 rows,
d_u = d_v = 392, batch 200, rho 0.01). A config and a corpus are inputs
that revisions with different shard or objective constructors all accept,
so one site code serves both trees.
- `local_steps`: logistic local steps of 9 rows, K 25
- `value_and_grads`: the full-batch logistic metrics of all 10 shards
- `logistic_run`: one `run_training("scaffold_p", ...)` on the 10 shards,
  m 9, K 25, T 2: the control-variate start and two whole rounds
- `quad_sweep`: one `quad-sweep` unit, `run_sweep` over K 5/10/20/40 x 2
  seeds, T 100, into a temporary directory

Each pair times one call of every tree, the order of the trees rotating
from pair to pair. Every call's output must equal the parent's bitwise
(traces without their wall_ms, and the logistic run's final u, V and C),
and so must one logistic `stoch_grads` call; a difference exits 1 naming the site and the tree.
Prints, per call site, the median and quartiles of parent time / change
time (above 1: the change is faster) and of parent time / parent-copy time.
An A/B median inside the A/A quartiles is a difference this tool cannot
resolve. Exits 2 when a tree has no src/fedpart.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

TOOLS = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change", "copy")
SITES = ("local_steps", "value_and_grads", "logistic_run", "quad_sweep")
D_U = D_V = 392
LOGISTIC = dict(objective="logistic_mnist", images_path="-", labels_path="-",
                partition="by_label", n=10, per_client_cap=1000, d_u=D_U, d_v=D_V,
                batch_size=200, rho=0.01)
SWEEP_BASE = dict(algorithm="fedavg_p", objective="quadratic", n=10, m=9, d_u=5, d_v=5,
                  spread=1.0, sigma_u=1.0, sigma_v=1.0, T=100)


def load_package(name: str, tree: str):
    """The tree's src/fedpart, imported as the package `name`."""
    pkg = os.path.join(tree, "src", "fedpart")
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Sites:
    """The call sites of one loaded tree, on inputs shared by all."""

    def __init__(self, fedpart, inputs: dict, out_dir: str):
        self.fedpart = fedpart
        self.inputs = inputs
        corpus = fedpart.RawDataset(images=inputs["images"], labels=inputs["labels"])
        self.logistic = fedpart.harness.build_oracle(
            fedpart.harness.config_from_mapping(dict(LOGISTIC)), corpus)
        self.hp = fedpart.HyperParams(gamma_u=0.05, gamma_v=0.05, eta_u=1.0, eta_v=1.0,
                                      K=25, T=2, m=9)
        self.spec = fedpart.SweepSpec(base=dict(SWEEP_BASE), axis="K", values=[5, 10, 20, 40],
                                      seeds=inputs["sweep_seeds"], out_dir=out_dir)

    def _rngs(self, tag: int, rows: int):
        return [np.random.default_rng([self.inputs["seed"], tag, j]) for j in range(rows)]

    def call(self, site: str):
        """(seconds, output) of one call of the site."""
        x = self.inputs
        if site == "local_steps":
            args = (x["ids"], x["U"], x["V"], x["Corr"], 25, 0.05, 0.05, self._rngs(0, 9))
            fn = self.logistic.local_steps
        elif site == "value_and_grads":
            args = (np.arange(10), x["U"][0], x["V_all"])
            fn = self.logistic.value_and_grads
        elif site == "stoch_grads":
            args = (x["ids"], x["U"], x["V"], 25, self._rngs(1, 9))
            fn = self.logistic.stoch_grads
        elif site == "logistic_run":
            args = ("scaffold_p", self.logistic, self.hp, x["seed"])
            fn = self.fedpart.run_training
        else:
            args = (self.spec,)
            fn = self.fedpart.run_sweep
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        if site == "logistic_run":
            out = ([(tr.t, tr.f_value, tr.grad_norm_u, tr.grad_norm_v, tr.grad_norm_v_hat,
                     tr.sampled) for tr in out.traces], out.u, out.v_all, out.clients.C)
        return elapsed, (self._traces() if site == "quad_sweep" else out)

    def _traces(self):
        """Each sweep cell's trace CSV lines without the wall_ms column."""
        out = []
        for name in sorted(os.listdir(self.spec.out_dir)):
            if name.endswith(".csv") and name != "summary.csv":
                with open(os.path.join(self.spec.out_dir, name)) as f:
                    out.append([line.rsplit(",", 1)[0] for line in f.read().splitlines()])
        return out


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "images": rng.integers(0, 256, size=(10_000, D_U + D_V), dtype=np.uint8),
        "labels": rng.integers(0, 10, size=10_000),
        "ids": np.arange(9),
        "U": rng.standard_normal((9, D_U)) * 0.01,
        "V": rng.standard_normal((9, D_V)) * 0.01,
        "V_all": rng.standard_normal((10, D_V)) * 0.01,
        "Corr": rng.standard_normal((9, D_U)) * 0.001,
        "sweep_seeds": [2 * seed, 2 * seed + 1],
    }


def same(a, b) -> bool:
    """Bitwise equality of nested tuples, lists and arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def run(trees: dict, pairs: int, seed: int, work: str) -> int:
    inputs = make_inputs(seed)
    sites = {side: Sites(load_package(f"_ab_fedpart_{side}", tree), inputs,
                         os.path.join(work, f"sweep_{side}"))
             for side, tree in trees.items()}
    reference = {site: sites["parent"].call(site)[1] for site in ("stoch_grads", *SITES)}
    times = {site: {side: [] for side in SIDES} for site in SITES}
    for k in range(-1, pairs):  # pair -1: an untimed first call of every tree
        order = SIDES[k % 3:] + SIDES[:k % 3]
        for site in (("stoch_grads", *SITES) if k < 0 else SITES):
            for side in order:
                elapsed, out = sites[side].call(site)
                if not same(out, reference[site]):
                    print(f"{site}: the {side} tree's output differs from the parent's",
                          file=sys.stderr)
                    return 1
                if k >= 0:
                    times[site][side].append(elapsed)
    print(f"{pairs} pairs, seed {seed}; ratios are parent time / other time, "
          "median [quartiles]")
    for site in SITES:
        t = times[site]
        cells = []
        for other, label in (("change", "A/B parent/change"), ("copy", "A/A parent/copy")):
            q1, med, q3 = quartiles([p / o for p, o in zip(t["parent"], t[other])])
            cells.append(f"{label} {med:.3f} [{q1:.3f}-{q3:.3f}]")
        print(f"{site:16s} parent {statistics.median(t['parent']) * 1e3:8.2f} ms  "
              + "  ".join(cells))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="git revision of the base side")
    ap.add_argument("--change", help="git revision of the changed side")
    ap.add_argument("--trees", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"),
                    help="two directories holding src/fedpart, in place of revisions")
    ap.add_argument("--pairs", type=int, default=40, help="timed calls per tree and site")
    ap.add_argument("--seed", type=int, default=0, help="seeds the inputs")
    args = ap.parse_args(argv)
    if args.trees is None and not (args.parent and args.change) or args.trees and (
            args.parent or args.change):
        ap.error("give either --trees or both --parent and --change")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    work = tempfile.mkdtemp(prefix="ab_inproc_")
    try:
        if args.trees:
            trees = dict(zip(("parent", "change"), args.trees))
        else:
            spec = importlib.util.spec_from_file_location(
                "bench_pairs", os.path.join(TOOLS, "bench_pairs.py"))
            bench_pairs = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(bench_pairs)
            trees = {}
            for side, rev in (("parent", args.parent), ("change", args.change)):
                trees[side] = os.path.join(work, side)
                os.makedirs(trees[side])
                bench_pairs.export(rev, trees[side])
        for side, tree in trees.items():
            if not os.path.isfile(os.path.join(tree, "src", "fedpart", "__init__.py")):
                print(f"{side} tree {tree} has no src/fedpart", file=sys.stderr)
                return 2
        trees["copy"] = os.path.join(work, "copy")
        shutil.copytree(os.path.join(trees["parent"], "src"), os.path.join(trees["copy"], "src"))
        return run(trees, args.pairs, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
