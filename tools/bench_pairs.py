"""Paired benchmark runs of two commits.

    python3 tools/bench_pairs.py --label pr7 --parent HEAD~1 --change HEAD --seeds 7001-7010
    python3 tools/bench_pairs.py --label c9 --parent HEAD~1 --change HEAD --seeds 11001-11010 \
        --pytest tests/test_acceptance.py::test_criterion_09_corpus_trends

Exports each commit with `git archive` into its own temporary directory and
runs the benchmark that BENCHMARK.json declares (`perfbench/run.py
--workload <w> --seed <s> --seconds <run_seconds> --trace 0`) from each copy,
alternating which side runs first: the parent first on the 1st, 3rd, ...
seed of a workload, the change first on the others. Writes
BENCH_<label>.json to the root of this checkout, rewritten after every pair,
with every run (the benchmark's exit code as `exit`) and, for each workload
and end-to-end metric: each side's median and quartiles, the pairs the
change wins (ties count for neither), the median of the per-seed ratios
change / parent, and whether that median ratio is within the metric's
BENCHMARK.json bound (at least 1 - bound for a higher-is-better metric, at
most 1 + bound for a lower-is-better one).

With `--pytest NODE` it then runs that pytest node (`python -m pytest -q
NODE`, with the checkout's `src` on PYTHONPATH) from each copy, one pair per
seed in the same alternation, and records each side's wall seconds
(`wall_s`, lower is better, no bound) and their median paired ratio under
"pytest". The seed only orders the pair; the node gets no seed.
Exits 1 when any run is incorrect, any pytest run fails, or any metric is
out of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'7001-7010' or '7001,7003,7005' to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct and >= 0: {text!r}")
    return seeds


def export(rev: str, into: str) -> str:
    """Commit SHA of rev, with its tree extracted into the directory `into`."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return sha


def run_once(checkout: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run's record: whether it was correct, its attempted and
    failed operations, the command's exit code and each metric's value. A
    run whose last output line is not a JSON result is incorrect."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        res = json.loads(proc.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "exit": proc.returncode,
            **{name: m["value"] for name, m in res["metrics"].items()}}


def run_pytest(checkout: str, node: str) -> dict:
    """Wall seconds of `python -m pytest -q NODE` in `checkout` and whether
    it passed."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(checkout, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return {"correct": proc.returncode == 0, "attempted": 1,
            "failed": int(proc.returncode != 0), "wall_s": wall}


def pair_order(k: int) -> tuple[str, str]:
    """Which side runs first in the k-th pair (from 0): the parent on even k."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def within_bound(ratio: float, metric: dict) -> bool:
    """Whether a median paired ratio change / parent is no worse than the
    metric's bound allows; a metric without a bound always is."""
    if "bound" not in metric:
        return True
    if metric["better"] == "higher":
        return ratio >= 1.0 - metric["bound"]
    return ratio <= 1.0 + metric["bound"]


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric paired summary of one workload's runs."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [(p["parent"], p["change"]) for p in by_seed.values() if len(p) == 2]
    out = {
        "seeds": [p["seed"] for p, _ in pairs],
        "all_correct": all(r["correct"] for r in runs),
        "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                   for side in ("parent", "change")},
        "attempted": {side: sum(r["attempted"] for r in runs if r["side"] == side)
                      for side in ("parent", "change")},
    }
    for m in metrics:
        name = m["name"]
        got = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not got:
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        parent = [p for p, _ in got]
        change = [c for _, c in got]
        ratio = statistics.median(c / p for p, c in got)
        out[name] = {
            "better": m["better"],
            "parent": summarize(parent),
            "change": summarize(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in got),
            "pairs": len(got),
            "median_paired_ratio": round(ratio, 4),
            "bound": m.get("bound"),
            "within_bound": within_bound(ratio, m),
            "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change],
        }
    return out


WALL = {"name": "wall_s", "better": "lower"}


def write_json(path: str, result: dict) -> None:
    with open(path + ".tmp", "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    os.replace(path + ".tmp", path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--parent", required=True, help="git revision of the base side")
    ap.add_argument("--change", required=True, help="git revision of the changed side")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="at least 10, e.g. 7001-7010; seeds not used while developing")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of BENCHMARK.json's workloads (default all)")
    ap.add_argument("--note", default="", help="what the change does, copied into the file")
    ap.add_argument("--pytest", default=None, metavar="NODE",
                    help="also time this pytest node, one pair per seed")
    args = ap.parse_args()
    if len(args.seeds) < 10:
        ap.error("--seeds needs at least 10 seeds, one pair each")

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        dirs = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        shas = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            os.makedirs(dirs[side])
            shas[side] = export(rev, dirs[side])
        # both sides run the benchmark as the change declares it
        with open(os.path.join(dirs["change"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        declared = [w["name"] for w in bench["workloads"]]
        workloads = args.workloads.split(",") if args.workloads else declared
        unknown = [w for w in workloads if w not in declared]
        if unknown:
            ap.error(f"--workloads: {', '.join(unknown)} not among BENCHMARK.json's "
                     f"{', '.join(declared)}")
        command = [sys.executable if bench["command"][0] == "python3" else bench["command"][0],
                   *bench["command"][1:]]
        seconds = bench["run_seconds"]
        result = {
            "label": args.label,
            "change": args.note,
            "commits": shas,
            "environment": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                            "machine": platform.machine()},
            "command": " ".join(bench["command"])
                       + f" --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
            "protocol": f"one pair per seed and workload, seeds {args.seeds[0]}-{args.seeds[-1]}; "
                        "the parent runs first on the 1st, 3rd, ... seed, the change first on "
                        "the others; each side runs from its own git archive of its commit; "
                        "quartiles over each side's runs; median_paired_ratio is the median "
                        "of change / parent per seed",
            "end_to_end": {},
            "runs": [],
        }
        out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
        for w in workloads:
            for k, seed in enumerate(args.seeds):
                for side in pair_order(k):
                    run = {"workload": w, "seed": seed, "side": side,
                           **run_once(dirs[side], command, w, seed, seconds)}
                    result["runs"].append(run)
                    print(json.dumps(run), file=sys.stderr, flush=True)
                result["end_to_end"][w] = compare(
                    [r for r in result["runs"] if r["workload"] == w], bench["end_to_end"])
                write_json(out_path, result)
        if args.pytest:
            result["pytest"] = {"node": args.pytest,
                                "command": f"python -m pytest -q -p no:cacheprovider {args.pytest}"}
            for k, seed in enumerate(args.seeds):
                for side in pair_order(k):
                    run = {"pytest": args.pytest, "seed": seed, "side": side,
                           **run_pytest(dirs[side], args.pytest)}
                    result["runs"].append(run)
                    print(json.dumps(run), file=sys.stderr, flush=True)
                result["pytest"].update(compare(
                    [r for r in result["runs"] if r.get("pytest") == args.pytest], [WALL]))
                write_json(out_path, result)
        ok = True
        for w, summary in result["end_to_end"].items():
            if not summary["all_correct"]:
                ok = False
                print(f"{w}: some runs are incorrect", file=sys.stderr)
            for m in bench["end_to_end"]:
                s = summary.get(m["name"])
                if s:
                    ok = ok and s["within_bound"]
                    print(f"{w} {m['name']}: parent {s['parent']['median']} change "
                          f"{s['change']['median']} ratio {s['median_paired_ratio']} "
                          f"wins {s['change_wins']}/{s['pairs']} "
                          f"{'within' if s['within_bound'] else 'OUT OF'} bound {m['bound']:g}",
                          file=sys.stderr)
        if args.pytest:
            s = result["pytest"]
            ok = ok and s["all_correct"]
            print(f"pytest {args.pytest}: wall_s parent {s['wall_s']['parent']['median']} "
                  f"change {s['wall_s']['change']['median']} ratio "
                  f"{s['wall_s']['median_paired_ratio']} wins {s['wall_s']['change_wins']}/"
                  f"{s['wall_s']['pairs']}{'' if s['all_correct'] else ', some runs FAILED'}",
                  file=sys.stderr)
        print(out_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
