"""Round-throughput benchmark for fedpart.

    python3 perfbench/run.py --workload quad-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fedpart is imported from its `src/`. Each
process below starts fresh. With --trace 0, SETUP_PROCESSES processes only
set up, then one process sets up, runs whole units for --seconds and checks
the outputs; the last stdout line is a JSON object with the end-to-end
metrics: set-up time as the median over all these processes, rounds per
second and peak memory of the running one. With --trace 1 one process runs
half its time plain and half traced and reports the per-layer metrics. A
readable summary goes to stderr. Exit code 1 when an output check fails,
2 when there is no fedpart source to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("quad-sweep", "quad-wide", "logistic-corpus")
SETUP_PROCESSES = 8
CHILD_TIMEOUT_S = 150


def _spawn(args, work_dir: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, *extra, "--t-spawn"]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + [repr(t_spawn)], stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().split("\n")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"workload process exited {proc.returncode} without a result")


def latency_tail(wall_ms: list[float]) -> str:
    """Median round latency and the highest of p99.9/p99/p95/p90 with at
    least ten rounds beyond it; the median alone below forty rounds."""
    n = len(wall_ms)
    out = f"p50 {statistics.median(wall_ms):.3f} ms"
    if n >= 40:
        q = statistics.quantiles(wall_ms, n=1000)
        for p in (99.9, 99.0, 95.0, 90.0):
            if n * (100.0 - p) / 100.0 >= 10:
                out += f", p{p:g} {q[round(p * 10) - 1]:.3f} ms"
                break
    return out + f" over {n} rounds"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fedpart", "__init__.py")):
        print(f"no fedpart source under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)

    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if args.workload == "logistic-corpus":
        import corpus

        corpus.write_corpus(work_dir, args.seed)

    setups = [] if args.trace else [
        _spawn(args, work_dir, "--setup-only")["setup_s"] for _ in range(SETUP_PROCESSES)]
    res = _spawn(args, work_dir)
    if args.trace:
        metrics = res["layers"]
        for name in res["absent"]:
            print(f"layer absent: {name}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [res["setup_s"]]), "unit": "s"},
            "rounds_per_s": {"value": res["rounds_per_s"], "unit": "rounds/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    if res["error"]:
        print(f"CHECK FAILED {res['error']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds attempted, 0 failed; "
          f"round latency {latency_tail(res['wall_ms'])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": res["error"] is None, "attempted": res["rounds"],
                      "failed": 0, "metrics": metrics}))
    return 0 if res["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
