"""One workload process: set up, run whole units for a time budget, check.

Started by run.py, never by hand. Prints one JSON object as its last line.
With --setup-only it stops after set-up and reports set-up time alone.
Set-up time runs from `--t-spawn`, the parent's CLOCK_MONOTONIC reading
just before it started this process, to the start of the first unit, so it
covers interpreter start, importing fedpart and the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _phase(wl, budget_s: float, wall_ms: list) -> dict:
    """Whole units until their summed time reaches budget_s (at least one)."""
    rounds, units, spent, cpu = 0, 0, 0.0, 0.0
    while spent < budget_s or not units:
        c0 = _cpu_s()
        t0 = time.perf_counter()
        r = wl.unit()
        dt = time.perf_counter() - t0
        cpu += _cpu_s() - c0
        spent += dt
        rounds += r
        units += 1
        for path in wl.trace_files():
            with open(path, encoding="utf-8") as f:
                wall_ms.extend(float(line.rsplit(",", 1)[1]) for line in f.readlines()[1:])
    return {"rounds": rounds, "units": units, "seconds": spent,
            "cpu_util": cpu / (wl.workers * spent)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import fedpart

    if os.path.dirname(os.path.dirname(os.path.abspath(fedpart.__file__))) != src:
        raise SystemExit(f"imported fedpart from {fedpart.__file__}, not from {src}")

    import checks
    import tracer
    import workloads

    wl = workloads.make(args.workload, args.seed, args.work_dir)
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install({"workloads": workloads})
    wl.setup()
    out = {"setup_s": time.monotonic() - args.t_spawn}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    wall_ms: list[float] = []
    if tr:
        tr.remove()
        plain = _phase(wl, args.seconds / 2, wall_ms)
        tr.install({"workloads": workloads})
        traced = _phase(wl, args.seconds / 2, [])
        tr.remove()
        out["layers"] = tr.layer_metrics(traced["units"])
        out["layers"]["harness.sweep.cpu_util"] = {"value": plain["cpu_util"], "unit": "ratio"}
        out["layers"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced["seconds"] / traced["rounds"]
                              / (plain["seconds"] / plain["rounds"]) - 1.0), "unit": "%"}
        out["absent"] = tr.absent_layers()
        tr.write_spans(os.path.join(args.work_dir, "spans.csv"))
        out["rounds"] = plain["rounds"] + traced["rounds"]
    else:
        plain = _phase(wl, args.seconds, wall_ms)
        out["rounds"] = plain["rounds"]
    out["rounds_per_s"] = plain["rounds"] / plain["seconds"]
    ru = resource.getrusage
    out["peak_rss_mb"] = (ru(resource.RUSAGE_SELF).ru_maxrss
                          + ru(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    out["wall_ms"] = wall_ms
    try:
        wl.check()
        out["error"] = None
    except checks.CheckError as e:
        out["error"] = f"{args.workload}: {e}"
    print(json.dumps(out))
    return 0 if out["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
