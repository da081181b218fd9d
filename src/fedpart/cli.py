"""Command-line front end.

Subcommands: run (one experiment), sweep (axis x seeds grid), stepsize
(theory-prescribed step sizes for given constants), estimate (constant
estimates for a config's objective at its initial point). Exit codes:
0 success, 1 runtime error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import fedcore, harness, metrics
from .rng import stream


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.output is not None:
        cfg = replace(cfg, output=args.output)
    path, result = harness.run_experiment(cfg)
    floor = harness.floor_of(result.traces)
    print(f"wrote {path} ({len(result.traces)} rounds, floor {floor:.6g})")
    print(f"config echo: {harness.echo_path_for(path)}")
    return 0


def _cmd_sweep(args) -> int:
    spec = harness.load_sweep_spec(args.spec)
    summary = harness.run_sweep(spec)
    print(f"wrote {summary}")
    return 0


class UsageError(Exception):
    """A command-line value the command cannot use (exit 2)."""


def _cmd_stepsize(args) -> int:
    # every input is a command-line value, so each rejection is a usage error
    try:
        gamma, eta_u, eta_v = fedcore.recommended_step_sizes(
            args.variant, args.L, args.K, args.T, args.F0,
            args.sigma_u, args.sigma_v, args.b, args.m, args.n,
        )
    except ValueError as e:
        raise UsageError(e) from e
    print(f"gamma = {gamma:.17g}")
    print(f"eta_u_min = {eta_u:.17g}")
    print(f"eta_v_min = {eta_v:.17g}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = harness.load_config(args.config)
    oracle = harness.build_oracle(cfg)
    u0 = np.zeros(oracle.d_u)
    v0 = np.zeros((oracle.n, oracle.d_v))
    # the probe settings are command-line values: the estimator's rejection
    # of them is a usage error
    try:
        est = metrics.estimate_constants(
            oracle, u0, v0, stream(cfg.seed, "probe"),
            probe_points=args.probes, radius=args.radius,
        )
    except ValueError as e:
        raise UsageError(e) from e
    print(f"L_hat = {est.L_hat:.17g}")
    print(f"b2_hat = {est.b2_hat:.17g}")
    print(f"F0 = {est.F0:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedpart", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--output", default=None, help="override the config's output path")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a one-axis sweep from a JSON spec")
    sweep.add_argument("--spec", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    step = sub.add_parser("stepsize", help="print theory-prescribed step sizes")
    step.add_argument("--variant", required=True, choices=fedcore.VARIANTS)
    step.add_argument("--L", type=float, required=True)
    step.add_argument("--K", type=int, required=True)
    step.add_argument("--T", type=int, required=True)
    step.add_argument("--F0", type=float, required=True)
    step.add_argument("--m", type=int, required=True)
    step.add_argument("--n", type=int, required=True)
    step.add_argument("--sigma-u", dest="sigma_u", type=float, default=0.0)
    step.add_argument("--sigma-v", dest="sigma_v", type=float, default=0.0)
    step.add_argument("--b", type=float, default=0.0)
    step.set_defaults(func=_cmd_stepsize)

    est = sub.add_parser("estimate", help="print constant estimates at a config's initial point")
    est.add_argument("--config", required=True)
    est.add_argument("--probes", type=int, default=120)
    est.add_argument("--radius", type=float, default=1.0)
    est.set_defaults(func=_cmd_estimate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (harness.ConfigError, UsageError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failures: bad data, diverged runs, IO
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
