"""Command line front end.

    schromax <experiment> [--config cfg.json] --out dir/ [--force] [--workers N]
    schromax --list
    schromax bessel-table --two-nu 0 [--r-max 50] [--count 500]

Exit codes: 0 pass, 2 bound-violation verdict, 1 error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from schromax import harness


def _default_workers() -> int | None:
    env = os.environ.get("SCHROMAX_WORKERS")
    try:
        return int(env) if env else None
    except ValueError:
        raise ValueError(f"SCHROMAX_WORKERS must be an integer, got {env!r}") from None


def _run_experiment(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = harness.ExperimentConfig.from_json(fh.read())
        if cfg.experiment != args.experiment:
            print(f"error: config names experiment {cfg.experiment!r}, "
                  f"command line says {args.experiment!r}", file=sys.stderr)
            return 1
    else:
        cfg = harness.ExperimentConfig(args.experiment)
    workers = args.workers if args.workers is not None else _default_workers()
    manifest = harness.run_experiment(cfg, args.out, force=args.force,
                                      workers=workers)
    print(f"{manifest.experiment}: {manifest.verdict} "
          f"({manifest.timings['total_seconds']:.1f} s) -> {args.out}")
    return 0 if manifest.verdict == "pass" else 2


def _run_bessel_table(args) -> int:
    from schromax import special
    nu = special.BesselOrder(args.two_nu)
    r = np.linspace(args.r_min, args.r_max, args.count)
    print("r,J_nu,K_nu_re,K_nu_im")
    for ri in map(float, r):
        j = special.bessel_j(nu, ri)
        k = 0.0 if nu.kernel_vanishes else special.remainder_kernel(nu, ri)
        # K_nu is real; the K_nu_im column stays for readers of the old table
        print(f"{ri!r},{j!r},{k!r},0.0")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schromax",
        description="numerical experiments for dispersive maximal estimates")
    parser.add_argument("--list", action="store_true",
                        help="list experiment names and exit")
    sub = parser.add_subparsers(dest="command")

    for name in harness.EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--force", action="store_true")
        p.add_argument("--workers", type=int, default=None)
        p.set_defaults(func=_run_experiment, experiment=name)

    p = sub.add_parser("bessel-table")
    p.add_argument("--two-nu", type=int, default=0)
    p.add_argument("--r-min", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=50.0)
    p.add_argument("--count", type=int, default=500)
    p.set_defaults(func=_run_bessel_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in harness.EXPERIMENTS:
            print(name)
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (ValueError, FileExistsError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
