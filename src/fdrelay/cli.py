"""The ``fdrelay`` command line.

Subcommands:

* ``run``        execute an experiment sweep and write its CSV
* ``verify``     run the structural check suite, print pass/fail per check
* ``oracle-gap`` solver-vs-brute-force gap report (table to stdout, CSV optional)

Config files are flat ``key = value`` text (see fdrelay.harness.load_config);
without ``--config`` a stock 8-relay setup is used.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, model


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _csv_names(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _spec(**kwargs) -> harness.ExperimentSpec:
    try:
        return harness.ExperimentSpec(**kwargs)
    except ValueError as exc:  # a bad sweep argument: report it like a bad config
        raise model.ConfigError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrelay",
        description="Power control and relay selection experiments for "
                    "full-duplex underlay relaying.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment sweep, write CSV")
    run.add_argument("--experiment", required=True, choices=harness.EXPERIMENTS)
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument("--realizations", type=int, default=200,
                     help="Monte-Carlo realizations (default 200)")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--scenarios", type=_csv_names, default=None,
                     help="comma list: noncoherent,coherent,hd-baseline")
    run.add_argument("--zetas", type=_csv_floats, default=None,
                     help="comma list of leakage factors")
    run.add_argument("--ibar-db", type=_csv_floats, default=None,
                     help="comma list of interference caps in dB")

    verify = sub.add_parser("verify", help="run the structural check suite")
    verify.add_argument("--config", help="flat key=value config file")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--points", type=_positive_int, default=2000,
                        help="pointwise checks per suite entry (default 2000)")
    verify.add_argument("--draws", type=_positive_int, default=50,
                        help="channel draws per witness check (default 50)")

    gap = sub.add_parser("oracle-gap", help="solver-vs-oracle gap report")
    gap.add_argument("--config", help="flat key=value config file "
                                      "(default: single-relay stock setup)")
    gap.add_argument("--seed", type=int, default=0)
    gap.add_argument("--realizations", type=int, default=100)
    gap.add_argument("--grid-n", type=int, default=201, help="oracle lattice size")
    gap.add_argument("--ibar-db", type=_csv_floats, default=(0., 2., 4., 6., 8., 10.))
    gap.add_argument("--out", help="also write per-realization rows as CSV")
    return parser


def _config_from(args, fallback: model.NetworkConfig) -> model.NetworkConfig:
    if args.config:
        return harness.load_config(args.config)
    return fallback


def _cmd_run(args) -> int:
    config = _config_from(args, harness.default_config())
    kwargs = dict(name=args.experiment, num_realizations=args.realizations,
                  base_seed=args.seed)
    if args.scenarios:
        kwargs["scenarios"] = args.scenarios
    if args.zetas:
        kwargs["zeta_list"] = args.zetas
    if args.ibar_db:
        kwargs["i_bar_p_db_list"] = args.ibar_db
    if args.experiment in ("rate-vs-pr", "rate-vs-ps"):
        # fixed-power shape studies default to the single-cap, strong-leakage
        # setup instead of the cap-sweep defaults
        kwargs.setdefault("i_bar_p_db_list", (8.0,))
        kwargs.setdefault("zeta_list", (0.4,))
    spec = _spec(**kwargs)
    rows = harness.run_experiment(spec, config)
    harness.emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    config = _config_from(args, harness.default_config())
    checks = harness.lemma_suite(config, base_seed=args.seed,
                                 num_points=args.points, num_draws=args.draws)
    width = max(len(c.name) for c in checks)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        all_ok = all_ok and c.passed
        print(f"{c.name:<{width}}  {status}  [{c.checked} checks] {c.detail}")
    print(f"{'suite':<{width}}  {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_oracle_gap(args) -> int:
    config = _config_from(args, harness.default_config(num_relays=1))
    spec = _spec(name="optimality-gap", i_bar_p_db_list=args.ibar_db,
                 num_realizations=args.realizations, base_seed=args.seed,
                 grid_n=args.grid_n)
    rows = harness.run_experiment(spec, config)
    if args.out:
        harness.emit_csv(rows, args.out)
    print(f"{'scenario':<12} {'ibar_db':>7} {'mean_gap%':>10} {'max_gap%':>9} "
          f"{'mean_rate':>10}")
    worst_mean = worst_max = -np.inf
    for scen in spec.scenarios:
        for ibar in spec.i_bar_p_db_list:
            cell = [r for r in rows if r.scenario == scen and r.i_bar_p_db == ibar]
            gaps = np.array([r.gap_pct for r in cell])
            rates = np.array([r.rate for r in cell])
            worst_mean = max(worst_mean, gaps.mean())
            worst_max = max(worst_max, gaps.max())
            print(f"{scen:<12} {ibar:>7.1f} {gaps.mean():>10.4f} {gaps.max():>9.4f} "
                  f"{rates.mean():>10.4f}")
    print(f"worst cell: mean {worst_mean:.4f}%, max {worst_max:.4f}%")
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_oracle_gap(args)
    except (model.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
