"""Command-line interface.

Subcommands:

    sweep    run a witness sweep from a config file or flags
    figures  write the reference figure panels and the discrepancy report
    table1   print the summary classification table over the standard grid
    compare  side-by-side engine values for single-mode moments of one state

Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

import argparse
import re
import sys
from pathlib import Path

from .fock import MomentSpec
from .moments import compare_engines
from .states import InvalidParams, NGBSParams, NormalizationAnomaly, binomial_state, ngbs
from .sweep import (
    ConfigError,
    STANDARD_M,
    STANDARD_P_GRID,
    STANDARD_Q,
    SweepConfig,
    format_table1,
    load_config,
    parse_engines,
    parse_list,
    parse_p_grid,
    parse_witness_field,
    reproduce_figures,
    run_sweep,
    table1_report,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract reserves 2
    # for I/O problems, so usage errors are rethrown as config errors
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept tokens like "-0.01,0,0.01" as values, not option strings
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="twomode", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a witness sweep")
    p_sweep.add_argument("--config", type=Path, help="key=value config file")
    p_sweep.add_argument("--state", default=None, help="state family (ngbs|binomial|fock|coherent)")
    p_sweep.add_argument("--M", dest="total", type=int, default=None, help="total photon number")
    p_sweep.add_argument("--q", default=None, help="comma-separated q values")
    p_sweep.add_argument("--p", default=None, help="p grid as start:end:steps")
    p_sweep.add_argument("--witness", action="append", default=None,
                         help="witness token, e.g. hoa:9,1 (repeatable)")
    p_sweep.add_argument("--engine", default="literal", help="literal|oracle|both")
    p_sweep.add_argument("--out", type=Path, default=None, help="output directory")
    p_sweep.add_argument("--format", dest="output_format", default="csv",
                         help="csv|svg+csv")

    p_fig = sub.add_parser("figures", help="write the reference figure panels")
    p_fig.add_argument("--out", type=Path, required=True, help="output directory")

    p_tab = sub.add_parser("table1", help="print the summary classification table")
    p_tab.add_argument("--q", default=None, help="override the q grid (comma-separated)")
    p_tab.add_argument("--M", dest="totals", default=None,
                       help="override the M grid (comma-separated)")

    p_cmp = sub.add_parser("compare", help="compare moment engines on one state")
    p_cmp.add_argument("--state", default="ngbs", help="ngbs|binomial")
    p_cmp.add_argument("--M", dest="total", type=int, required=True)
    p_cmp.add_argument("--p", type=float, required=True)
    p_cmp.add_argument("--q", type=float, default=0.0)
    p_cmp.add_argument("--max-order", type=int, default=5)
    return parser


def _sweep_from_flags(args) -> SweepConfig:
    required = {"state": args.state, "M": args.total, "q": args.q,
                "p": args.p, "witness": args.witness, "out": args.out}
    missing = [k for k, v in required.items() if v is None]
    if missing:
        raise ConfigError(f"missing flags: {missing} (or pass --config)")
    witnesses = []
    for token in args.witness:
        witnesses.extend(parse_witness_field(token))
    config = SweepConfig(
        state_family=args.state.lower(),
        total=args.total,
        q_list=parse_list(args.q),
        p_grid=parse_p_grid(args.p),
        witnesses=tuple(witnesses),
        engines=parse_engines(args.engine),
        output_path=args.out,
        output_format=args.output_format,
    )
    config.validate()
    return config


def _cmd_sweep(args) -> int:
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = _sweep_from_flags(args)
    rows = run_sweep(config)
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"wrote {len(rows)} rows ({ok} ok) to {config.output_path}")
    return 0


def _cmd_figures(args) -> int:
    results = reproduce_figures(args.out)
    total = sum(len(rows) for rows in results.values())
    print(f"wrote {len(results)} figure panels ({total} rows) "
          f"and discrepancy_report.csv to {args.out}")
    return 0


def _cmd_table1(args) -> int:
    q_values = STANDARD_Q
    m_values = STANDARD_M
    if args.q is not None:
        q_values = parse_list(args.q)
    if args.totals is not None:
        m_values = parse_list(args.totals, int, "M list")
    rows = table1_report(m_values=m_values, q_values=q_values)
    print(format_table1(rows))
    # on stderr, so that the table on stdout stays as it was
    for row in rows:
        if row.caveat:
            print(f"note: {row.label}: {row.caveat}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    try:
        if args.state == "ngbs":
            state = ngbs(NGBSParams(args.total, args.p, args.q))
        elif args.state == "binomial":
            state = binomial_state(args.total, args.p)
        else:
            raise ConfigError(
                f"compare supports fixed-total families only, got {args.state!r}"
            )
    except (InvalidParams, NormalizationAnomaly) as exc:
        raise ConfigError(str(exc)) from exc
    if args.max_order < 0:
        raise ConfigError(f"--max-order must be >= 0, got {args.max_order}")

    specs = []
    for daggers in range(args.max_order + 1):
        for lowers in range(args.max_order + 1):
            specs.append(MomentSpec(daggers, lowers, 0, 0))
            if (daggers, lowers) != (0, 0):
                specs.append(MomentSpec(0, 0, daggers, lowers))

    def sort_key(report):
        spec = report.spec
        mode = 1 if (spec.r, spec.s) == (0, 0) else 2
        return (mode, spec.j + spec.r, spec.k + spec.s)

    print(f"state={args.state} M={args.total} p={args.p} q={args.q}")
    print(f"{'mode':>4} {'daggers':>7} {'lowers':>6} {'literal':>20} "
          f"{'oracle':>20} {'|delta|':>12} {'empty':>5}")
    for report in sorted(compare_engines(state, specs), key=sort_key):
        spec = report.spec
        mode = 1 if (spec.r, spec.s) == (0, 0) else 2
        daggers, lowers = (spec.j, spec.k) if mode == 1 else (spec.r, spec.s)
        print(f"{mode:>4} {daggers:>7} {lowers:>6} {report.literal_value.real:>20.12g} "
              f"{report.oracle_value.real:>20.12g} {report.abs_discrepancy:>12.3e} "
              f"{'yes' if report.degenerate else 'no':>5}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "compare":
            return _cmd_compare(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidParams, NormalizationAnomaly, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
