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
from .moments import Engine, compare_engines
from .states import InvalidParams, NormalizationAnomaly
from .sweep import (
    FIXED_TOTAL_FAMILIES,
    ConfigError,
    STANDARD_M,
    STANDARD_Q,
    SweepConfig,
    format_table1,
    load_config,
    parse_list,
    reproduce_figures,
    run_sweep,
    _build_state,
    _check_budget,
    table1_report,
)


# compare's default order; every exponent above M gives an empty series, so
# --max-order may reach M, or this default when M is smaller
DEFAULT_MAX_ORDER = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract reserves 2
    # for I/O problems, so usage errors are rethrown as config errors
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept tokens like "-0.01,0,0.01", "-inf:0.9:3" or "-nan" as
        # values, not option strings
        self._negative_number_matcher = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)

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
    # no default for --engine and --format: from_fields applies them, and
    # _cmd_sweep rejects any field flag given beside --config
    p_sweep.add_argument("--engine", default=None, help="literal|oracle|both (default literal)")
    p_sweep.add_argument("--out", type=Path, default=None, help="output directory")
    p_sweep.add_argument("--format", dest="output_format", default=None,
                         help="csv|svg+csv (default csv)")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_fig = sub.add_parser("figures", help="write the reference figure panels")
    p_fig.add_argument("--out", type=Path, required=True, help="output directory")
    p_fig.set_defaults(run=_cmd_figures)

    p_tab = sub.add_parser("table1", help="print the summary classification table")
    # parse_list raises ConfigError, which is not a ValueError, so argparse
    # lets it through unwrapped and main prints its message
    p_tab.add_argument("--q", type=parse_list, default=STANDARD_Q,
                       help="override the q grid (comma-separated)")
    p_tab.add_argument("--M", dest="totals", type=lambda text: parse_list(text, int, "M list"),
                       default=STANDARD_M, help="override the M grid (comma-separated)")
    p_tab.set_defaults(run=_cmd_table1)

    p_cmp = sub.add_parser("compare", help="compare moment engines on one state")
    p_cmp.add_argument("--state", type=str.lower, default="ngbs", help="ngbs|binomial|fock")
    p_cmp.add_argument("--M", dest="total", type=int, required=True)
    p_cmp.add_argument("--p", type=float, required=True)
    p_cmp.add_argument("--q", type=float, default=0.0)
    p_cmp.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p_cmp.set_defaults(run=_cmd_compare)
    return parser


def _cmd_sweep(args) -> int:
    fields = {
        "state": args.state, "m": args.total, "q": args.q, "p": args.p,
        "witnesses": None if args.witness is None else ";".join(args.witness),
        "engine": args.engine, "out": args.out, "format": args.output_format,
    }
    if args.config is None:
        config = SweepConfig.from_fields(fields)
    elif any(value is not None for value in fields.values()):
        raise ConfigError("--config takes none of --state, --M, --q, --p, --witness, "
                          "--engine, --out, --format")
    else:
        config = load_config(args.config)
    rows = run_sweep(config)
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"wrote {len(rows)} rows ({ok} ok) to {config.output_path}")
    return 0


def _cmd_figures(args) -> int:
    counts = reproduce_figures(args.out)
    print(f"wrote {len(counts)} figure panels ({sum(counts.values())} rows) "
          f"and discrepancy_report.csv to {args.out}")
    return 0


def _cmd_table1(args) -> int:
    rows = table1_report(m_values=args.totals, q_values=args.q)
    print(format_table1(rows))
    # on stderr, so that the table on stdout stays as it was
    for row in rows:
        if row.caveat:
            print(f"note: {row.label}: {row.caveat}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    if args.state not in FIXED_TOTAL_FAMILIES:
        raise ConfigError(f"compare supports the fixed-total families "
                          f"{', '.join(FIXED_TOTAL_FAMILIES)}; got {args.state!r}")
    if args.max_order < 0:
        raise ConfigError(f"--max-order must be >= 0, got {args.max_order}")
    bound = max(args.total, DEFAULT_MAX_ORDER)
    if args.max_order > bound:
        raise ConfigError(f"--max-order must be at most max(M, {DEFAULT_MAX_ORDER}) = {bound}, "
                          f"got {args.max_order}: every exponent above M gives an empty series")
    _check_budget(args.state, args.total, (args.p, args.p, 1), (Engine.LITERAL, Engine.ORACLE))
    state = _build_state(args.state, args.total, args.p, args.q)

    # in print order: mode 1, then mode 2 without its copy of the identity
    orders = [(d, low) for d in range(args.max_order + 1) for low in range(args.max_order + 1)]
    rows = [(1, d, low, MomentSpec(d, low, 0, 0)) for d, low in orders]
    rows += [(2, d, low, MomentSpec(0, 0, d, low)) for d, low in orders[1:]]

    print(f"state={args.state} M={args.total} p={args.p} q={args.q}")
    print(f"{'mode':>4} {'daggers':>7} {'lowers':>6} {'literal':>20} "
          f"{'oracle':>20} {'|delta|':>12} {'empty':>5}")
    reports = compare_engines(state, [spec for *_, spec in rows])
    for (mode, daggers, lowers, _), report in zip(rows, reports):
        print(f"{mode:>4} {daggers:>7} {lowers:>6} {report.literal_value.real:>20.12g} "
              f"{report.oracle_value.real:>20.12g} {report.abs_discrepancy:>12.3e} "
              f"{'yes' if report.degenerate else 'no':>5}")
    return 0


def _guarded(run) -> int:
    """Call ``run()`` and flush stdout; its status, or the exit code of the
    error it raised (see the module docstring)."""
    try:
        status = run()
        # flush here, not at exit, so that a closed stdout is caught below
        sys.stdout.flush()
        return status
    except (ConfigError, InvalidParams, NormalizationAnomaly, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away: nothing to report to it, and the interpreter's
        # own flush at exit must not fail again on the buffered rest
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    def run():
        args = _build_parser().parse_args(argv)
        return args.run(args)

    return _guarded(run)


if __name__ == "__main__":
    sys.exit(main())
