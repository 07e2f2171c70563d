#!/usr/bin/env python3
"""Print the nonclassicality classification table over the standard grid,
optionally restricted in q or M.  Equivalent to `twomode table1`."""

import argparse
import sys

from twomode.sweep import (
    STANDARD_M,
    STANDARD_Q,
    ConfigError,
    format_table1,
    parse_list,
    table1_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", default=None, help="comma-separated q values")
    parser.add_argument("--M", dest="totals", default=None,
                        help="comma-separated total photon numbers")
    args = parser.parse_args(argv)
    q_values = STANDARD_Q
    m_values = STANDARD_M
    try:
        if args.q is not None:
            q_values = parse_list(args.q)
        if args.totals is not None:
            m_values = parse_list(args.totals, int, "M list")
        rows = table1_report(m_values=m_values, q_values=q_values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_table1(rows))
    print()
    for row in rows:
        print(f"  {row.label}: minimum witness value {row.minimum:+.6g}")
        if row.caveat:
            print(f"    note: {row.caveat}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
