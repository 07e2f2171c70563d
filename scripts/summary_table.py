#!/usr/bin/env python3
"""Print the nonclassicality classification table with each row's minimum
witness value and caveat.  Reads the flags of `twomode table1` with its parser."""

import sys

from twomode.cli import _build_parser, _guarded
from twomode.sweep import format_table1, table1_report


def _summary(argv) -> int:
    args = _build_parser().parse_args(["table1", *argv])
    rows = table1_report(m_values=args.totals, q_values=args.q)
    print(format_table1(rows))
    print()
    for row in rows:
        print(f"  {row.label}: minimum witness value {row.minimum:+.6g}")
        if row.caveat:
            print(f"    note: {row.caveat}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return _guarded(lambda: _summary(argv))


if __name__ == "__main__":
    sys.exit(main())
