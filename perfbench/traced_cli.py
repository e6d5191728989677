"""Run ``zonequery.cli.main`` with spans around the functions it calls.

Usage: python traced_cli.py SPANS_JSON OP_ID -- ZONEQUERY_ARGUMENTS...

The spans, ``cli.main`` and its children, are written to SPANS_JSON when
``main`` returns; the exit code is ``main``'s.
"""

from __future__ import annotations

import sys

from layers import instrument_cli
from spans import Recorder


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, op, args = argv[0], int(argv[1]), argv[3:]
    from zonequery import cli

    rec = Recorder(op)
    instrument_cli(rec)
    with rec.span("cli.main"):
        code = cli.main(args)
    rec.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
