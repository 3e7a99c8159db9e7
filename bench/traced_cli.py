"""Run one drorec CLI command with timing spans installed.

Usage: python3 bench/traced_cli.py SPANS_JSON -- <drorec CLI arguments>

The spans are written to SPANS_JSON when the command ends, also when it
fails; the exit status is the command's.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    import drorec.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return drorec.cli.main(cli_args)
    finally:
        tracer.dump(out, stage=cli_args[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
