"""Traced stand-in for ``python -m hicrit.cli`` in a fresh interpreter.

Usage: python perfbench/child.py SPANS_JSON -- <hicrit arguments>

Times ``import hicrit.cli``, installs the span recorder, dispatches the
arguments, writes {"import_s", "spans"} to SPANS_JSON and exits with the
CLI's exit code. Pool workers forked by the CLI record no spans.
"""

import json
import sys
import time


def main():
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: child.py SPANS_JSON -- <hicrit arguments>")
    started = time.perf_counter()
    import hicrit.cli as cli
    import_s = time.perf_counter() - started

    from spans import Tracer

    with Tracer() as tracer:
        code = cli.dispatch(argv)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
