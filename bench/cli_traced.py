"""Run the intnorm command line with every public function traced.

Usage: python3 cli_traced.py SPANS_PATH [intnorm arguments...]

Behaves like ``python3 -m intnorm`` (same output, same exit status) and,
when the command returns, writes its spans to SPANS_PATH as a marshal
dump of a list of ``[name, start, end, parent, extra]``.  A verify run
records some 350,000 spans; marshal writes them in 0.05 s, json in 0.65 s.
"""

import marshal
import sys

import intnorm.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = intnorm.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "wb") as fh:
            marshal.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
