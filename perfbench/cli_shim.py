"""Run one wba command under the layer tracer.

Usage: python3 perfbench/cli_shim.py OUT.json ARGS...

Behaves like `python3 -m wba.cli ARGS...` (same stdout and exit code) and
writes the span aggregates of the process to OUT.json.
"""

import json
import sys

from spans import Tracer, count_interned, install


def main(out_path, argv):
    tracer = Tracer(span_cap=0)
    code = 1
    try:
        with tracer.span("cli.import"):
            import wba.cli
        install(tracer)
        with tracer.span("cli.main"):
            code = wba.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        count_interned(tracer)
        with open(out_path, "w") as fh:
            json.dump(tracer.aggregates(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
