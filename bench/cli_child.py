"""Traced stand-in for ``python -m knrange.cli`` in the benchmark's cli workload.

Usage: cli_child.py SPANS_PATH OP_ID CLI_ARG...

Times a fresh ``import knrange.cli``, wraps the package's public functions,
runs ``knrange.cli.main`` on the remaining arguments and writes the spans to
SPANS_PATH. The exit code is the CLI's.
"""

import sys
import time

import tracing


def main() -> int:
    spans_path, op_id, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import knrange.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return knrange.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, import_ms=import_ms)


if __name__ == "__main__":
    sys.exit(main())
