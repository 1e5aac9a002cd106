"""One timed `streamfade` invocation in a fresh interpreter.

Usage: child.py REPORT_JSON TRACE RUN_ID -- CLI_ARGS...

Imports `streamfade.cli` (the user-visible set-up cost), optionally installs
the benchmark's trace wrappers, runs `streamfade.cli.main(CLI_ARGS)` (nothing
when CLI_ARGS is empty, which makes an import-only probe) and
writes its timestamps (CLOCK_MONOTONIC, comparable with the parent's) and,
when tracing, its spans and counts to REPORT_JSON.
"""
import json
import sys
import time


def main() -> int:
    report_path, trace, run_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT_JSON TRACE RUN_ID -- CLI_ARGS...")

    t_import = time.monotonic()
    import streamfade.cli

    t_imported = time.monotonic()
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()
    t_start = time.monotonic()
    code = streamfade.cli.main(cli_args) if cli_args else 0  # no args: import probe
    t_done = time.monotonic()

    import numpy
    import scipy

    report = {
        "exit": code,
        "t_import": t_import,
        "t_imported": t_imported,
        "t_start": t_start,
        "t_done": t_done,
        "streamfade": streamfade.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        report["trace"] = tracer.dump()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
