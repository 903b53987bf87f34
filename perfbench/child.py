"""
One benchmark child: a fresh interpreter that imports grhecke from the
checkout's src/, parses the CLI arguments, and calls grhecke.cli.main.

Usage: python3 child.py REPORT_JSON probe|plain|traced -- CLI ARGS...

`probe` stops after parsing (a set-up measurement), `traced` installs the
outside-in tracer first. The CLI writes to stdout as usual; the child's
own measurements go to REPORT_JSON: the CLOCK_MONOTONIC time at which
set-up ended, the CLI's exit code and, when traced, the tracer's tallies.
"""

import json
import os
import sys
import time


def main() -> int:
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("probe", "plain", "traced"):
        print("usage: child.py REPORT_JSON probe|plain|traced -- ARGS...", file=sys.stderr)
        return 2
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    import grhecke
    import grhecke.cli

    if not os.path.realpath(grhecke.__file__).startswith(src + os.sep):
        print(f"grhecke imported from {grhecke.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "traced":
        import tracer as tracer_mod

        tracer = tracer_mod.install(grhecke)
        leftover = tracer_mod.unwrapped_bindings(grhecke, tracer)
        if leftover:
            print(f"unwrapped aliases: {leftover}", file=sys.stderr)
            return 2
    grhecke.cli.build_parser().parse_args(argv)
    setup_end = time.monotonic()
    code = 0 if mode == "probe" else grhecke.cli.main(argv)
    sys.stdout.flush()
    report = {"setup_end": setup_end, "exit": code}
    if tracer is not None:
        report["trace"] = {
            "self_s": tracer.self_s, "incl_s": tracer.incl_s,
            "calls": tracer.calls, "counts": tracer.counts,
        }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
