"""Fresh-process entry points of the benchmark.

    child.py setup-cli ARGV...        import collapsim.cli and resolve ARGV, then
                                      print the clock reading at which the
                                      experiment would be called
    child.py setup-superposed SEED    import the lattice and build run 0's
                                      inputs, then print the clock reading
    child.py trace-cli SPANS ARGV...  run ``collapsim ARGV`` with span wrappers
                                      installed, writing spans under SPANS
    child.py host                     print numpy's version and BLAS as JSON

The clock is ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC and
so compares across processes.
"""

import sys
import time


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup-cli":
        from collapsim.cli import build_parser, resolve_params

        resolve_params(build_parser().parse_args(rest))
        print(repr(time.perf_counter()))
        return 0
    if mode == "setup-superposed":
        from workloads import superposed_inputs

        superposed_inputs(int(rest[0]), 0)
        print(repr(time.perf_counter()))
        return 0
    if mode == "trace-cli":
        import spans

        recorder = spans.Recorder(rest[0])
        spans.install(recorder)
        from collapsim import cli

        try:
            with recorder.span("cli.main"):
                return cli.main(rest[1:])
        finally:
            recorder.flush()
    if mode == "host":
        import json

        import numpy as np

        blas = {}
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pass
        print(json.dumps({"numpy": np.__version__,
                          "blas": {k: blas.get(k) for k in ("name", "version")}}))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
