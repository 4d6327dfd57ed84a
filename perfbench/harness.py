"""One workload round in a fresh interpreter, as a user would run it.

    python3 harness.py TIMING_JSON TRACE_JSON|- [fermiwait arguments...]

Imports ``fermiwait.cli`` from the checkout's ``src`` and calls
``fermiwait.cli.main`` with the given arguments.  With no arguments it only
imports, which is how set-up time is sampled.  With a trace path it first
installs the span tracer from ``tracer.py`` beside this file, and after
``main`` returns writes the per-layer summary there.

Monotonic clock readings go to TIMING_JSON; ``time.monotonic`` reads the
same clock in the parent, so the parent measures set-up from before it
started this interpreter.
"""

import json
import os
import sys
import time


def main() -> int:
    timing_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import fermiwait.cli

    timing = {"imported": time.monotonic()}
    if not argv:
        rc = 0
    elif trace_path == "-":
        timing["main_start"] = time.monotonic()
        rc = fermiwait.cli.main(argv)
        timing["main_end"] = time.monotonic()
    else:
        import tracer as span_tracer

        spans = span_tracer.Tracer()
        span_tracer.install(spans)
        timing["main_start"] = time.monotonic()
        rc = fermiwait.cli.main(argv)
        timing["main_end"] = time.monotonic()
        metrics, table = span_tracer.summarize(spans, timing["main_end"] - timing["main_start"])
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "environment": _environment(), "spans": table}, fh, indent=1)
    timing["rc"] = rc
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return rc


def _environment() -> dict:
    """BLAS thread counts and library versions this process saw."""
    import ctypes
    import glob

    import numpy
    import scipy

    env = {"nproc": os.cpu_count() or 0, "numpy": numpy.__version__, "scipy": scipy.__version__}
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for owner in ("numpy", "scipy"):
        for lib in glob.glob(os.path.join(site, f"{owner}.libs", "*openblas*")):
            handle = ctypes.CDLL(lib)
            suffix = "64_" if "64_" in os.path.basename(lib) else ""
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            env[f"blas_threads.{owner}"] = threads()
            env[f"openblas.{owner}"] = config().decode()
    return env


if __name__ == "__main__":
    sys.exit(main())
