"""Runs one qlatwit command in this process and reports how it went.

    python3 child.py --report PATH [--trace] -- <qlatwit arguments>
    python3 child.py --report PATH --env

The command writes its document to stdout exactly as ``qlatwit`` would. The
report, written to PATH as JSON after the import and again at exit, holds the
import time of
``qlatwit.cli``, the time inside ``cli.main``, its exit code and, with
``--trace``, the spans and the lru_cache totals. ``--env`` records the
interpreter, library and BLAS set-up instead of running a command.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import sys
import time

import spans


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    import qlatwit

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qlatwit_file": qlatwit.__file__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    t0 = time.perf_counter()
    cli = importlib.import_module("qlatwit.cli")
    report = {"setup_s": time.perf_counter() - t0}
    write_report(args.report, report)  # kept if the command never returns
    if args.env:
        report["env"] = environment()
    else:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        t1 = time.perf_counter()
        report["exit"] = cli.main(args.argv)
        report["main_s"] = time.perf_counter() - t1
        sys.stdout.flush()
        if tracer is not None:
            report["spans"] = tracer.spans
            report["cache"] = spans.cache_totals(spans.qlatwit_modules())
    write_report(args.report, report)
    return report.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
