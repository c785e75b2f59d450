"""Run process of the benchmark: one fresh, single-threaded interpreter.

    python3 bench/worker.py ROOT [JOBS OUT [SPANS]]

It imports `groupoidal.cli` from ROOT/src, builds the CLI parser and
prints "ready"; the parent times set-up up to that line.  The next line
is the time of the calibration loop run right after.  With JOBS it then
runs every job through `groupoidal.cli.main` back to back (the timed
phase), capturing each job's stdout, and writes the wall and CPU time of
the phase and of each job, the calibration time around each job, peak
RSS and the captured outputs to OUT.
With SPANS the timed phase runs under the span tracer of `tracer.py`,
which writes its spans to SPANS and its per-layer metrics to OUT.
"""

import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


# time of calibration_s() on an idle core of the machine the baseline was
# taken on (2.1 GHz Xeon VM, Python 3.11); it sets the benchmark's time unit
REFERENCE_S = 0.0026


def calibration_s() -> float:
    """Time of a fixed pure-Python loop of dict and integer work, which
    slows down by about as much as the program when other load shares the
    core."""
    start = time.perf_counter()
    d = {}
    for i in range(20000):
        k = i & 1023
        d[k] = d.get(k, 0) + i * 3
    return time.perf_counter() - start


def main(argv) -> int:
    root = os.path.abspath(argv[0])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        from groupoidal import cli
    except ImportError as e:
        sys.stderr.write(f"worker: cannot import groupoidal from {src}: {e}\n")
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"worker: groupoidal was imported from {cli.__file__}, "
                         f"not from {src}\n")
        return 2
    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout.write(f"{calibration_s()!r}\n")
    sys.stdout.flush()
    if len(argv) == 1:
        return 0

    jobs_path, out_path = argv[1], argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    real_out, real_err = sys.stdout, sys.stderr
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer:
            tracer.job = job["id"]
        before = calibration_s()
        start, start_cpu = time.perf_counter(), time.process_time()
        sys.stdout, sys.stderr = out, err
        try:
            code = cli.main(job["argv"])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crashing job counts as failed; the rest still run
            code = None
            error = traceback.format_exc()
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        job_wall, job_cpu = time.perf_counter() - start, time.process_time() - start_cpu
        results.append({"id": job["id"], "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error,
                        "wall_s": job_wall, "cpu_s": job_cpu,
                        "calibration_s": (before + calibration_s()) / 2})
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    report = {"wall_s": wall, "cpu_s": _cpu_s(usage1) - _cpu_s(usage0),
              # ru_maxrss is in KiB on Linux
              "peak_rss_mb": usage1.ru_maxrss / 1024, "jobs": results}
    if tracer:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
