"""Benchmark of the groupoidal command line, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
imported from ./src.  A run is a sequence of rounds that lasts about S
seconds (at least one round).  Each round writes the workload's job list
with freshly relabelled inputs (see workloads.py) and spawns one fresh,
single-threaded interpreter (worker.py) that runs the jobs back to back
as a single closed-loop client.  Every answer is checked against
closed-form results.

Times are reported in reference seconds.  Other load on a small shared
machine slows a job by up to 2x, for bursts of a second up to phases of
several minutes, so raw medians moved by 15-60% between runs of the same
code.  The worker therefore times a fixed calibration loop right before
and after every job (and right after set-up); a time t measured next to a
calibration time c counts as t * REFERENCE_S / c, its value on a core
where the loop takes REFERENCE_S, and the median over rounds of the
scaled times is reported.

With --trace 0 the last stdout line reports the end-to-end metrics:

    wall_s       one pass over the job list: the sum over jobs of the
                 median over rounds of each job's scaled wall time
    cpu_s        the same for the run process's user + sys CPU time
    setup_s      median over all spawns (SETUP_SPAWNS extra ones plus one
                 per round) of the scaled time from spawning a fresh
                 interpreter until groupoidal.cli is imported and its
                 parser built
    peak_rss_mb  median over rounds of ru_maxrss of the run process, in MiB

A job that exits non-zero, raises or prints a wrong answer counts in
`failed`; failed / attempted is the failure fraction.  With --trace 1 the
first TRACED_ROUNDS rounds then run again on the same input files under
the span tracer (tracer.py).  The last line reports the per-layer metrics,
each the median over the traced rounds (self times scaled by the round's
median calibration), and trace.overhead_s, the traced pass minus the
untraced one over the same rounds; every job's stdout must be identical
with and without the tracer.  A record of every round (job lists, raw
times, calibrations, failures) and the spans are kept under .bench_work/;
the input files are removed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import REFERENCE_S  # noqa: E402

SETUP_SPAWNS = 3
TRACED_ROUNDS = 5
# every run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args, deadline):
    """Start a worker, time its set-up, wait for it; returns the set-up
    time and the calibration time the worker measured right after."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        calibration = proc.stdout.readline()
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline")
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {args} failed with exit code {proc.returncode}:\n{err}")
    return setup, float(calibration)


def _run_round(jobs_path, out_path, deadline, spans_path=None):
    args = [jobs_path, out_path] + ([spans_path] if spans_path else [])
    setup = _spawn(args, deadline)
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out_path)
    return setup, report


def _failures(jobs, report):
    bad = {}
    for job, res in zip(jobs, report["jobs"]):
        why = workloads.check(job, res["exit"], res["stdout"])
        if why:
            bad[job["id"]] = why + (f"\n{res['error']}" if res["error"] else "")
    return bad


def _scaled_pass(reports, key):
    """One pass over the job list in reference seconds: per job, the median
    over rounds of its time scaled by its calibration; summed over jobs."""
    per_job = zip(*[[res[key] * REFERENCE_S / res["calibration_s"] for res in rep["jobs"]]
                    for rep in reports])
    return sum(statistics.median(times) for times in per_job)


def _scaled_layers(report):
    """A traced round's per-layer metrics, times scaled by the round's
    median calibration."""
    scale = REFERENCE_S / statistics.median(res["calibration_s"] for res in report["jobs"])
    return {name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in report["layers"].items()}


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    work = os.path.join(".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    start = time.monotonic()
    setups = [_spawn([], deadline) for _ in range(SETUP_SPAWNS)]
    rounds = []  # (jobs path, jobs, report)
    failures = {}
    attempted = 0
    while True:
        r = len(rounds)
        directory = os.path.join(work, f"r{r}")
        jobs = workloads.make_jobs(workload, seed, r, directory)
        jobs_path = os.path.join(directory, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        setup, report = _run_round(jobs_path, os.path.join(directory, "out.json"), deadline)
        setups.append(setup)
        rounds.append((jobs_path, jobs, report))
        attempted += len(jobs)
        failures.update({f"r{r}/{k}": v for k, v in _failures(jobs, report).items()})
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break

    reports = [rep for _, _, rep in rounds]
    metrics = {
        "wall_s": (_scaled_pass(reports, "wall_s"), "s"),
        "cpu_s": (_scaled_pass(reports, "cpu_s"), "s"),
        "setup_s": (statistics.median(s * REFERENCE_S / c for s, c in setups), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reports), "MiB")}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "metrics": metrics,
              "setup": setups,
              "rounds": [{"jobs": [{"id": job["id"], "argv": job["argv"]} for job in jobs],
                          "wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
                          "peak_rss_mb": rep["peak_rss_mb"],
                          "job_wall_s": [res["wall_s"] for res in rep["jobs"]],
                          "job_cpu_s": [res["cpu_s"] for res in rep["jobs"]],
                          "job_calibration_s": [res["calibration_s"] for res in rep["jobs"]]}
                         for _, jobs, rep in rounds]}
    if trace:
        # the first rounds again, under the tracer, on the same input files
        traced = []
        for r, (jobs_path, jobs, plain) in enumerate(rounds[:TRACED_ROUNDS]):
            _, rep = _run_round(jobs_path, os.path.join(os.path.dirname(jobs_path), "traced.json"),
                                deadline, os.path.join(work, f"spans-r{r}.json"))
            traced.append(rep)
            attempted += len(jobs)
            bad = _failures(jobs, rep)
            for a, b in zip(plain["jobs"], rep["jobs"]):
                if a["stdout"] != b["stdout"]:
                    bad[a["id"]] = "stdout differs between the traced and untraced runs"
            failures.update({f"r{r}/traced/{k}": v for k, v in bad.items()})
        layers = [_scaled_layers(rep) for rep in traced]
        metrics = {name: (statistics.median(lay[name][0] for lay in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = (_scaled_pass(traced, "wall_s")
                                       - _scaled_pass(reports[:len(traced)], "wall_s"), "s")
        record["traced_layers"] = layers

    record["failures"] = failures
    for jobs_path, _, _ in rounds:  # the inputs follow from the seed
        shutil.rmtree(os.path.dirname(jobs_path))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for job_id, why in failures.items():
        sys.stderr.write(f"FAILED {workload} {job_id}: {why}\n")
    print(json.dumps({"workload": workload, "seed": seed, "rounds": len(rounds),
                      "jobs": [job["id"] for job in rounds[0][1]]}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "groupoidal", "cli.py")):
        sys.stderr.write(f"no groupoidal sources under {ROOT}/src\n")
        return 2
    os.chdir(ROOT)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
