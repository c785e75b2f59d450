"""Self-test of the benchmark's answer checks and tracer.

    python3 bench/selftest.py

Runs a few cheap jobs of every workload through the real CLI (from
./src), requires every answer to pass its check, then corrupts each
output in a targeted way and requires the check to catch it and the
run's failure count to include it.  Finally it runs the same jobs under
the tracer and requires byte-identical stdout, every per-layer metric,
and the original functions back after uninstalling.  Exits 1 on the
first problem.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from groupoidal import cli  # noqa: E402

CHEAP = {"nerve-homology": ["pair4-homology-3"],
         "skew-les": ["z2-zero-homology", "z2-zero-cohomology"],
         "af-towers": ["uhf6-dimension-group", "z-action-300"],
         "theta-zoo": ["zoo-0", "zoo-1", "zoo-2", "zoo-3"]}


def _fail(msg):
    sys.stderr.write(f"selftest FAILED: {msg}\n")
    sys.exit(1)


def _jobs():
    out = []
    for workload, ids in CHEAP.items():
        directory = os.path.join(".bench_work", "selftest", workload)
        out += [j for j in workloads.make_jobs(workload, 0, 0, directory) if j["id"] in ids]
    return out


def _run(jobs):
    results = []
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(job["argv"])
        results.append({"id": job["id"], "exit": code, "stdout": buf.getvalue(),
                        "error": None})
    return results


def _edit(stdout, change):
    doc = json.loads(stdout)
    change(doc)
    return json.dumps(doc, indent=2) + "\n"


def _bump_first_group(doc):
    groups = doc.get("groups") or doc["instances"][0]["groups"]
    groups[-1]["torsion"].append(7)


def _corruptions(job, stdout):
    """(label, exit code, stdout) variants that must all fail the check."""
    kind = job["expect"]["kind"]
    out = [("exit code 3", 3, stdout), ("truncated output", 0, stdout[: len(stdout) // 2]),
           ("empty output", 0, "")]
    if kind in ("groups", "verify-theta"):
        out.append(("extra torsion", 0, _edit(stdout, _bump_first_group)))
    if kind == "verify-theta":
        out.append(("ok false", 0, _edit(stdout, lambda d: d.update(ok=False))))
    if kind == "skew-les":
        out.append(("connecting not ok", 0,
                    _edit(stdout, lambda d: d.update(connecting_ok=False))))
        out.append(("base group", 0, _edit(
            stdout, lambda d: d["base_groups"][0].update(free_rank=2))))
    if kind == "z-action":
        out.append(("h1 rank", 0, _edit(stdout, lambda d: d["h1"].update(free_rank=0))))
    if kind == "dimension-group":
        def flip(d):
            q = d["queries"][0]
            q["kind"] = "no" if q["kind"] == "witness" else "witness"
        out.append(("flipped query", 0, _edit(stdout, flip)))
        out.append(("dropped query", 0, _edit(stdout, lambda d: d["queries"].pop())))
    return out


def main():
    os.chdir(ROOT)
    jobs = _jobs()
    if len(jobs) != sum(len(ids) for ids in CHEAP.values()):
        _fail("cheap jobs missing from the job lists")
    results = _run(jobs)
    report = {"jobs": results}
    if run._failures(jobs, report):
        _fail(f"correct outputs rejected: {run._failures(jobs, report)}")

    for i, (job, res) in enumerate(zip(jobs, results)):
        for label, code, stdout in _corruptions(job, res["stdout"]):
            if workloads.check(job, code, stdout) is None:
                _fail(f"{job['id']}: corruption '{label}' was not caught")
            bad = dict(res, exit=code, stdout=stdout)
            counted = run._failures(jobs, {"jobs": results[:i] + [bad] + results[i + 1:]})
            if list(counted) != [job["id"]]:
                _fail(f"{job['id']}: corruption '{label}' counted as {list(counted)}")

    tracer = tracing.Tracer()
    original = cli.main
    tracer.install()
    if cli.main is original:
        _fail("tracer did not wrap cli.main")
    traced = _run(jobs)
    tracer.uninstall()
    if cli.main is not original:
        _fail("tracer did not restore cli.main")
    for a, b in zip(results, traced):
        if a["stdout"] != b["stdout"]:
            _fail(f"{a['id']}: stdout differs under the tracer")
    layers = tracer.layer_metrics()
    if sorted(layers) != sorted(tracing.METRICS):
        _fail("per-layer metrics missing")
    if layers["cli.jobs"][0] != len(jobs):
        _fail(f"cli.jobs is {layers['cli.jobs'][0]}, ran {len(jobs)}")
    print(f"selftest ok: {len(jobs)} jobs, every corruption caught, tracer transparent")


if __name__ == "__main__":
    main()
