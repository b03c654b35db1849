"""One benchmark worker: a fresh interpreter that runs a list of CLI jobs.

Usage: python3 worker.py SRC_DIR JOBS_JSON TRACE

The worker imports `toricspec.cli` from SRC_DIR, reads its jobs file and the
polytope files the jobs name, and writes a `ready` line.  That is the set-up
the parent times.  It then runs each job through `toricspec.cli.run` with the
job's argv, timing only that call, and writes one JSON line per job with the
exit code, the captured report, the latency and the worker's peak resident
set.  With TRACE=1 it installs the span tracer first and writes the spans as
a last line.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

SAMPLES_EDGE = 8      # speed samples before a worker's first job and after its last
SAMPLES_BETWEEN = 2   # speed samples between two jobs


def main() -> int:
    src, jobs_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    import toricspec.cli

    import speed

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    for path in sorted({p for job in jobs for p in job.get("inputs", ())}):
        with open(path, encoding="utf-8") as fh:
            fh.read()
    out = sys.stdout
    out.write('{"ready": true}\n')
    out.flush()
    run = toricspec.cli.run
    sampler = speed.Sampler()
    before = speed.sample(SAMPLES_EDGE)
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job["id"]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        sampler.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(job["argv"])
        except Exception:  # an uncaught exception is a failed job, not a dead worker
            code = None
            error = traceback.format_exc()
        finally:
            inside, spent = sampler.stop()
        elapsed = time.perf_counter() - start - spent
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after = speed.sample(SAMPLES_EDGE if n == len(jobs) - 1 else SAMPLES_BETWEEN)
        result = {
            "id": job["id"], "exit": code, "out": stdout.getvalue(), "err": stderr.getvalue(),
            "error": error, "s": elapsed, "rss_kb": rss_kb, "speed": speed.factor(before + inside + after),
        }
        if n == 0:  # the samples just after set-up
            result["setup_speed"] = speed.factor(before)
        out.write(json.dumps(result) + "\n")
        out.flush()
        before = after
    if tracer is not None:
        out.write(json.dumps({"trace": tracer.dump()}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
