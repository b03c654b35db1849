"""toricspec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload witness|membership|exact-data \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `toricspec` from
`src/` there.  Jobs go through `toricspec.cli.run` in fresh worker
processes, one at a time (a closed loop with a single client).  A pass runs
the seed's whole job set; with --trace 0 the run repeats passes while the
next one fits in --seconds and reports the end-to-end metrics as medians over
passes, in reference seconds: each job's measured seconds times the machine's
speed during that job relative to a fixed reference (speed.py).  With
--trace 1 it runs one untraced and one traced pass (and, on `membership`, the
stream again with each backend alone) and reports the per-layer metrics.
Outputs are checked after each pass, outside the timed region.  The last
stdout line is the JSON result; see NOTES.md.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 165.0     # every run ends well inside the 180 s allowed
JOB_TIMEOUT_S = 60.0    # about six times the slowest job at this commit
READY_TIMEOUT_S = 30.0


class LineReader:
    """Whole lines from a pipe, with a deadline per line."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = bytearray()
        self.scanned = 0

    def readline(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        while True:
            at = self.buf.find(b"\n", self.scanned)
            if at >= 0:
                line = bytes(self.buf[:at])
                del self.buf[: at + 1]
                self.scanned = 0
                return line
            self.scanned = len(self.buf)
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(self.fd, 1 << 20)
            if not chunk:
                raise EOFError
            self.buf += chunk


class Pass:
    def __init__(self):
        self.results = {}   # job id -> worker result
        self.setups = []    # [seconds from spawn to ready, speed factor], one per worker
        self.dumps = []     # tracer dumps, one per worker
        self.clock_s = 0.0  # wall clock of the whole pass, set-up included
        self.cut = False    # the run deadline stopped the pass


def _lost(reason):
    """The result of a job the worker never answered."""
    return {"lost": reason, "exit": None, "out": "", "s": 0.0, "rss_kb": 0}


def _stop(proc, grace):
    """Let the worker exit on its own for `grace` seconds, then kill it."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_pass(groups, workdir, trace=False, deadline=None):
    """Run every group in a fresh worker, one worker at a time."""
    deadline = deadline if deadline is not None else time.monotonic() + RUN_LIMIT_S
    p = Pass()
    start = time.monotonic()
    env = dict(os.environ, PYTHONHASHSEED="0")
    for g, jobs in enumerate(groups):
        if p.cut:
            for job in jobs:
                p.results[job["id"]] = _lost("timeout")
            continue
        jobs_path = os.path.join(workdir, f"jobs{g}.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        with open(os.path.join(workdir, f"worker{g}.err"), "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(ROOT, "src"), jobs_path,
                 "1" if trace else "0"],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=env,
            )
            try:
                reader = LineReader(proc.stdout)
                pending = list(jobs)
                grace = 0.0
                try:
                    reader.readline(min(READY_TIMEOUT_S, deadline - time.monotonic()))
                    setup = [time.perf_counter() - spawned, None]
                    p.setups.append(setup)
                    while pending:
                        line = reader.readline(min(JOB_TIMEOUT_S, deadline - time.monotonic()))
                        result = json.loads(line)
                        p.results[result["id"]] = result
                        if setup[1] is None:
                            setup[1] = result["setup_speed"]
                        pending.pop(0)
                    if trace:
                        p.dumps.append(json.loads(reader.readline(deadline - time.monotonic()))["trace"])
                    grace = 10.0
                except (TimeoutError, EOFError, ValueError) as exc:
                    p.cut = time.monotonic() >= deadline
                    reason = {TimeoutError: "timeout", EOFError: "worker ended early"}.get(type(exc), "bad worker output")
                    for job in pending:
                        p.results[job["id"]] = _lost(reason)
            finally:
                _stop(proc, grace)
                proc.stdout.close()
    p.clock_s = time.monotonic() - start
    return p


def tail_pct(n: int) -> float:
    """The highest percentile of n jobs with at least ten jobs beyond it, or
    100 (the maximum) when there are fewer than 20 jobs."""
    return 100.0 if n < 20 else 100.0 * (n - 10) / n


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def ref_s(result, raw=False) -> float:
    """A job's latency in reference seconds (speed.py), or as measured."""
    return result["s"] if raw else result["s"] * result.get("speed", 1.0)


def pass_summary(p, job_ids, raw=False):
    lat = [ref_s(p.results[j], raw) for j in job_ids]
    return {
        "wall_s": sum(lat),
        "job_p50_s": statistics.median(lat),
        "peak_rss_mb": max(p.results[j].get("rss_kb", 0) for j in job_ids) / 1024.0,
    }


def check_pass(name, groups, p, **kwargs):
    return workloads.WORKLOADS[name][1](groups, p.results, **kwargs)


def run_record(seed):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def membership_verdicts(groups, p):
    return {j["id"]: workloads.parse_report(p.results[j["id"]]["out"]).get("member")
            for g in groups for j in g}


def default_check_kwargs(name, seed):
    if name == "membership" and seed == 0:
        return {"verdicts": workloads.load_json("membership.json")["seed0_verdicts"]}
    return {}


class Run:
    """The passes of one run and the failures their checks found."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload, self.workdir, self.deadline = workload, workdir, deadline
        self.groups = workloads.WORKLOADS[workload][0](seed, workdir)
        self.job_ids = [j["id"] for g in self.groups for j in g]
        self.check_kwargs = default_check_kwargs(workload, seed)
        self.passes, self.failures = [], {}

    def measured_pass(self, groups=None, trace=False, **check_kwargs):
        groups = groups or self.groups
        p = run_pass(groups, self.workdir, trace=trace, deadline=self.deadline)
        tag = f"pass{len(self.passes)}"
        self.passes.append(p)
        for job_id, reason in check_pass(self.workload, groups, p, **(check_kwargs or self.check_kwargs)).items():
            if reason:
                self.failures[f"{tag}:{job_id}"] = reason
        return p

    @property
    def attempted(self):
        return sum(len(p.results) for p in self.passes)


def end_to_end(r: Run, seconds: float, started: float) -> dict:
    """Passes while the next one is predicted to fit; medians over passes.
    Times are in reference seconds (speed.py); the measured ones are printed."""
    while True:
        p = r.measured_pass()
        if p.cut or time.monotonic() - started + p.clock_s > seconds:
            break
    # the tail percentile is fixed by the pass size and estimated over every pass
    pct = tail_pct(len(r.job_ids))
    print(f"# passes {len(r.passes)}; job_tail_s is p{pct:.1f} of {len(r.job_ids)} jobs per pass, "
          f"over {len(r.passes) * len(r.job_ids)} jobs")
    # fail_frac is 0 at a healthy commit, so it is no bounded metric; the
    # result line carries it as `failed` over `attempted`
    print(f"fail_frac = {len(r.failures) / r.attempted:.6g} ratio")
    out = {}
    for raw in (True, False):
        summaries = [pass_summary(p, r.job_ids, raw) for p in r.passes]
        med = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
        setups = [t if raw else t * f for p in r.passes for t, f in p.setups if f is not None]
        out[raw] = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": med["wall_s"],
            "job_p50_s": med["job_p50_s"],
            "job_tail_s": percentile([ref_s(p.results[j], raw) for p in r.passes for j in r.job_ids], pct),
        }
    print("# measured seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in out[True].items()))
    factors = [p.results[j].get("speed", 1.0) for p in r.passes for j in r.job_ids]
    print(f"# reference seconds per measured second (speed.py): median {statistics.median(factors):.4f}, "
          f"range {min(factors):.4f}-{max(factors):.4f} over {len(factors)} jobs")
    metrics = {k: (v, "s") for k, v in out[False].items()}
    metrics["peak_rss_mb"] = (med["peak_rss_mb"], "MB")
    return metrics


def per_layer(r: Run, seed: int, trace_path: str, record: dict) -> dict:
    """One untraced and one traced pass, plus the backend replays on
    `membership`; the spans of the traced pass go to trace_path."""
    plain = r.measured_pass()
    traced = r.measured_pass(trace=True)
    layer = tracer.layer_metrics(tracer.aggregate(traced.dumps))
    plain_wall = pass_summary(plain, r.job_ids)["wall_s"]
    layer["trace.overhead_frac"] = pass_summary(traced, r.job_ids)["wall_s"] / plain_wall - 1 if plain_wall else 0.0
    for backend in ("groebner", "brute"):
        layer[f"laurent.backend.{backend}_s"] = 0.0
        if r.workload == "membership":
            replay = workloads.membership_groups(seed, r.workdir, backend=backend)
            rp = r.measured_pass(replay, verdicts=membership_verdicts(r.groups, plain))
            layer[f"laurent.backend.{backend}_s"] = pass_summary(rp, [j["id"] for g in replay for j in g])["wall_s"]
    layer["fail_frac"] = len(r.failures) / r.attempted
    absent = sorted({a for d in traced.dumps for a in d["absent"]})
    if absent:
        print("# absent (reported as 0): " + ", ".join(absent))
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"run": record, "workers": traced.dumps}, fh)
    print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
    return {k: (v, unit_of(k)) for k, v in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so run_pass still stops its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "toricspec", "cli.py")):
        sys.stderr.write(f"perfbench: no toricspec sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    started = time.monotonic()
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        r = Run(args.workload, args.seed, workdir, started + RUN_LIMIT_S)
        record = run_record(args.seed)
        print("# run " + json.dumps(record, sort_keys=True))
        print(f"# workload {args.workload}: {len(r.groups)} workers, {len(r.job_ids)} jobs per pass")
        if args.trace:
            trace_path = os.path.join(work_root, f"trace-{args.workload}-s{args.seed}.json")
            metrics = per_layer(r, args.seed, trace_path, record)
        else:
            metrics = end_to_end(r, args.seconds, started)
        for job_id, reason in sorted(r.failures.items())[:10]:
            print(f"# FAIL {job_id}: {reason}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": not r.failures,
            "attempted": r.attempted,
            "failed": len(r.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".count") or name.endswith(".basis_len"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls_per_query"):
        return "calls/query"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
