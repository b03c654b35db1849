"""Self-test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that each workload passes its own checks on the current sources, that
tampered expected values are caught, that every per-layer counter is non-zero
on the workload it is meant to move (and zero where a layer must not run),
that call counts repeat exactly, that a missing library name becomes an absent
metric, and that the benchmark refuses to run without the sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import run
import speed
import tracer
import workloads

# metric stem -> workloads on which it must be called at least once
MUST_RUN = {
    "laurent.generators": ("witness", "membership"),
    "laurent.membership": ("witness", "membership"),
    "laurent.restrict": ("witness", "membership"),
    "groebner.buchberger": ("witness", "membership"),
    "groebner.saturate": ("witness", "membership"),
    "groebner.normal_form": ("witness", "membership"),
    "polys.mul": ("witness", "membership"),
    "minimal.find_minimal_degree_element": ("witness",),
    "minimal.nullstellensatz_exponents": ("witness",),
    "laurent.membership_certified": ("witness",),
    "polytope.validate": ("exact-data",),
    "polytope.toric_data": ("exact-data",),
    "polytope.rational_feasible": ("exact-data",),
    "polytope.find_positive_b": ("exact-data",),
    "lattice.integer_kernel": ("exact-data",),
    "lattice.hermite_normal_form": ("exact-data",),
    "lattice.rref": ("exact-data",),
    "oracle.feasible_supports": ("exact-data",),
    "oracle.spectrum": ("exact-data",),
    "quadforms.spectrum": ("exact-data",),
    "cli.run": ("exact-data", "witness", "membership"),
}
# `lattice.solve_integer` is reached only when a minimal feasible support has
# linearly dependent rows, which minimality excludes; it reads 0 at this commit.
NEVER_ZERO_EXEMPT = ("lattice.solve_integer",)
# layers that must not run at all on a workload (the predicted non-moves)
MUST_NOT_RUN = {
    "exact-data": ("laurent.generators", "laurent.membership", "laurent.restrict", "groebner.buchberger",
                   "groebner.saturate", "groebner.normal_form", "polys.mul",
                   "minimal.find_minimal_degree_element", "minimal.nullstellensatz_exponents"),
    "membership": ("minimal.find_minimal_degree_element", "minimal.nullstellensatz_exponents"),
}


def tiny_groups(name, workdir):
    groups = workloads.WORKLOADS[name][0](0, workdir)
    if name == "witness":   # the cube jobs take seconds; keep the 2D ones
        return [g for g in groups if "cube" not in g[0]["argv"][1]]
    if name == "membership":
        return [g[:2] for g in groups]
    return sorted(groups, key=lambda g: g[0]["argv"][1])[:4]


def check(condition, message, problems):
    if not condition:
        problems.append(message)
    print(("ok   " if condition else "FAIL ") + message)


def tampered(name):
    """An expected-answer set with one value changed."""
    if name == "witness":
        data = workloads.load_json("witness.json")
        for want in data.values():
            if "witness" in want["report"]:
                want["report"]["witness"] = "0,0,0,0"
        return data
    if name == "membership":
        data = workloads.load_json("membership.json")
        data["generator_count"] = {k: str(int(v) + 1) for k, v in data["generator_count"].items()}
        return data
    data = copy.deepcopy(workloads.corpus_answers())
    for ans in data.values():
        ans["vertex_count"] += 1
    return data


def main() -> int:
    problems = []
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check(speed.factor([speed.REF_S, speed.REF_S]) == 1.0, "reference speed reads factor 1", problems)
        check(abs(speed.factor([speed.REF_S / 2, speed.REF_S * 2]) - 1.25) < 1e-12,
              "the factor is the mean speed over the samples", problems)
        # tail percentile rule
        xs = [float(i) for i in range(40)]
        check(run.percentile(xs[:19], run.tail_pct(19)) == 18.0, "tail of 19 jobs is the maximum", problems)
        check(run.percentile(xs, run.tail_pct(40)) == 29.0, "tail of 40 jobs has ten beyond it", problems)
        check(run.percentile(xs + xs, run.tail_pct(40)) == 29.0, "two passes of 40 jobs: twenty beyond", problems)

        for name in workloads.WORKLOADS:
            groups = tiny_groups(name, workdir)
            first = run.run_pass(groups, workdir, trace=True, deadline=time.monotonic() + 300)
            failures = {k: v for k, v in run.check_pass(name, groups, first).items() if v}
            check(not failures, f"{name}: {len(first.results)} tiny jobs pass their checks {failures}", problems)
            check(all(r["speed"] > 0 for r in first.results.values()) and all(f for _, f in first.setups),
                  f"{name}: every job and set-up has a speed factor", problems)
            bad = {k: v for k, v in run.check_pass(name, groups, first, expected=tampered(name)).items() if v}
            check(bool(bad), f"{name}: a tampered expected value fails {len(bad)} jobs", problems)
            agg = tracer.aggregate(first.dumps)
            calls = {stem: entry["calls"] for stem, entry in agg.items() if not stem.startswith("_")}
            for stem, where in MUST_RUN.items():
                if name in where:
                    check(calls.get(stem, 0) > 0, f"{name}: {stem} called {calls.get(stem, 0)} times", problems)
            for stem in MUST_NOT_RUN.get(name, ()):
                check(calls.get(stem, 0) == 0, f"{name}: {stem} not called", problems)
            for stem in NEVER_ZERO_EXEMPT:
                print(f"note {name}: {stem} called {calls.get(stem, 0)} times")
            again = run.run_pass(groups, workdir, trace=True, deadline=time.monotonic() + 300)
            again_calls = {s: e["calls"] for s, e in tracer.aggregate(again.dumps).items() if not s.startswith("_")}
            check(again_calls == calls, f"{name}: call counts repeat exactly", problems)
            if name == "membership":
                verdicts = run.membership_verdicts(groups, first)
                for backend in ("groebner", "brute"):
                    replay = [[j for j in g if j["id"] in verdicts]
                              for g in workloads.membership_groups(0, workdir, backend=backend)]
                    replay = [g for g in replay if g]
                    rp = run.run_pass(replay, workdir, deadline=time.monotonic() + 300)
                    bad = {k: v for k, v in run.check_pass(name, replay, rp, verdicts=verdicts).items() if v}
                    check(not bad, f"membership: --backend {backend} replay agrees with the default backend", problems)
                    flipped = {k: ("false" if v == "true" else "true") for k, v in verdicts.items()}
                    bad = {k: v for k, v in run.check_pass(name, replay, rp, verdicts=flipped).items() if v}
                    check(len(bad) == len(rp.results), "membership: flipped verdicts all fail", problems)

        # a library name that no longer exists is an absent metric, not a crash
        sys.path.insert(0, os.path.join(run.ROOT, "src"))
        saved = tracer.TARGETS
        tracer.TARGETS = saved + (("groebner", "no_such_function", "groebner.no_such_function"),)
        try:
            t = tracer.Tracer()
            t.install()
        finally:
            tracer.TARGETS = saved
        check("groebner.no_such_function" in t.absent, "a missing library name is reported absent", problems)
        m = tracer.layer_metrics(tracer.aggregate([t.dump()]))
        check(all(v == 0 for v in m.values()), "an empty trace gives zero per-layer metrics", problems)

        # without the sources the benchmark exits non-zero and prints no result
        bare = os.path.join(workdir, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without sources: exit {proc.returncode}, no result line", problems)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        listed = {m["name"] for m in spec["per_layer"]}
        produced = set(m) | {"trace.overhead_frac", "laurent.backend.groebner_s", "laurent.backend.brute_s",
                             "fail_frac"}
        check(listed == produced, f"BENCHMARK.json per_layer matches the traced metrics {listed ^ produced}", problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
