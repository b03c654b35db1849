"""The three workloads: seeded job generation and output checks.

A pass is a list of worker groups; each group is a list of jobs that one
fresh worker runs in order.  A job is the argv a user would type after
`toricspec`, plus the polytope files it reads.  Every check runs after the
pass, outside the timed region, and returns a failure reason or None.
"""

import json
import os
import random
from fractions import Fraction
from math import floor

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = "perfbench/corpus"          # relative to the checkout root
EXPECTED_DIR = os.path.join(HERE, "expected")

# `key=value` lines compared against the recorded witness reports.  Other keys
# and `#` lines are ignored, so a later report line does not count as a failure.
WITNESS_KEYS = ("N_M", "result", "witness", "shift")


def poly_path(name: str) -> str:
    return f"{CORPUS}/{name}.poly"


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def load_json(name: str):
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _job(job_id, argv, inputs):
    return {"id": job_id, "argv": list(argv), "inputs": list(inputs)}


def _exit_failure(result, expected_exit):
    if result.get("lost"):
        return result["lost"]
    if result.get("error"):
        return "uncaught exception: " + result["error"].strip().splitlines()[-1]
    if result["exit"] != expected_exit:
        return f"exit {result['exit']}, expected {expected_exit}"
    return None


# --- seeded GL(d,Z) images ------------------------------------------------------

def read_polytope(path):
    """(dim, [(conormal, offset text)]) of a corpus file."""
    dim, facets = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line.startswith("dim"):
                dim = int(line.split()[1])
            elif line.startswith("facet"):
                left, _, offset = line[len("facet"):].partition(";")
                facets.append((tuple(int(x) for x in left.split()), offset.strip()))
    return dim, facets


def unimodular(rng, d):
    """A seeded matrix in GL(d, Z): signed permutation times elementary moves."""
    perm = list(range(d))
    rng.shuffle(perm)
    a = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(2 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    return a


def write_image(src_path, dst_path, rng):
    dim, facets = read_polytope(src_path)
    a = unimodular(rng, dim)
    lines = [f"# seeded GL({dim},Z) image of {os.path.basename(src_path)}", f"dim {dim}"]
    for v, offset in facets:
        w = [sum(a[i][j] * v[j] for j in range(dim)) for i in range(dim)]
        lines.append("facet " + " ".join(str(x) for x in w) + f" ; {offset}")
    with open(dst_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- witness -------------------------------------------------------------------

WITNESS_CASES = (
    ("bound", "cp1xcp1_monotone", "--W", "2"),
    ("bound", "hirzebruch_monotone", "--W", "2"),
    ("bound", "cube_monotone", "--W", "2"),
    ("bound", "cp1xcp1_monotone", "--W", "4"),
    ("bound", "hirzebruch_monotone", "--W", "4"),
    ("min-degree", "hirzebruch_monotone", "--nu", "0"),
    ("min-degree", "hirzebruch_monotone", "--nu", "5/2"),
    ("min-degree", "cube_monotone", "--nu", "0"),
    ("min-degree", "cp1xcp1_p12", "--nu", "1/2"),   # exit 2: the module is the whole ring
    ("bound", "cp3"),                               # exit 2: projective-space type
) + tuple(("min-degree", "cp1xcp1_monotone", "--nu", nu) for nu in ("0", "1/2", "1", "3/2", "5/2", "3"))
# The cube `bound` case, the slowest job, runs twice per pass on two images,
# so that every run measures the job that sets `job_tail_s` twice.  Fewer
# than 20 jobs keep `job_tail_s` on the slowest job.
WITNESS_RUNS = {("bound", "cube_monotone", "--W", "2"): 2}


def case_key(case) -> str:
    return " ".join(case)


def witness_groups(seed, workdir):
    """Every case on a seeded GL(d,Z) image of its polytope.  The reduction
    data of an image is byte-identical to the original's, so the recorded
    answers and the work done are the same for every seed."""
    rng = random.Random(seed)
    images = {}
    for name in sorted({case[1] for case in WITNESS_CASES}):
        for r in range(max(WITNESS_RUNS.get(case, 1) for case in WITNESS_CASES if case[1] == name)):
            images[name, r] = os.path.join(workdir, f"{name}.image{r}.poly")
            write_image(poly_path(name), images[name, r], rng)
    jobs = []
    for i, case in enumerate(WITNESS_CASES):
        for r in range(WITNESS_RUNS.get(case, 1)):
            argv = [case[0], images[case[1], r], *case[2:]]
            job = _job(f"witness.{i}.{r}", argv, [argv[1]])
            job["case"] = case_key(case)
            jobs.append(job)
    rng.shuffle(jobs)
    return [[job] for job in jobs]


def witness_check(groups, results, expected=None):
    expected = expected if expected is not None else load_json("witness.json")
    failures = {}
    for job in (j for g in groups for j in g):
        result = results[job["id"]]
        want = expected.get(job["case"])
        if want is None:
            failures[job["id"]] = "no recorded answer"
            continue
        reason = _exit_failure(result, want["exit"])
        if reason is None:
            got = parse_report(result["out"])
            for key, value in want["report"].items():
                if got.get(key) != value:
                    reason = f"{key}={got.get(key)}, expected {value}"
                    break
        failures[job["id"]] = reason
    return failures


def witness_record(results_by_case):
    return {
        case: {"exit": r["exit"], "report": {k: v for k, v in parse_report(r["out"]).items() if k in WITNESS_KEYS}}
        for case, r in results_by_case.items()
    }


# --- membership ----------------------------------------------------------------

# (polytope, ring, nu, W, queries per pass).  A 2D module answers a warm
# query in about 10 ms.  The cube is taken at W = 4: its first query builds
# the window-4 and window-6 bases (8-11 s), and later queries take 0.08-0.14 s.
# At W = 2 about one cube query in 40 with exponents in [-3, 3] needs window
# 6, and queries with an exponent -3 need a new shifted basis, so the cost of
# a pass would depend on how many such queries the seed draws.  The pentagon
# K0 is left out: its warm queries take 0.08-0.5 s depending on the vector,
# which moved `job_tail_s` by a quarter between seeds.  Every count is a
# multiple of the seven exponent values, for `stratified_vectors`.
MEMBERSHIP_MODULES = tuple(
    ("cp1xcp1_monotone", "K0", nu, w, 21) for w in ("2", "4") for nu in ("0", "1/2", "1", "3/2")
) + (
    ("cp1xcp1_p12", "K0", "1/2", "2", 21),
    ("cp2", "K", "1/3", "2", 21),
    ("cube_monotone", "K0", "1/2", "4", 42),
)
FACETS = {"cp1xcp1_monotone": 4, "cp1xcp1_p12": 4, "cp2": 3, "cube_monotone": 6, "pentagon": 5}
EXPONENT_RANGE = (-3, 3)


def stratified_vectors(rng, queries, facets):
    """`queries` exponent vectors over EXPONENT_RANGE in which every coordinate
    takes each value equally often, in a seeded order per coordinate.  The
    seed varies which values meet in a vector, not how often each value is
    queried, so the cost of a pass depends little on the seed."""
    values = range(EXPONENT_RANGE[0], EXPONENT_RANGE[1] + 1)
    columns = []
    for _ in range(facets):
        column = [values[q % len(values)] for q in range(queries)]
        rng.shuffle(column)
        columns.append(column)
    return [",".join(str(c[q]) for c in columns) for q in range(queries)]


def module_key(module) -> str:
    name, ring, nu, w, _ = module
    return f"{name} {ring} nu={nu} W={w}"


def membership_groups(seed, workdir, backend=None):
    """The seed's query stream, one group per module; with `backend`, the same
    stream with that backend alone."""
    rng = random.Random(seed)
    groups = []
    for m, module in enumerate(MEMBERSHIP_MODULES):
        name, ring, nu, w, queries = module
        jobs = []
        for q, vec in enumerate(stratified_vectors(rng, queries, FACETS[name])):
            # `--member=` keeps argparse from reading a leading '-' as a flag
            argv = ["kernel", poly_path(name), "--W", w, "--ring", ring, "--nu", nu, f"--member={vec}"]
            if backend is not None:
                argv += ["--backend", backend]
            job = _job(f"membership.{m}.{q}", argv, [argv[1]])
            job["module"] = module_key(module)
            jobs.append(job)
        groups.append(jobs)
    random.Random(seed + 1).shuffle(groups)
    return groups


def membership_check(groups, results, expected=None, verdicts=None):
    """`verdicts` (job id -> member value) is compared when given: the recorded
    default-seed verdicts, or those of the default-backend pass for a replay."""
    expected = expected if expected is not None else load_json("membership.json")
    failures = {}
    for job in (j for g in groups for j in g):
        result = results[job["id"]]
        reason = _exit_failure(result, 0)
        got = parse_report(result["out"]) if reason is None else {}
        if reason is None and "error" in got:
            reason = "error=" + got["error"]
        if reason is None and got.get("member") not in ("true", "false"):
            reason = f"member={got.get('member')}"
        if reason is None and got.get("generator_count") != expected["generator_count"].get(job["module"]):
            reason = f"generator_count={got.get('generator_count')}"
        if reason is None and verdicts is not None and got["member"] != verdicts.get(job["id"]):
            reason = f"member={got['member']}, expected {verdicts.get(job['id'])}"
        failures[job["id"]] = reason
    return failures


# --- exact-data ------------------------------------------------------------------

IMAGES_PER_POLYTOPE = 2
SPECTRA_PER_FILE = 8
QUADFORMS_PER_FILE = 2
MU_CHOICES = ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "-1/4", "-1/3", "1/5", "-2/5")
# spectrum-quadform needs every coordinate of iota(lam) inside (-1, 1).  No
# corpus kernel basis has more than 3 in absolute value summed along a
# coordinate, so entries of size at most 1/4 are always valid.
LAM_CHOICES = ("0", "1/4", "-1/4", "1/5", "-1/5", "1/7", "-1/6", "2/9")
QUADFORM_N = "2"
WINDOW_LO = ("-1", "-1/2", "0", "1/3", "1/2")
WINDOW_WIDTH = 2     # fixed, so the seed does not change the amount of work


def corpus_answers():
    with open(os.path.join(HERE, "corpus", "answers.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def exact_groups(seed, workdir):
    rng = random.Random(seed)
    answers = corpus_answers()
    groups = []
    for name in sorted(answers):
        ans = answers[name]
        original = poly_path(name)
        files = [original]
        for i in range(IMAGES_PER_POLYTOPE):
            image = os.path.join(workdir, f"{name}.image{i}.poly")
            write_image(original, image, rng)
            files.append(image)
        argvs = [("validate",), ("data",)]
        if ans["compact"] and ans["smooth"]:
            for _ in range(SPECTRA_PER_FILE):
                mu = ",".join(rng.choice(MU_CHOICES) for _ in range(ans["n"]))
                lo = Fraction(rng.choice(WINDOW_LO))
                hi = lo + WINDOW_WIDTH
                nu = lo + (hi - 1 - lo) * Fraction(rng.randint(0, 2), 2)
                argvs.append(("spectrum", f"--mu={mu}", f"--window={_frac_text(lo)}:{_frac_text(hi)}",
                              f"--nu={_frac_text(nu)}"))
            for _ in range(QUADFORMS_PER_FILE):
                lam = ",".join(rng.choice(LAM_CHOICES) for _ in range(ans["k"]))
                argvs.append(("spectrum-quadform", "--N", QUADFORM_N, f"--lam={lam}"))
        jobs = []
        for f, path in enumerate(files):
            for c, argv in enumerate(argvs):
                job = _job(f"exact.{name}.{f}.{c}", [argv[0], path, *argv[1:]], [path])
                job["polytope"], job["file"], job["case"] = name, f, c
                jobs.append(job)
        groups.append(jobs)
    rng.shuffle(groups)
    return groups


def _arg(argv, flag):
    for i, a in enumerate(argv):
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
        if a == flag:
            return argv[i + 1]
    return None


def _check_exact_original(job, result, ans):
    cmd, report = job["argv"][0], parse_report(result["out"])
    if cmd == "validate":
        reason = _exit_failure(result, 0 if ans["compact"] and ans["smooth"] else 2)
        if reason:
            return reason
        for key in ("compact", "smooth", "vertex_count"):
            if report.get(key) != str(ans[key]).lower():
                return f"{key}={report.get(key)}, expected {ans[key]}"
        return None
    if not (ans["compact"] and ans["smooth"]):
        return _exit_failure(result, 2)
    reason = _exit_failure(result, 0)
    if reason:
        return reason
    if cmd == "data":
        want = {"n": str(ans["n"]), "k": str(ans["k"]), "is_cpn": str(ans["is_cpn"]).lower(),
                "N_M": "absent" if ans["N_M"] is None else str(ans["N_M"])}
        for key, value in want.items():
            if report.get(key) != value:
                return f"{key}={report.get(key)}, expected {value}"
        return None
    if cmd == "spectrum":
        values = [Fraction(v) for k, v in report.items() if k.startswith("value.")]
        if report.get("value_count") != str(len(values)):
            return f"value_count={report.get('value_count')} for {len(values)} values"
        nu = Fraction(_arg(job["argv"], "--nu"))
        count = sum(1 for v in values if nu <= v < nu + 1)
        if report.get("count_in_period") != str(count):
            return f"count_in_period={report.get('count_in_period')}, window lists {count}"
        return None
    # spectrum-quadform: closed-form negative index and eigenvalue count
    n_blocks = int(_arg(job["argv"], "--N"))
    coords = [Fraction(c) for c in report.get("coords", "").split(",") if c]
    want_index = sum(2 * (n_blocks + floor(c + Fraction(1, 2))) for c in coords)
    if report.get("negative_index") != str(want_index):
        return f"negative_index={report.get('negative_index')}, closed form {want_index}"
    if report.get("eigen_count") != str(2 * n_blocks * len(coords)):
        return f"eigen_count={report.get('eigen_count')}"
    return None


def exact_check(groups, results, expected=None):
    answers = expected if expected is not None else corpus_answers()
    failures = {}
    originals = {(j["polytope"], j["case"]): results[j["id"]] for g in groups for j in g if j["file"] == 0}
    for job in (j for g in groups for j in g):
        result = results[job["id"]]
        if job["file"] == 0:
            failures[job["id"]] = _check_exact_original(job, result, answers[job["polytope"]])
            continue
        base = originals[(job["polytope"], job["case"])]
        reason = _exit_failure(result, base["exit"])
        if reason is None and job["argv"][0] == "validate":
            got, want = parse_report(result["out"]), parse_report(base["out"])
            for key in ("compact", "smooth", "vertex_count"):
                if got.get(key) != want.get(key):
                    reason = f"image {key}={got.get(key)}, original {want.get(key)}"
                    break
        elif reason is None and result["out"] != base["out"]:
            reason = "image report differs from the original's"
        failures[job["id"]] = reason
    return failures


WORKLOADS = {
    "witness": (witness_groups, witness_check),
    "membership": (membership_groups, membership_check),
    "exact-data": (exact_groups, exact_check),
}
