import io
import json
import os
import random
import shlex
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from toricspec.cli import COMMANDS, REQUIRED, parse_args, parse_int_vector, parse_vector, run
from toricspec.laurent import kernel_K0, verify_certificate
from toricspec.memo import clear_caches, memo_counts
from toricspec.minimal import translated_point_bound
from toricspec.polys import Poly
from toricspec.oracle import DiagonalMap, feasible_supports
from toricspec.polytope import (
    ToricHypothesisError,
    parse_integer,
    parse_polytope,
    toric_data,
    validate,
)

from tests.reference import (
    _attach_negative_values,
    build_parser,
    fraction_period_report,
    fraction_support_class,
    fraction_window_report,
)

POLY = Path(__file__).resolve().parent.parent / "polytopes"
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """The environment for a child interpreter that imports toricspec from
    this checkout, installed or not."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def invoke(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def machine_dict(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def test_validate_square():
    code, out = invoke("validate", str(POLY / "cp1xcp1_monotone.poly"))
    d = machine_dict(out)
    assert code == 0
    assert d["compact"] == "true"
    assert d["smooth"] == "true"
    assert d["vertex_count"] == "4"


def test_validate_then_data_validates_once():
    clear_caches()
    path = str(POLY / "hirzebruch_monotone.poly")
    assert invoke("validate", path)[0] == 0
    assert invoke("data", path)[0] == 0
    assert memo_counts()["validation"] == (1, 1)


def test_validate_halfplane_exits_2():
    code, out = invoke("validate", str(POLY / "halfplane.poly"))
    d = machine_dict(out)
    assert code == 2
    assert d["compact"] == "false"


def test_missing_file_exits_1():
    code, _ = invoke("validate", str(POLY / "nope.poly"))
    assert code == 1


def test_bad_rational_exits_1(tmp_path):
    bad = tmp_path / "bad.poly"
    bad.write_text("dim 1\nfacet 1 ; 0.5\nfacet -1 ; 1\n")
    code, _ = invoke("validate", str(bad))
    assert code == 1


def test_data_monotone_square():
    code, out = invoke("data", str(POLY / "cp1xcp1_monotone.poly"))
    assert code == 0
    d = machine_dict(out)
    assert d["N_M"] == "2"
    assert d["p"] == "1,1"
    assert d["chern"] == "2,2"
    assert d["b"] == "1,1"
    assert d["is_cpn"] == "false"


def test_data_roundtrip(T_monotone):
    code, out = invoke("data", str(POLY / "cp1xcp1_monotone.poly"))
    assert code == 0
    d, T = machine_dict(out), T_monotone
    assert [int(d[key]) for key in ("n", "d", "k", "N_M")] == [T.n, T.d, T.k, T.min_chern]
    assert tuple(parse_int_vector(d[f"kappa.{i}"]) for i in range(T.k)) == T.kappa.vectors
    assert tuple(parse_int_vector(d[f"k0.{i}"]) for i in range(len(T.k0))) == T.k0.vectors
    assert (parse_vector(d["p"]), parse_int_vector(d["chern"])) == (T.p, T.chern)
    assert (parse_int_vector(d["b"]), parse_int_vector(d["iota_b"])) == (T.b, T.iota_apply(T.b))
    assert (parse_vector(d["p_b"]), parse_vector(d["hbar"])) == ((T.p_value(T.b),), (T.hbar,))


def test_machine_reports_are_deterministic():
    runs = [invoke("data", str(POLY / "cube_monotone.poly")) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [
        invoke("spectrum", str(POLY / "cp1xcp1_monotone.poly"), "--mu", "1/4,0,0,0",
               "--window", "0:2")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_machine_reports_deterministic_across_processes():
    # different hash seeds shake out any set/dict iteration order leaking into reports
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "toricspec.cli", "spectrum",
             str(POLY / "cp1xcp1_monotone.poly"), "--mu", "1/4,1/3,0,0",
             "--window=-1:2", "--nu", "1/8"],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_bound_monotone_square():
    code, out = invoke("bound", str(POLY / "cp1xcp1_monotone.poly"))
    d = machine_dict(out)
    assert code == 0
    assert d["N_M"] == "2"
    assert d["degree_shift_per_period"] == "4"
    assert "witness" in d and "restriction" in d


def test_bound_cp3_exits_2():
    code, out = invoke("bound", str(POLY / "cp3.poly"))
    d = machine_dict(out)
    assert code == 2
    assert "projective" in d["error"]


def test_bound_nonmonotone_exits_2():
    code, out = invoke("bound", str(POLY / "cp1xcp1_p12.poly"))
    d = machine_dict(out)
    assert code == 2
    assert "monotone" in d["error"]


QUARTER_SQUARE = "dim 2\nfacet 1 0 ; 1/4\nfacet -1 0 ; 1/4\nfacet 0 1 ; 1/4\nfacet 0 -1 ; 1/4\n"


@pytest.mark.parametrize("argv, lines", [
    (("bound", "cp3"), ["error=projective-space type excluded"]),
    (("min-degree", "cp3", "--nu", "0"), ["error=projective-space type excluded"]),
    (("bound", "cp1xcp1_p12"), ["error=not monotone"]),
    (("min-degree", "cp1xcp1_p12", "--nu", "0"), ["nu=0", "result=NoMinimalElement", "reason=module is the whole ring"]),
    # the monotone square with offsets 1/4 has p = (1/2, 1/2)
    (("bound", "quarter"), ["error=p is not primitive integral"]),
    (("min-degree", "quarter", "--nu", "0"), ["error=p is not primitive integral"]),
    (("kernel", "quarter", "--member=0,0,0,0"), ["error=p is not primitive integral"]),
    (("spectrum", "quarter", "--mu", "1/3,0,0,0", "--nu", "1/2"), ["error=p is not primitive integral"]),
])
def test_hypothesis_failures_report_the_first_failed_hypothesis(tmp_path, capsys, argv, lines):
    command, name, *rest = argv
    if name == "quarter":
        path = tmp_path / "quarter.poly"
        path.write_text(QUARTER_SQUARE)
    else:
        path = POLY / f"{name}.poly"
    code, out = invoke(command, str(path), *rest)
    assert (code, out) == (2, "\n".join(lines) + "\n")
    assert capsys.readouterr().err == ""


def test_min_degree_witness():
    code, out = invoke(
        "min-degree", str(POLY / "cp1xcp1_monotone.poly"), "--nu", "1/2"
    )
    d = machine_dict(out)
    assert code == 0
    assert d["result"] == "witness"


def test_min_degree_nonmonotone_no_element():
    code, out = invoke("min-degree", str(POLY / "cp1xcp1_p12.poly"), "--nu", "1/2")
    d = machine_dict(out)
    assert code == 2
    assert d["result"] == "NoMinimalElement"


def test_kernel_zero_ring_on_cpn():
    code, out = invoke("kernel", str(POLY / "cp2.poly"), "--nu", "1/2")
    d = machine_dict(out)
    assert code == 0
    assert d["ring"] == "ZeroRing"


def test_kernel_no_threshold_sentinel():
    code, out = invoke("kernel", str(POLY / "cp2.poly"))
    d = machine_dict(out)
    assert code == 0
    assert d["threshold"] == "-inf"
    # every lattice point in the window contributes a generator
    assert d["generator_count"] == "5"


def test_kernel_membership_flag():
    code, out = invoke(
        "kernel", str(POLY / "cp1xcp1_monotone.poly"), "--nu", "1/2",
        "--member", "1,0,0,0", "--backend", "both",
    )
    d = machine_dict(out)
    assert code == 0
    assert d["member"] == "false"
    code, out = invoke(
        "kernel", str(POLY / "cp1xcp1_monotone.poly"), "--nu", "1/2",
        "--member", "1,1,0,0", "--backend", "groebner",
    )
    assert machine_dict(out)["member"] == "true"


def test_spectrum_quadform():
    code, out = invoke(
        "spectrum-quadform", str(POLY / "cp1xcp1_monotone.poly"),
        "--N", "2", "--lam", "1,0",
    )
    d = machine_dict(out)
    assert code == 0
    # coords (1,1,0,0): negative index 2(2+1)*2 + 2(2+0)*2 = 20
    assert d["negative_index"] == "20"
    assert d["coords"] == "1,1,0,0"


def test_spectrum_quadform_numeric_block_is_commented():
    pytest.importorskip("numpy")
    code, out = invoke(
        "spectrum-quadform", str(POLY / "cp1xcp1_monotone.poly"),
        "--N", "2", "--lam", "1/3,0", "--numeric",
    )
    assert code == 0
    numeric_lines = [l for l in out.splitlines() if "numeric" in l]
    assert numeric_lines and all(l.startswith("#") for l in numeric_lines)


def test_spectrum_quadform_numeric_without_numpy_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, out = invoke(
        "spectrum-quadform", str(POLY / "cp1xcp1_monotone.poly"),
        "--N", "2", "--lam", "1/3,0", "--numeric",
    )
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: --numeric needs numpy (the [numeric] extra)\n"


@pytest.mark.parametrize("N", ("0", "-1"))
def test_spectrum_quadform_needs_N_at_least_one(N, capsys):
    code, out = invoke(
        "spectrum-quadform", str(POLY / "cp1xcp1_monotone.poly"), "--N", N, "--lam", "0,0",
    )
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: N >= 1 required\n"


@pytest.mark.parametrize("argv, error", [
    (("--N", "100000000", "--lam", "0,0"), "eigenvalue count 2nN = 800000000 is above the limit 1000000"),
    (("--N", "126", "--lam", "0,0", "--numeric"), "numeric matrix dimension 2nN = 1008 is above the limit 1000"),
])
def test_spectrum_quadform_over_the_size_limits_exits_1_at_once(argv, error, capsys):
    # the square has n = 4 coordinates: 2nN eigenvalues, and for --numeric
    # matrices of dimension 2nN, are refused before any is built
    if "--numeric" in argv:
        pytest.importorskip("numpy")

    def timeout(signum, frame):
        raise TimeoutError("spectrum-quadform ran past 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        code, out = invoke("spectrum-quadform", str(POLY / "cp1xcp1_monotone.poly"), *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {error}\n"


def test_spectrum_command():
    code, out = invoke(
        "spectrum", str(POLY / "cp1xcp1_monotone.poly"),
        "--mu", "1/4,0,0,0", "--window", "0:1", "--nu", "1/8",
    )
    d = machine_dict(out)
    assert code == 0
    assert d["count_in_period"] == "2"
    assert d["period_check"] == "true"


def test_spectrum_window_order(capsys):
    path = str(POLY / "cp1xcp1_monotone.poly")
    code, out = invoke("spectrum", path, "--mu", "1/4,0,0,0", "--window=2:1")
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.strip() == "error: window 2:1 is empty (lo > hi)"
    # a one-point window is valid
    code, out = invoke("spectrum", path, "--mu", "1/4,0,0,0", "--window=1:1")
    assert code == 0
    assert machine_dict(out)["window"] == "1:1"


@pytest.mark.parametrize("window", ["0", "1:", ":2"])
def test_spectrum_window_needs_both_ends(window, capsys):
    # checked before the polytope is read: a missing file gives the same error
    for path in (str(POLY / "cp1xcp1_monotone.poly"), str(POLY / "no_such_file.poly")):
        code, out = invoke("spectrum", path, "--mu", "1/4,0,0,0", f"--window={window}")
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.strip() == f"error: --window: must be lo:hi, got '{window}'"


@pytest.mark.parametrize("command, options, message", [
    ("bound", ["--nu", "0.5"], "not an exact rational literal: '0.5'"),
    ("bound", ["--nu", "0.5", "--nu", "1/2"], "not an exact rational literal: '0.5'"),
    ("spectrum-quadform", ["--lam", "1/3,x", "--N", "2"], None),
    ("spectrum", ["--mu", "0.25,0,0,0", "--nu", "0"], "not an exact rational literal: '0.25'"),
    ("kernel", ["--member=1,x"], None),
    ("spectrum", ["--window=0:0.5", "--mu", "1/4,0,0,0"], "not an exact rational literal: '0.5'"),
])
def test_malformed_option_value_exits_1_before_the_polytope_is_read(command, options, message, capsys):
    # the same error for a valid polytope, one outside the hypotheses (exit 2
    # once read) and a missing file: the value is parsed with the command line
    errors = set()
    for path in (POLY / "cp1xcp1_monotone.poly", POLY / "halfplane.poly", POLY / "no_such_file.poly"):
        assert invoke(command, str(path), *options) == (1, "")
        errors.add(capsys.readouterr().err)
    (err,) = errors
    assert err.startswith("error: ") and err.count("\n") == 1
    # the value parser's message, after the name of the option, the first of each row
    option = options[0].partition("=")[0]
    assert err.startswith(f"error: {option}: ")
    assert message is None or err == f"error: {option}: {message}\n"


def test_spectrum_builds_classes_once(monkeypatch):
    import toricspec.cli as cli

    path = str(CORPUS / "pentagon.poly")
    mu = "--mu=1/4,0,1/3,0,0"
    _, window_only = invoke("spectrum", path, mu, "--window=-1:2")
    _, nu_only = invoke("spectrum", path, mu, "--nu=1/2")
    calls = []
    build = cli.class_set

    def counted(toric, dmap):
        calls.append(build(toric, dmap))
        return calls[-1]

    monkeypatch.setattr(cli, "class_set", counted)
    code, both = invoke("spectrum", path, mu, "--window=-1:2", "--nu=1/2")
    assert code == 0
    assert both == window_only + nu_only
    (classes,) = calls
    supports = [support for support, _ in classes[1]]
    assert len(supports) == len(set(supports)) == 5  # the pentagon's vertex supports, one class each


@pytest.mark.parametrize("path", [POLY / "halfplane.poly", POLY / "cp1xcp1_monotone.poly"])
def test_spectrum_needs_window_or_nu_before_reading(path, capsys):
    # a usage error, even when the polytope itself would fail a hypothesis
    code, out = invoke("spectrum", str(path), "--mu", "0,0")
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.strip() == "error: spectrum requires --window and/or --nu"


ANSWERS = json.loads((CORPUS / "answers.json").read_text())


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_corpus_validate_and_data_match_answers(name):
    ans = ANSWERS[name]
    path = str(CORPUS / f"{name}.poly")
    code, out = invoke("validate", path)
    d = machine_dict(out)
    assert code == (0 if ans["compact"] and ans["smooth"] else 2)
    assert (d["compact"], d["smooth"]) == (str(ans["compact"]).lower(), str(ans["smooth"]).lower())
    assert int(d["vertex_count"]) == ans["vertex_count"]
    code, out = invoke("data", path)
    d = machine_dict(out)
    if ans["n"] is None:
        assert code == 2 and "error" in d
        return
    assert code == 0
    assert (int(d["n"]), int(d["k"])) == (ans["n"], ans["k"])
    assert d["N_M"] == ("absent" if ans["N_M"] is None else str(ans["N_M"]))
    assert d["is_cpn"] == str(ans["is_cpn"]).lower()


# The full machine reports and exit codes of the witness benchmark's cases
# (`bound` and `min-degree` on corpus files), every key included.
WITNESS_REPORTS = json.loads((Path(__file__).resolve().parent / "witness_reports.json").read_text())


@pytest.mark.parametrize("case", sorted(WITNESS_REPORTS))
def test_witness_reports_match_the_recorded_ones(case, capsys):
    command, name, *options = case.split()
    clear_caches()
    code, out = invoke(command, str(CORPUS / f"{name}.poly"), *options)
    assert (code, out.splitlines()) == (WITNESS_REPORTS[case]["exit"], WITNESS_REPORTS[case]["report"])
    assert capsys.readouterr().err == ""


# The full reports of `spectrum` (every compact smooth file of `polytopes/` and
# `perfbench/corpus/`, with `--window`, `--nu` or both, twisted or not) and of
# `spectrum-quadform` (N = 1, 2, 3, coordinates on half-integers): stdout,
# stderr and exit code, keyed by the command line run from the repository root.
SPECTRUM_REPORTS = json.loads((Path(__file__).resolve().parent / "spectrum_reports.json").read_text())


@pytest.mark.parametrize("case", sorted(SPECTRUM_REPORTS))
def test_spectrum_reports_match_the_recorded_ones(case, capsys, monkeypatch):
    monkeypatch.chdir(POLY.parent)
    clear_caches()
    code, out = invoke(*case.split())
    want = SPECTRUM_REPORTS[case]
    assert (code, out, capsys.readouterr().err) == (want["exit"], want["stdout"], want["stderr"])


def test_spectrum_over_the_value_limit_exits_1_at_once(capsys):
    def timeout(signum, frame):
        raise TimeoutError("spectrum ran past 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        code, out = invoke("spectrum", str(POLY / "cp1xcp1_monotone.poly"), "--mu", "1/4,0,0,0",
                           "--window=0:100000000")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: class value count 400000002 is above the limit 1000000\n"


def fraction_spectrum_lines(T, dmap, window, nu):
    """The `spectrum` report built from the Fraction references alone."""
    classes = [fraction_support_class(T, dmap, support)[0] for support in feasible_supports(T)]
    lines = []
    if window is not None:
        res = fraction_window_report(classes, window)
        lines += [f"window={window[0]}:{window[1]}", f"value_count={len(res.values)}"]
        for i, (v, supports) in enumerate(res.values):
            lines += [f"value.{i}={v}", f"supports.{i}=" + ";".join(",".join(map(str, s)) for s in supports)]
        lines.append(f"period_check={str(res.period_check).lower()}")
    if nu is not None:
        res = fraction_period_report(classes, nu)
        lines += [f"nu={nu}", f"count_in_period={len(res.values)}"]
        lines += [f"boundary={v}" for v in res.boundary_hits]
    return lines


def test_spectrum_reports_match_the_fraction_reference(tmp_path):
    # every compact smooth file of `polytopes/` and `perfbench/corpus/` and one
    # seeded GL(d,Z) image of each, twisted and untwisted, with windows of one
    # point (on a class value and half a step past it) and a wider one, and nu
    # on a class value, so that the period's lower end is a boundary hit
    from perfbench import workloads

    rng = random.Random(29)
    paths = []
    for path in sorted(POLY.glob("*.poly")) + sorted(CORPUS.glob("*.poly")):
        try:
            report = validate(parse_polytope(path.read_text()))
        except ToricHypothesisError:
            continue
        if report.compact and report.smooth:
            image = tmp_path / f"{path.stem}.{path.parent.name}.poly"
            workloads.write_image(str(path), str(image), rng)
            paths += [path, image]
    assert len(paths) == 40
    runs = hits = 0
    for path in paths:
        T = toric_data(parse_polytope(path.read_text()))
        for twisted in (True, False):
            mu = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 6))) for _ in range(T.n))
            dmap = DiagonalMap(mu=mu, twisted=twisted)
            cls = fraction_support_class(T, dmap, rng.choice(feasible_supports(T)))[0]
            on_value = cls.base + rng.randint(-2, 2) * cls.step
            off_value = on_value + cls.step / 2
            lo = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            for window, nu in (((on_value, on_value), on_value), ((off_value, off_value), None),
                               ((lo, lo + rng.randint(0, 3)), on_value - 1), (None, on_value + 1)):
                argv = ["spectrum", str(path), "--mu=" + ",".join(map(str, mu))]
                argv += [] if window is None else [f"--window={window[0]}:{window[1]}"]
                argv += [] if nu is None else [f"--nu={nu}"]
                argv += [] if twisted else ["--untwisted"]
                code, out = invoke(*argv)
                assert (code, out.splitlines()) == (0, fraction_spectrum_lines(T, dmap, window, nu)), argv
                hits += "boundary=" in out
                runs += 1
    assert runs == 320 and hits == 240  # every nu given is a class value


# `bound` on corpus files whose witness search decides modules that are not
# m^D: the exit code and the witness lines as printed, and a verified
# certificate for each successor of the witness.
OFF_EXIT_WITNESSES = {
    "pentagon": ("-1,-1,-1,-2,6", "(w1^6 + 6*w1^5*w2 + 15*w1^4*w2^2 + 20*w1^3*w2^3 + 15*w1^2*w2^4 + 6*w1*w2^5"
                 " + w2^6) / ((w1)*(2*w2)*(-w1 - 3*w2)*(w1 + 2*w2)^2)"),
    "blp3": ("-1,-1,-1,-2,6", "64*w1"),
    "cp2xcp1": ("-1,-1,-1,-1,4", "-27/8"),
}


@pytest.mark.parametrize("name", sorted(OFF_EXIT_WITNESSES))
def test_bound_witness_lines_and_certificates(name):
    witness, restriction = OFF_EXIT_WITNESSES[name]
    clear_caches()
    code, out = invoke("bound", str(CORPUS / f"{name}.poly"))
    lines = out.splitlines()
    assert code == 0 and f"witness={witness}" in lines and f"restriction={restriction}" in lines
    T = toric_data(parse_polytope((CORPUS / f"{name}.poly").read_text()))
    _, found = translated_point_bound(T)
    km = kernel_K0(T, Fraction(1, 2), 2)
    assert ",".join(map(str, found.monomial)) == witness
    assert sorted(found.successor_certificates) == list(range(T.n))
    for i, cert in found.successor_certificates.items():
        succ = Poly.monomial(tuple(x + (j == i) for j, x in enumerate(found.monomial)))
        assert verify_certificate(succ, km, cert)


def test_human_format_runs():
    code, out = invoke("--format", "human", "data", str(POLY / "cp2.poly"))
    assert code == 0
    assert "N_M" in out


def test_import_leaves_numpy_unloaded():
    # neither the import nor a `bound` run loads numpy, the command line is
    # read without argparse and the gettext/locale modules it pulls in, and the
    # value types are built without dataclasses and the inspect module it pulls in
    script = (
        "import io, sys, contextlib\n"
        "import toricspec.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = toricspec.cli.run(['bound', sys.argv[1]])\n"
        "unwanted = ('argparse', 'dataclasses', 'gettext', 'inspect', 'locale', 'numpy')\n"
        "print(code, sorted(m for m in unwanted if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(POLY / "cp1xcp1_monotone.poly")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "0 []"]


@pytest.mark.parametrize("flag, value, rest", [
    ("--member", "-1,0,0,1", ("kernel", "--nu", "1/2")),
    ("--nu", "-1/2", ("kernel", "--member", "1,1,0,0")),
    ("--mu", "-1/4,0,0,0", ("spectrum", "--window", "0:2")),
    ("--window", "-1:1", ("spectrum", "--mu", "1/4,0,0,0")),
    ("--lam", "-1/3,0", ("spectrum-quadform", "--N", "2")),
])
def test_negative_option_values(flag, value, rest):
    path = str(POLY / "cp1xcp1_monotone.poly")
    spaced = invoke(rest[0], path, *rest[1:], flag, value)
    joined = invoke(rest[0], path, *rest[1:], f"{flag}={value}")
    assert spaced[0] == 0
    assert spaced == joined


@pytest.mark.parametrize("text", [
    "dim\nfacet 1 ; 1\nfacet -1 ; 1\n",
    "dim 1\nfacet 1 ; 1/0\nfacet -1 ; 1\n",
    "dim -1\n",
    "dim 0\n",
    "dim 3/2\n",
    "dim 1\nfacet x ; 1\nfacet -1 ; 1\n",
])
def test_malformed_polytope_exits_1(tmp_path, capsys, text):
    bad = tmp_path / "bad.poly"
    bad.write_text(text)
    code, out = invoke("validate", str(bad))
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: line")


def test_redundant_facet_rejected():
    path = str(POLY / "cp1xcp1_redundant.poly")
    for command in ("validate", "data"):
        code, out = invoke(command, path)
        assert code == 2
        assert machine_dict(out) == {"error": "redundant facet 5"}


def test_repeated_facet_line_is_redundant(tmp_path):
    text = (POLY / "cp2.poly").read_text()
    doubled = tmp_path / "cp2_doubled.poly"
    doubled.write_text(text + text.splitlines()[-1] + "\n")
    for command in ("validate", "data"):
        code, out = invoke(command, str(doubled))
        assert code == 2
        assert machine_dict(out) == {"error": "redundant facet 4"}


def fresh_report(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "toricspec.cli", *argv],
        capture_output=True, text=True, env=child_env(),
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("first, second", [
    (["spectrum", "{}", "--mu=1/3,0,0", "--window=0:2", "--untwisted"],
     ["spectrum", "{}", "--mu=1/3,0,0", "--window=0:2"]),
    (["--format", "human", "data", "{}"], ["data", "{}"]),
])
def test_reused_parser_keeps_no_state(first, second):
    path = str(POLY / "cp2.poly")
    first, second = ([arg.format(path) for arg in argv] for argv in (first, second))
    code, out = invoke(*first)
    assert code == 0
    again = invoke(*second)
    assert again[1] != out
    assert again == fresh_report(*second)


@pytest.mark.parametrize("text, message", [
    ("dim \u00b2\nfacet 1 ; 1\nfacet -1 ; 1\n", "error: line 1: dim must be one positive integer"),
    ("dim 1\nfacet 1 ; 0\nfacet -1 ; 1\n", "error: line 2: offsets must be positive"),
    ("dim 1\nfacet -1 ; 1\n# comment\nfacet 2 ; 1\n", "error: line 4: conormal (2,) is not primitive"),
    ("# square missing two sides\ndim 2\nfacet 1 0 ; 1\nfacet 0 1 ; 1\n",
     "error: line 2: dim 2 needs at least 3 facets, found 2"),
    ("dim 1\nfacet 1_0 ; 1\nfacet -1 ; 1\n", "error: line 2: invalid literal for int() with base 10: '1_0'"),
    ("dim 1\nfacet 1 ; 1\nfacet -1 ; 1_0\n", "error: line 3: Invalid literal for Fraction: '1_0'"),
])
def test_facet_errors_name_their_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.poly"
    bad.write_text(text)
    code, out = invoke("validate", str(bad))
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.strip() == message


def test_start_window_past_cap_fails_before_building():
    code, out = invoke(
        "kernel", str(POLY / "cp1xcp1_monotone.poly"), "--W", "40", "--nu", "1/2", "--member", "1,0,0,0"
    )
    assert code == 2
    assert machine_dict(out) == {
        "error": "inconclusive: start window 40 leaves no room to widen below the cap 16"
    }


@pytest.mark.parametrize("argv", (["bound", "--W", "15"], ["min-degree", "--W", "15", "--nu", "0"]))
def test_start_window_15_leaves_no_room_below_the_cap(argv):
    # membership at W is decided at W + 2 = 17, past the cap
    code, out = invoke(argv[0], str(POLY / "cp1xcp1_monotone.poly"), *argv[1:])
    assert code == 2
    assert machine_dict(out) == {
        "error": "inconclusive: start window 15 leaves no room to widen below the cap 16"
    }


def test_member_length_mismatch_exits_1(capsys):
    code, out = invoke("kernel", str(POLY / "cp1xcp1_monotone.poly"), "--nu", "1/2", "--member", "1,0,0")
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.strip() == "error: --member needs 4 exponents, got 3"


@pytest.mark.parametrize("backend", ("both", "brute", "groebner"))
def test_member_needing_high_multiplier_degree(backend):
    # u3^6*u4^12 restricts to a multiple of w^18 while the least cleared
    # generator has degree 2, so the brute backend needs multipliers of degree 16
    code, out = invoke(
        "kernel", str(POLY / "cp1xcp1_monotone.poly"), "--W", "2", "--ring", "K0", "--nu", "1/2",
        "--member", "0,0,6,12", "--backend", backend,
    )
    assert code == 0
    assert machine_dict(out)["member"] == "true"


def test_frac_str_formats_every_exact_type():
    from fractions import Fraction

    from toricspec.cli import frac_str

    cases = [(0, "0"), (-3, "-3"), (True, "1"), (Fraction(6, 4), "3/2"), (Fraction(-4, 2), "-2"), ("2/4", "1/2")]
    for value, text in cases:
        assert frac_str(value) == text == str(Fraction(value))


def test_help_lists_the_table():
    code, out = invoke("-h")
    assert code == 0 and invoke("--help") == (0, out)
    for name, (_, line, _) in COMMANDS.items():
        assert f"  {name}" in out and line in out
    code, out = invoke("kernel", "--help")
    assert code == 0 and out.startswith("usage: toricspec [--format human|machine] kernel POLYTOPE")
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
    assert listed == [f"--{name}" for name in COMMANDS["kernel"][2]]
    # help wins wherever it stands, also after the polytope and options
    assert invoke("kernel", str(POLY / "cp2.poly"), "--W", "4", "-h") == (0, out)
    # the level a bound is taken at by default is the one its help shows
    assert "  --nu VALUE (default 1/2)\n" in invoke("bound", "--help")[1]


def test_abbreviated_option_exits_1(capsys):
    code, out = invoke("kernel", str(POLY / "cp1xcp1_monotone.poly"), "--nu", "1/2", "--mem=1,0,0,0")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: unknown option '--mem' for kernel\n"


def test_window_box_over_the_limit_exits_2_at_once():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "toricspec.cli", "kernel", str(POLY / "cp1xcp1_monotone.poly"), "--W", "100000"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert time.monotonic() - started < 5
    assert proc.returncode == 2, proc.stderr
    assert machine_dict(proc.stdout)["error"] == (
        "inconclusive: window 100000 box has 40000400001 points, above the limit 2000000"
    )


def test_query_over_the_limit_exits_2_at_once():
    # K of the square has k = 2 coordinates, so u1^E clears to a degree with
    # about E monomials; K0 has one coordinate and answers at once
    member = "--member=100000000,0,0,0"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "toricspec.cli", "kernel", str(POLY / "cp1xcp1_monotone.poly"), "--ring", "K",
         "--nu", "1/2", member],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert time.monotonic() - started < 5
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert machine_dict(proc.stdout)["error"] == (
        "inconclusive: cleared query degree 100000012 has more than 100000 monomials in 2 coordinates"
    )
    code, out = invoke("kernel", str(POLY / "cp1xcp1_monotone.poly"), "--ring", "K0", "--nu", "1/2", member)
    assert code == 0 and machine_dict(out)["member"] == "true"


def test_cleared_generators_over_the_limit_exit_2_at_once():
    # the K ring of hexagon x CP^1 has k = 5 coordinates, and its generators
    # of least degree at the decision window clear to degree 49: C(53, 4)
    # monomials, refused before the largest degree is read; its K0 ring at
    # nu = 0 passes both degree checks, and its minimal generators' degrees
    # are refused by their monomials in all, before any is restricted
    cases = (
        ("K", "1/2", "cleared generator degree 49 has more than 100000 monomials in 5 coordinates"),
        ("K0", "0", "4661 cleared generators have 99997825 monomials of their degrees in 4 coordinates, "
                    "above the limit 20000000"),
    )
    for ring, nu, error in cases:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "toricspec.cli", "kernel", str(CORPUS / "hexagonxcp1.poly"), "--ring", ring,
             "--nu", nu, "--member=1,0,0,0,0,0,0,0"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert time.monotonic() - started < 10
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "" and "Traceback" not in proc.stdout
        assert machine_dict(proc.stdout)["error"] == f"inconclusive: {error}"


# --- parity with the argparse command line the table replaced ----------------------

SQUARE = str(POLY / "cp1xcp1_monotone.poly")


def argparse_namespace(argv):
    """The namespace the old parser gave, or its exit code."""
    try:
        return vars(build_parser().parse_args(_attach_negative_values(argv)))
    except SystemExit as exc:
        return 1 if exc.code else 0


def parsed_as_by_the_table(namespace):
    """argparse's namespace with each option string read by the parser the
    table gives that option, as the table reads it while it scans."""
    _, _, options = COMMANDS[namespace["command"]]
    for name, (kind, _) in options.items():
        if type(namespace[name]) is str and kind not in (parse_integer, bool) and type(kind) is not tuple:
            namespace[name] = kind(namespace[name])
    return namespace


def table_namespace(argv):
    args = parse_args(argv)
    return None if args is None else vars(args)


def readme_command_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines() if line.startswith("toricspec ")]


def workload_command_lines(tmp_path):
    from perfbench import workloads

    groups = []
    for seed in (0, 1):
        groups += workloads.witness_groups(seed, str(tmp_path))
        groups += workloads.exact_groups(seed, str(tmp_path))
        for backend in (None, "groebner", "brute", "both"):
            groups += workloads.membership_groups(seed, str(tmp_path), backend)
    return [job["argv"] for group in groups for job in group]


# Values of each option for the seeded command lines: negative values in both
# forms, and for --W and --N too, where argparse reads "-1" as a number.
OPTION_VALUES = {
    "nu": ("1/2", "-1/2", "0", "-3", "5/2"),
    "W": ("2", "4", "-1", "0", "+3"),
    "N": ("2", "3", "-2"),
    "lam": ("1/3,0", "-1/4,1/5"),
    "mu": ("1/4,0,0,0", "-1/3,1/2,0,0"),
    "member": ("1,0,0,0", "-1,2,0,-3"),
    "window": ("0:2", "-1:1", "-1/2:3/2"),
}
FORMAT_PREFIXES = ((), ("--format", "human"), ("--format=machine",), ("--format", "machine", "--format=human"))


def seeded_command_lines(rng, command, options):
    """Every required option, a random subset of the others, some repeated with
    another value, in either form, in a random order around the polytope."""
    groups = []
    for name, (kind, default) in options.items():
        if default is not REQUIRED and rng.random() < 0.4:
            continue
        for _ in range(1 + (rng.random() < 0.3)):
            if kind is bool:
                groups.append([f"--{name}"])
                continue
            value = rng.choice(kind if type(kind) is tuple else OPTION_VALUES[name])
            groups.append([f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", value])
    rng.shuffle(groups)
    groups.insert(rng.randrange(len(groups) + 1), [SQUARE])
    return [*rng.choice(FORMAT_PREFIXES), command, *(tok for group in groups for tok in group)]


def test_table_matches_argparse_on_valid_command_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(POLY.parent)  # the workloads name corpus files relative to the checkout
    rng = random.Random(7)
    readme = readme_command_lines()
    assert len(readme) == 13
    lines = readme + workload_command_lines(tmp_path)
    for command, (_, _, options) in COMMANDS.items():
        lines += [seeded_command_lines(rng, command, options) for _ in range(60)]
    for argv in lines:
        expected = argparse_namespace(argv)
        assert isinstance(expected, dict), argv
        assert table_namespace(argv) == parsed_as_by_the_table(expected), argv
    shapes = {(argv[0], tuple(sorted(t.partition("=")[0] for t in argv if t.startswith("--")))) for argv in lines}
    assert len(shapes) > 100


@pytest.mark.parametrize("argv", [
    [],
    ["--format", "human"],
    ["frobnicate", SQUARE],
    ["kernel", SQUARE, "--bogus"],
    ["kernel", SQUARE, "-W", "2"],
    ["kernel", SQUARE, "--nu"],
    ["kernel", SQUARE, "--W"],
    ["--format"],
    ["spectrum-quadform", SQUARE, "--N", "2"],
    ["min-degree", SQUARE],
    ["spectrum", SQUARE, "--window", "0:2"],
    ["bound"],
    ["bound", "--W", "2"],
    ["kernel", SQUARE, "--W", "two"],
    ["kernel", SQUARE, "--W=2.5"],
    ["spectrum-quadform", SQUARE, "--lam", "1/3,0", "--N", "-1/2"],
    ["kernel", SQUARE, "--ring", "Q"],
    ["kernel", SQUARE, "--backend=sympy"],
    ["--format", "xml", "data", SQUARE],
    ["data", SQUARE, SQUARE],
    ["data", SQUARE, "--format", "human"],
    ["--nu", "1/2", "bound", SQUARE],
    ["spectrum", SQUARE, "--mu", "1/4,0,0,0", "--window", "0:2", "--untwisted=yes"],
])
def test_table_and_argparse_reject_the_same_command_lines(argv, capsys):
    assert argparse_namespace(argv) == 1
    assert capsys.readouterr().out == ""
    assert invoke(*argv) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["kernel", SQUARE, "--W", "1_0"], "--W needs an integer, got '1_0'"),
    (["spectrum-quadform", SQUARE, "--N=1_0", "--lam", "0,0"], "--N needs an integer, got '1_0'"),
    (["bound", SQUARE, "--nu", "1_0"], "--nu: Invalid literal for Fraction: '1_0'"),
    (["kernel", SQUARE, "--member=1_0,0,0,0"], "--member: Invalid literal for Fraction: '1_0'"),
    (["spectrum", SQUARE, "--mu", "1/4,0,0,0", "--window=0:1_0"], "--window: Invalid literal for Fraction: '1_0'"),
])
def test_option_values_take_no_digit_separators(argv, message, capsys):
    # one literal grammar on every Python: int() and, from 3.11, Fraction()
    # would read "1_0" as 10
    assert invoke(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exits_0_on_both(capsys):
    for argv in (["-h"], ["--format", "human", "--help"], ["kernel", "-h"], ["bound", SQUARE, "--help"]):
        assert argparse_namespace(argv) == 0
        capsys.readouterr()
        assert table_namespace(argv) is None
        assert capsys.readouterr().out.startswith("usage: toricspec")

