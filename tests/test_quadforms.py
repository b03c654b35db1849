import io
import json
import math
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from toricspec import quadforms
from toricspec.cli import run
from toricspec.lattice import identity_matrix, mat_vec
from toricspec.quadforms import (
    EigenDescriptor,
    assemble_numeric_form,
    eigen_sign,
    eigen_vector,
    front_coordinates,
    front_membership,
    numeric_negative_index,
    numeric_zero_index,
    quad_form_matrix,
    shift_matrix,
    spectrum,
    t_lambda_value,
)
from tests.reference import fraction_eigen_sign

H = Fraction(1, 2)


def blockers(N, n=1):
    np = pytest.importorskip("numpy")
    a = np.array(shift_matrix(N), dtype=complex)
    return np.kron(a, np.eye(n))


def test_shift_matrix_small():
    np = pytest.importorskip("numpy")
    assert shift_matrix(1) == ((0, 1), (-1, 0))
    a = np.array(shift_matrix(1))
    assert np.array_equal(a @ a, -np.eye(2))


def test_shift_matrix_power_identity():
    np = pytest.importorskip("numpy")
    for N in (1, 2, 3, 5):
        a = np.array(shift_matrix(N), dtype=float)
        assert np.array_equal(np.linalg.matrix_power(a, 2 * N), -np.eye(2 * N))


def test_quad_form_matrix_hermitian_and_spectrum():
    np = pytest.importorskip("numpy")
    for N in range(1, 7):
        c = quad_form_matrix(N)
        assert np.max(np.abs(c - c.conj().T)) < 1e-12
        got = np.sort(np.linalg.eigvalsh(c))
        want = np.sort([-math.tan(math.pi * (2 * k + 1) / (4 * N)) for k in range(-N, N)])
        assert np.max(np.abs(got - want)) < 1e-9
        # symmetric about zero under k <-> -k-1
        assert np.max(np.abs(np.sort(-got) - got)) < 1e-9


def test_quad_form_n1_values():
    np = pytest.importorskip("numpy")
    got = np.sort(np.linalg.eigvalsh(quad_form_matrix(1)))
    assert np.allclose(got, [-1.0, 1.0], atol=1e-12)


def test_quad_form_n2_values():
    np = pytest.importorskip("numpy")
    got = np.sort(np.linalg.eigvalsh(quad_form_matrix(2)))
    t1, t3 = math.tan(math.pi / 8), math.tan(3 * math.pi / 8)
    assert np.allclose(got, [-t3, -t1, t1, t3], atol=1e-12)


def test_eigen_vector_n1_k0():
    np = pytest.importorskip("numpy")
    x = eigen_vector(1, 1, 0)
    assert np.allclose(x, [1, 1j], atol=1e-14)


def test_eigen_vector_n2_k0_phases():
    np = pytest.importorskip("numpy")
    x = eigen_vector(2, 1, 0)
    want = [np.exp(1j * math.pi * l / 4) for l in range(4)]
    assert np.allclose(x, want, atol=1e-14)


def test_eigen_vector_out_of_range():
    with pytest.raises(ValueError):
        eigen_vector(2, 1, 2)
    with pytest.raises(ValueError):
        eigen_vector(2, 1, -3)
    with pytest.raises(ValueError):
        eigen_vector(2, 3, 0, n=2)


def test_eigen_relation_residuals():
    np = pytest.importorskip("numpy")
    for N in range(1, 7):
        for n in (1, 2):
            a = blockers(N, n)
            ident = np.eye(2 * n * N)
            for j in range(1, n + 1):
                for k in range(-N, N):
                    x = eigen_vector(N, j, k, n)
                    t = math.tan((2 * k + 1) * math.pi / (4 * N))
                    resid = 1j * (a - ident) @ x + t * (a + ident) @ x
                    assert np.linalg.norm(resid) < 1e-10
                    # (A + Id)X is an eigenvector of C; the eigen relation above
                    # pins its eigenvalue to +t (the multiset is +/- symmetric)
                    c = np.kron(quad_form_matrix(N), np.eye(n))
                    v = (a + ident) @ x
                    assert np.linalg.norm(c @ v - t * v) < 1e-9


def test_spectrum_lambda_zero():
    for n, N in ((1, 2), (2, 3)):
        sp = spectrum(N, (Fraction(0),) * n, identity_matrix(n))
        assert sp.negative_index == 2 * n * N
        assert len(sp.eigenvalues) == 2 * n * N


def test_negative_index_examples():
    N = 2
    sp = spectrum(N, (Fraction(1),), identity_matrix(1))
    assert sp.negative_index == 6
    sp = spectrum(N, (Fraction(-1),), identity_matrix(1))
    assert sp.negative_index == 2


def test_spectrum_out_of_range():
    N = 2
    for exact in (spectrum, front_membership):
        for c in (2, -2, Fraction(5, 2)):
            with pytest.raises(ValueError, match=rf"^coordinate {c} outside \(-2, 2\)$"):
                exact(N, (Fraction(1, 3), Fraction(c)), identity_matrix(2))
    # the numeric cross-check takes the same range check before assembling
    pytest.importorskip("numpy")
    with pytest.raises(ValueError, match=r"^coordinate 3 outside \(-2, 2\)$"):
        assemble_numeric_form(N, (Fraction(1, 3), Fraction(3)), identity_matrix(2))


def test_front_membership():
    N = 3
    assert front_membership(N, (H,), identity_matrix(1)) == {1}
    assert front_membership(N, (Fraction(1, 3),), identity_matrix(1)) == set()
    assert front_coordinates((H, Fraction(-3, 2))) == {1, 2}


def test_zero_sign_exactly_on_front():
    N = 3
    sp = spectrum(N, (H, Fraction(1, 3)), identity_matrix(2))
    zero_descriptors = {(e.j, e.k) for e in sp.eigenvalues if e.sign() == 0}
    # the half-integer coordinate contributes exactly one degenerate pair
    assert zero_descriptors == {(1, 0)}
    assert front_membership(N, (H, Fraction(1, 3)), identity_matrix(2)) == {1}


def test_t_lambda_value():
    assert t_lambda_value((Fraction(0),), 1, [1.0]) == 0.0
    assert abs(t_lambda_value((H,), 1, [1.0]) - 1.0) < 1e-14
    # degree-2 homogeneity
    rng = random.Random(4)
    lam = (Fraction(1, 3), Fraction(-1, 4))
    for _ in range(10):
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        r = rng.uniform(0.1, 3.0)
        a = t_lambda_value(lam, 2, [r * z for z in x])
        b = (r ** 2) * t_lambda_value(lam, 2, x)
        assert abs(a - b) < 1e-9
    with pytest.raises(ValueError):
        t_lambda_value((Fraction(1),), 1, [1.0])


def random_off_front_lambda(rng, n, N):
    while True:
        lam = tuple(
            Fraction(rng.randint(-4 * N + 1, 4 * N - 1), rng.choice([3, 4, 5, 7, 8, 16]))
            for _ in range(n)
        )
        if all(-N < c < N for c in lam) and not front_coordinates(lam):
            return lam


def test_negative_index_matches_numeric_count():
    np = pytest.importorskip("numpy")
    rng = random.Random(1234)
    for n in (1, 2, 3):
        for N in (1, 2, 4, 6):
            for _ in range(6):
                lam = random_off_front_lambda(rng, n, N)
                sp = spectrum(N, lam, identity_matrix(n))
                m = assemble_numeric_form(N, lam, identity_matrix(n))
                got = np.linalg.eigvalsh(m)
                assert numeric_negative_index(got) == sp.negative_index
                want = np.sort([e.numeric() for e in sp.eigenvalues])
                assert np.max(np.abs(got - want)) < 1e-9


def test_spectrum_monotone_in_positive_directions():
    N = 4
    iota = identity_matrix(2)
    lam = (Fraction(-1, 3), Fraction(1, 5))
    step = (Fraction(1, 2), Fraction(3, 4))
    sp0 = spectrum(N, lam, iota)
    sp1 = spectrum(N, tuple(a + b for a, b in zip(lam, step)), iota)
    by_key0 = {(e.j, e.k): e.numeric() for e in sp0.eigenvalues}
    by_key1 = {(e.j, e.k): e.numeric() for e in sp1.eigenvalues}
    assert all(by_key1[key] <= by_key0[key] + 1e-15 for key in by_key0)


def test_empty_front_means_no_zero_eigenvalue():
    np = pytest.importorskip("numpy")
    rng = random.Random(77)
    N = 3
    for _ in range(20):
        lam = random_off_front_lambda(rng, 2, 3)
        m = assemble_numeric_form(N, lam, identity_matrix(2))
        vals = np.linalg.eigvalsh(m)
        assert np.min(np.abs(vals)) > 1e-6


def test_spectrum_needs_N_at_least_one():
    # the form lives on 2N blocks; only the total factor count N is taken
    lam, iota = (Fraction(1, 3),), identity_matrix(1)
    for N in (0, -1):
        for exact in (spectrum, front_membership):
            with pytest.raises(ValueError, match=r"^N >= 1 required$"):
                exact(N, lam, iota)
    pytest.importorskip("numpy")
    for N in (0, -1):
        with pytest.raises(ValueError, match=r"^N >= 1 required$"):
            assemble_numeric_form(N, lam, iota)


def test_spectrum_lists_at_most_the_eigenvalue_limit(monkeypatch):
    # 2nN eigenvalues: n = 2 coordinates and N = 3 give 12, N = 4 gives 16
    lam, iota = (Fraction(1, 3), Fraction(0)), identity_matrix(2)
    monkeypatch.setattr(quadforms, "EIGEN_LIMIT", 12)
    assert len(spectrum(3, lam, iota).eigenvalues) == 12
    with pytest.raises(ValueError, match=r"^eigenvalue count 2nN = 16 is above the limit 12$"):
        spectrum(4, lam, iota)
    # the front lists no eigenvalues, so it has no limit
    assert front_membership(4, lam, iota) == set()
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^eigenvalue count 2nN = 400000000 is above the limit 1000000$"):
        spectrum(10**8, lam, iota)


def test_numeric_form_is_at_most_the_dimension_limit(monkeypatch):
    pytest.importorskip("numpy")
    lam, iota = (Fraction(1, 3), Fraction(0)), identity_matrix(2)
    monkeypatch.setattr(quadforms, "NUMERIC_LIMIT", 12)
    assert assemble_numeric_form(3, lam, iota).shape == (12, 12)
    with pytest.raises(ValueError, match=r"^numeric matrix dimension 2nN = 16 is above the limit 12$"):
        assemble_numeric_form(4, lam, iota)
    monkeypatch.undo()
    # refused before the (2N)^2 shift matrix is built
    with pytest.raises(ValueError, match=r"^numeric matrix dimension 2nN = 1004 is above the limit 1000$"):
        assemble_numeric_form(251, lam, iota)
    # N >= 1 is checked first
    with pytest.raises(ValueError, match=r"^N >= 1 required$"):
        assemble_numeric_form(0, lam, iota)


def test_spectrum_with_nontrivial_iota(T_monotone):
    # lambda in the kernel basis, coordinates through the inclusion matrix
    lam = (Fraction(1, 3), Fraction(-1, 5))
    sp = spectrum(2, lam, T_monotone.iota)
    assert sp.N == 2
    assert sp.coords == mat_vec(T_monotone.iota, lam)
    assert sp.coords == (Fraction(1, 3), Fraction(1, 3), Fraction(-1, 5), Fraction(-1, 5))
    assert sp.negative_index == sum(2 * (2 + 0) for _ in range(4))
    with pytest.raises(ValueError, match=r"^lambda length must match the kernel rank$"):
        spectrum(2, lam[:1], T_monotone.iota)


def test_integer_sign_matches_fraction_reference():
    # coordinates on a grid of halves, thirds and sixths inside (-N, N), where
    # the half-integers put a zero sign on the front
    checked = zeros = 0
    for N in range(1, 5):
        grid = sorted({Fraction(a, 6) for a in range(-6 * N + 1, 6 * N)})
        for c in grid:
            for k in range(-N, N):
                want = fraction_eigen_sign(c, k)
                assert eigen_sign(c, k) == EigenDescriptor(1, k, N, c).sign() == want
                checked += 1
                zeros += want == 0
        # the report's signs come in the order of the descriptors
        sp = spectrum(N, grid[:3], identity_matrix(3))
        assert list(sp.signs()) == [(e.j, e.k, e.sign()) for e in sp.eigenvalues]
        assert len(sp.eigenvalues) == 6 * N
    assert checked == sum(2 * N * (12 * N - 1) for N in range(1, 5)) and zeros == sum(2 * N for N in range(1, 5))
    # an integer coordinate takes the same sign as its Fraction
    assert eigen_sign(1, 0) == eigen_sign(Fraction(1), 0) == -1


def test_spectrum_holds_no_descriptor_list(T_monotone):
    # N = 10^5 on the square has 800,000 eigenvalues; the spectrum keeps the
    # coordinates and the negative index only
    tracemalloc.start()
    try:
        sp = spectrum(10**5, (0, 0), T_monotone.iota)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert sp.negative_index == 2 * 4 * 10**5


def report_values(stdout):
    """The key -> value lines of a machine or human report."""
    pairs = (line.replace(" = ", "=", 1).partition("=") for line in stdout.splitlines())
    return {key: value for key, eq, value in pairs if eq}


def test_negative_index_is_twice_the_sign_lines_at_or_below_zero(T_monotone):
    # every line is an eigenvalue of real multiplicity 2; the index counts the
    # negative ones and, on the front, the zero one.  Each pinned report has a
    # coordinate on the front; off it the index is twice the sign=-1 lines
    reports = json.loads((Path(__file__).resolve().parent / "spectrum_reports.json").read_text())
    checked = 0
    for case, want in reports.items():
        if "spectrum-quadform" not in case.split() or want["exit"]:
            continue
        values = report_values(want["stdout"])
        signs = [int(v) for key, v in values.items() if key.endswith(".sign")]
        assert len(signs) == int(values["eigen_count"]) and 0 in signs
        assert int(values["negative_index"]) == 2 * (signs.count(-1) + signs.count(0)), case
        checked += 1
    assert checked == 6
    for N, lam in ((1, (0, 0)), (2, (Fraction(1, 3), Fraction(-1, 5))), (3, (Fraction(4, 3), Fraction(5, 2)))):
        sp = spectrum(N, lam, T_monotone.iota)
        signs = [sign for _, _, sign in sp.signs()]
        assert sp.negative_index == 2 * (signs.count(-1) + signs.count(0)), N
        assert (0 in signs) == bool(front_coordinates(sp.coords))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_numeric_indices_add_up_to_the_exact_index_on_the_front(N, T_monotone):
    # lam = (1/2, 0) puts the square's coordinates +-1/2 on the front: the
    # exact index counts their zero eigenvalues, the numeric one only the
    # negative ones, and the `--numeric` block prints the zero ones apart
    np = pytest.importorskip("numpy")
    out = io.StringIO()
    square = str(Path(__file__).resolve().parent.parent / "polytopes" / "cp1xcp1_monotone.poly")
    with redirect_stdout(out):
        assert run(["spectrum-quadform", square, "--N", str(N), "--lam=1/2,0", "--numeric"]) == 0
    lines = out.getvalue().splitlines()
    values = report_values(out.getvalue())
    negative, zero = int(values["# numeric_negative_index"]), int(values["# numeric_zero_index"])
    assert lines[lines.index(f"# numeric_negative_index={negative}") + 1] == f"# numeric_zero_index={zero}"
    sp = spectrum(N, (H, 0), T_monotone.iota)
    assert front_coordinates(sp.coords) and zero == 4
    assert int(values["negative_index"]) == sp.negative_index == negative + zero
    assert numeric_zero_index(np.array([e.numeric() for e in sp.eigenvalues])) == zero


@pytest.mark.parametrize("N", [1, 2, 3])
def test_reported_signs_are_those_of_the_numeric_eigenvalues(N, T_monotone):
    np = pytest.importorskip("numpy")
    lam = (H, Fraction(1, 3))
    out = io.StringIO()
    square = str(Path(__file__).resolve().parent.parent / "polytopes" / "cp1xcp1_monotone.poly")
    with redirect_stdout(out):
        assert run(["spectrum-quadform", square, "--N", str(N), "--lam", "1/2,1/3"]) == 0
    values = report_values(out.getvalue())
    coords = spectrum(N, lam, T_monotone.iota).coords
    form = assemble_numeric_form(N, lam, T_monotone.iota)
    seen = set()
    for key, value in values.items():
        if not key.endswith(".sign"):
            continue
        _, j, k, _ = key.split(".")
        j, k = int(j), int(k)
        x = eigen_vector(N, j, k, len(coords))
        image = form @ x
        eigenvalue = (np.vdot(x, image) / np.vdot(x, x)).real
        assert np.linalg.norm(image - eigenvalue * x) < 1e-9
        assert abs(eigenvalue - EigenDescriptor(j, k, N, coords[j - 1]).numeric()) < 1e-9
        sign = 0 if abs(eigenvalue) < 1e-9 else 1 if eigenvalue > 0 else -1
        assert int(value) == sign, key
        seen.add(sign)
    assert seen == {-1, 0, 1}
