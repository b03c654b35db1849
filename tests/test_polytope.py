import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest

from tests.conftest import cp1xcp1, cpn_simplex, cube3
from tests.reference import (
    fourier_motzkin_feasible,
    minors_gcd_oracle,
    rational_feasible,
    reference_parse_fraction,
    rref,
)
from toricspec.lattice import mat_vec
from toricspec.memo import clear_caches, memo_counts, replace
from toricspec.polys import monomials_of_degree
from toricspec.polytope import (
    DelzantPolytope,
    ToricHypothesisError,
    _enumerate_vertices,
    find_positive_b,
    is_cpn,
    parse_fraction,
    parse_polytope,
    rationality_check,
    toric_data,
    validate,
)

ROOT = Path(__file__).resolve().parent.parent

H = Fraction(1, 2)


def test_validate_cp2_simplex():
    poly = DelzantPolytope(
        d=2,
        facets=(((1, 0), Fraction(1)), ((0, 1), Fraction(1)), ((-1, -1), Fraction(1))),
    )
    report = validate(poly)
    assert report.compact and report.smooth
    # oracle: solved the three 2x2 vertex systems by hand
    assert set(report.vertices) == {
        (Fraction(-1), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
        (Fraction(2), Fraction(-1)),
    }


def test_validate_square():
    report = validate(cp1xcp1())
    assert report.compact and report.smooth
    assert set(report.vertices) == {
        (sx * H, sy * H) for sx in (-1, 1) for sy in (-1, 1)
    }


def test_validate_halfplane_not_compact():
    poly = DelzantPolytope(d=1, facets=(((1,), Fraction(1)), ((1,), Fraction(2))))
    report = validate(poly)
    assert not report.compact


def test_validate_diamond_not_smooth():
    # |x| + |y| <= 1: simple vertices whose conormal pairs have determinant 2
    poly = DelzantPolytope(
        d=2,
        facets=(
            ((1, 1), Fraction(1)),
            ((1, -1), Fraction(1)),
            ((-1, 1), Fraction(1)),
            ((-1, -1), Fraction(1)),
        ),
    )
    report = validate(poly)
    assert report.compact
    assert not report.smooth
    with pytest.raises(ToricHypothesisError, match="smooth"):
        toric_data(poly)


def test_validate_weighted_triangle_not_smooth():
    # conormals e1, e2, -e1-2e2: one corner fails the basis-extension test
    poly = DelzantPolytope(
        d=2,
        facets=(((1, 0), Fraction(1)), ((0, 1), Fraction(1)), ((-1, -2), Fraction(1))),
    )
    report = validate(poly)
    assert report.compact
    assert not report.smooth


def test_validate_rank_decides_redundancy_in_dimension_4():
    # no vertex on these facets is simple, so the rank of the tight vertices'
    # spans decides: a plane through a square 2-face of the tesseract has
    # spans of rank 2 < 3, and each facet of the cross-polytope (a
    # tetrahedron) rank 3
    signs = list(product((1, -1), repeat=4))
    tesseract = [(tuple(s * (i == j) for j in range(4)), Fraction(1)) for i in range(4) for s in (1, -1)]
    with pytest.raises(ToricHypothesisError, match="^redundant facet 9$"):
        validate(DelzantPolytope(d=4, facets=(*tesseract, ((-1, -1, 0, 0), Fraction(2)))))
    report = validate(DelzantPolytope(d=4, facets=tuple((s, Fraction(1)) for s in signs)))
    assert report.compact and not report.smooth and len(report.vertices) == 8


def test_empty_system_infeasible():
    # a_j > 0 forces 0 into the interior, so Delzant input is never empty and
    # validate has no emptiness test; the reference Fourier-Motzkin test,
    # which the compactness references use, must still tell an empty system.
    ineqs = [((Fraction(1),), Fraction(-1)), ((Fraction(-1),), Fraction(-1))]
    assert not fourier_motzkin_feasible(ineqs, 1)
    both = [((Fraction(1),), Fraction(2)), ((Fraction(-1),), Fraction(3))]
    assert fourier_motzkin_feasible(both, 1)


def test_toric_data_monotone_square():
    T = toric_data(cp1xcp1())
    assert T.kappa.vectors == ((1, 1, 0, 0), (0, 0, 1, 1))
    assert T.p == (Fraction(1), Fraction(1))
    assert T.chern == (2, 2)
    assert T.min_chern == 2
    assert T.k0.vectors == ((1, -1),)
    assert mat_vec(T.iota, T.k0.vectors[0]) == (1, 1, -1, -1)
    assert T.b == (1, 1)
    assert T.p_value(T.b) == 2
    assert T.hbar == 1


def test_toric_data_cpn():
    for n in (1, 2, 3):
        T = toric_data(cpn_simplex(n))
        assert T.kappa.vectors == ((1,) * (n + 1),)
        assert T.p == (Fraction(1),)
        assert T.chern == (n + 1,)
        assert T.min_chern == n + 1
        assert T.k0.vectors == ()
        assert is_cpn(T)
        assert T.b == (1,)
        assert mat_vec(T.iota, T.b) == (1,) * (n + 1)


def test_toric_data_nonmonotone_square():
    T = toric_data(cp1xcp1((H, H, Fraction(1), Fraction(1))))
    assert T.p == (Fraction(1), Fraction(2))
    assert T.chern == (2, 2)
    assert T.min_chern is None
    assert T.k0.vectors == ((2, -1),)
    assert T.b == (1, 1)
    assert T.p_value(T.b) == 3
    assert not is_cpn(T)


def test_toric_data_cube():
    T = toric_data(cube3())
    assert T.min_chern == 2
    assert T.b == (1, 1, 1)
    assert len(T.k0) == 2


def test_rationality_and_monotonicity_checks(T_monotone, T_p12, T_cp2):
    assert rationality_check(T_monotone)
    assert T_monotone.min_chern == 2
    assert rationality_check(T_p12)
    assert T_p12.min_chern is None
    assert T_cp2.min_chern == 3
    # scaled p: integral but not primitive
    doubled = toric_data(cp1xcp1((Fraction(1), Fraction(1), Fraction(1), Fraction(1))))
    assert doubled.p == (Fraction(2), Fraction(2))
    assert not rationality_check(doubled)
    # offsets 1/4: chern = 4 p, but p = (1/2, 1/2) is not integral, so there
    # is no N_M
    quarter = toric_data(cp1xcp1((Fraction(1, 4),) * 4))
    assert quarter.p == (H, H) and quarter.chern == (2, 2)
    assert not rationality_check(quarter)
    assert quarter.min_chern is None
    # non-integral p
    thirds = toric_data(cp1xcp1((H, H, Fraction(3, 4), Fraction(3, 4))))
    assert thirds.p == (Fraction(1), Fraction(3, 2))
    assert not rationality_check(thirds)


def test_beta_iota_composition_is_zero(T_monotone, T_cp3, T_cube):
    for T in (T_monotone, T_cp3, T_cube):
        assert all(not any(mat_vec(T.beta, v)) for v in T.kappa.vectors)


def test_momentum_consistency(T_monotone, T_cube):
    rng = random.Random(31)
    for T in (T_monotone, T_cube):
        for _ in range(25):
            r = [Fraction(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(T.n)]
            via_transpose = [
                sum((Fraction(T.iota[j][i]) * r[j] for j in range(T.n)), Fraction(0))
                for i in range(T.k)
            ]
            via_basis = [
                sum((Fraction(v[j]) * r[j] for j in range(T.n)), Fraction(0))
                for v in T.kappa.vectors
            ]
            assert via_transpose == via_basis


def _dual_cone_trivial(kappa_vectors, n):
    # {x >= 0, iota^T x = 0} = {0}: the dual form of the compactness condition
    eqs = [
        (tuple(Fraction(v[j]) for j in range(n)), Fraction(0)) for v in kappa_vectors
    ]
    for i in range(n):
        ineqs = [(tuple(Fraction(j == jj) for jj in range(n)), Fraction(0)) for j in range(n)]
        probe = [Fraction(0)] * n
        probe[i] = Fraction(1)
        ineqs.append((tuple(probe), Fraction(-1)))
        if rational_feasible(eqs, ineqs, n):
            return False
    return True


def test_compactness_dual_condition(T_monotone, T_cp2, T_cube):
    for T in (T_monotone, T_cp2, T_cube):
        assert _dual_cone_trivial(T.kappa.vectors, T.n)
    # the unbounded halfplane fails the dual condition as well
    from toricspec.lattice import integer_kernel

    halfplane_kappa = integer_kernel(((1, 1),)).vectors
    assert not _dual_cone_trivial(halfplane_kappa, 2)


def test_monotone_proportionality_exact(T_monotone, T_cp3, T_cube):
    for T in (T_monotone, T_cp3, T_cube):
        assert all(Fraction(c) == T.min_chern * p for c, p in zip(T.chern, T.p))


def test_find_positive_b_is_graded_lex_minimal(T_monotone, T_p12, T_cp3):
    for T in (T_monotone, T_p12, T_cp3):
        b = find_positive_b(T.iota, T.k)
        assert all(x >= 1 for x in mat_vec(T.iota, b))
        assert T.p_value(b) > 0


def test_polytope_text_roundtrip():
    text = """# the monotone square
dim 2
facet 1 0 ; 1/2
facet -1 0 ; 1/2
facet 0 1 ; 1/2
facet 0 -1 ; 1/2
"""
    poly = parse_polytope(text)
    assert poly == cp1xcp1()
    canonical = f"dim {poly.d}\n" + "".join(f"facet {' '.join(map(str, v))} ; {a}\n" for v, a in poly.facets)
    assert parse_polytope(canonical) == poly


def test_parse_rejects_floats():
    with pytest.raises(ValueError):
        parse_polytope("dim 1\nfacet 1 ; 0.5\nfacet -1 ; 1\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_polytope("facet 1 ; 1\n")  # facet before dim
    with pytest.raises(ValueError):
        parse_polytope("dim 1\nfacet 1 1\n")  # missing separator
    with pytest.raises(ValueError):
        parse_polytope("dim 2\nfacet 1/2 0 ; 1\nfacet -1 0 ; 1\nfacet 0 1 ; 1\n")
    with pytest.raises(ValueError):
        parse_polytope("dim 1\nridge 1 ; 1\n")  # unknown directive


@pytest.mark.parametrize("text, result", [
    ("+3", Fraction(3)), ("-0", Fraction(0)), ("03", Fraction(3)), ("\u0663", Fraction(3)),
    # digit separators are refused on every Python, though Fraction reads them from 3.11 on
    ("1_000", "Invalid literal for Fraction: '1_000'"),
    (" 7 ", Fraction(7)), ("-12/8", Fraction(-3, 2)),
    ("+-3", "Invalid literal for Fraction: '+-3'"), ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),
    ("1/0", "zero denominator: '1/0'"), ("1.0", "not an exact rational literal: '1.0'"),
    ("1e3", "not an exact rational literal: '1e3'"), ("", "Invalid literal for Fraction: ''"),
    ("1_0/3", "Invalid literal for Fraction: '1_0/3'"),
])
def test_parse_fraction_keeps_its_results_and_messages(text, result):
    # plain decimal integers take the int path, every other literal Fraction's
    if isinstance(result, str):
        with pytest.raises(ValueError) as err:
            parse_fraction(text)
        assert str(err.value) == result
    else:
        got = parse_fraction(text)
        assert type(got) is Fraction and got == result


def _parsed(parse, text):
    """(type, value) of a parse, or ("error", message) of the ValueError it raises."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), value


def test_parse_fraction_matches_the_fraction_str_path():
    # p/q with both sides decimal and only p signed is read by int(); every
    # result and every error message must be those of the Fraction(str) path
    texts = ["+1/2", "-0/3", "1/0", "-0/00", "1/-2", "1/+2", "1/2/3", " 1/2 ", "0x1", "\u0663/4", "4/\u0663",
             "1_0/3", "1e3", ".5", "1/", "/2", "-/2", "+", "", "\u00b2/3", "\uff11/2", "1 /2", "--1/2"]
    rng = random.Random(43)
    signs = ("", "", "+", "-", "--", "+-")
    digits = ("0", "1", "7", "00", "12", "070", "\u0663", "\uff17", "\u00b2", "1_0", "x", "", "1.5", "2e1", "E")
    spaces = ("", "", " ", "\t", "\u00a0")
    for _ in range(3000):
        text = rng.choice(signs) + rng.choice(digits)
        if rng.random() < 0.8:
            text += rng.choice(("/", "/", "/", "//", ".", ":")) + rng.choice(signs[:3]) + rng.choice(digits)
        texts.append(rng.choice(spaces) + text + rng.choice(spaces))
    outcomes = set()
    for text in texts:
        want = _parsed(reference_parse_fraction, text)
        assert _parsed(parse_fraction, text) == want, text
        outcomes.add(want[0] if want[0] is Fraction else want[1].partition(":")[0])
    assert outcomes == {Fraction, "zero denominator", "Invalid literal for Fraction", "not an exact rational literal"}


def test_dim_takes_decimal_digits_only():
    rest = "\nfacet 1 ; 1\nfacet -1 ; 1\n"
    with pytest.raises(ValueError, match=r"^line 1: dim must be one positive integer$"):
        parse_polytope("dim \u00b2" + rest)  # a digit, but not a decimal one
    assert parse_polytope("dim \u0661" + rest).d == 1  # Arabic-Indic one, as int() reads it


# --- integer validation against the Fraction / Fourier-Motzkin references ---


def fm_compact(poly):
    """Reference: the recession cone {y : V y >= 0} is zero iff no probe
    {V y >= 0, +-y_i >= 1} is feasible, by Fourier-Motzkin."""
    cone = [(tuple(Fraction(c) for c in v), Fraction(0)) for v, _ in poly.facets]
    for i in range(poly.d):
        for sign in (1, -1):
            ray = [Fraction(0)] * poly.d
            ray[i] = Fraction(sign)
            if fourier_motzkin_feasible(cone + [(tuple(ray), Fraction(-1))], poly.d):
                return False
    return True


def rref_vertices(poly):
    """Reference: solve every facet d-subset by a Fraction RREF, keep the
    feasible points in the order first met, then collect the active facets."""
    d = poly.d
    verts = {}
    for subset in combinations(range(poly.n), d):
        rows = [[Fraction(c) for c in poly.facets[j][0]] for j in subset]
        rhs = [-poly.facets[j][1] for j in subset]
        red, pivots = rref([row + [r] for row, r in zip(rows, rhs)])
        if len(pivots) != d or d in pivots:
            continue
        x = [Fraction(0)] * d
        for r, c in enumerate(pivots):
            x[c] = red[r][-1]
        if all(sum(vi * xi for vi, xi in zip(v, x)) + a >= 0 for v, a in poly.facets):
            verts.setdefault(tuple(x), set()).update(subset)
    return {
        x: frozenset(j for j, (v, a) in enumerate(poly.facets) if sum(vi * xi for vi, xi in zip(v, x)) + a == 0)
        for x in verts
    }


def random_polytopes(seed, count):
    """Seeded family: d = 1..3, d+1..d+4 primitive conormals in [-2, 2]^d,
    offsets in {1..4}/{1, 2}."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, d + 4)
        facets = []
        while len(facets) < n:
            v = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(v) and gcd(*v) == 1:
                facets.append((v, Fraction(rng.randint(1, 4), rng.randint(1, 2))))
        out.append(DelzantPolytope(d=d, facets=tuple(facets)))
    return out


def test_compactness_matches_fm_probes():
    classes = set()
    for poly in random_polytopes(11, 400):
        compact = fm_compact(poly)
        simple = all(len(active) == poly.d for active, _ in _enumerate_vertices(poly).values())
        classes.add((compact, simple))
        try:
            assert validate(poly).compact == compact
        except ToricHypothesisError as exc:
            # only compact input is checked for redundant facets
            assert exc.reason.startswith("redundant facet") and compact
    assert classes == {(True, True), (True, False), (False, True), (False, False)}


def test_integer_vertices_match_fraction_rref():
    files = sorted(ROOT.glob("polytopes/*.poly")) + sorted(ROOT.glob("perfbench/corpus/*.poly"))
    polys = [parse_polytope(path.read_text()) for path in files] + random_polytopes(12, 300)
    assert len(polys) > 300
    for poly in polys:
        verts = _enumerate_vertices(poly)
        expected = rref_vertices(poly)
        assert list(verts) == list(expected)
        assert [active for active, _ in verts.values()] == list(expected.values())
        for active, smooth in verts.values():
            basis = len(active) == poly.d and minors_gcd_oracle(
                [poly.facets[j][0] for j in sorted(active)], poly.d
            )
            assert smooth == basis


def graded_lex_positive_b(iota, k, grade_cap):
    """Reference: sort each 1-norm shell of Z^k, test every candidate's image."""
    for grade in range(1, grade_cap + 1):
        shell = sorted(m for a in monomials_of_degree(k, grade) for m in product(*({x, -x} for x in a)))
        for m in shell:
            if all(x >= 1 for x in mat_vec(iota, m)):
                return m
    return None


def test_find_positive_b_matches_sorted_shells():
    files = sorted(ROOT.glob("perfbench/corpus/*.poly"))
    datas = []
    for path in files:
        try:
            datas.append(toric_data(parse_polytope(path.read_text())))
        except ToricHypothesisError:
            continue
    assert max(T.k for T in datas) == 5
    for T in datas:
        assert find_positive_b(T.iota, T.k) == graded_lex_positive_b(T.iota, T.k, 8) == T.b
    rng = random.Random(13)
    found = 0
    for _ in range(300):
        k = rng.randint(1, 4)
        iota = tuple(tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(k, k + 3)))
        expected = graded_lex_positive_b(iota, k, 4)
        if expected is None:
            with pytest.raises(ToricHypothesisError):
                find_positive_b(iota, k, grade_cap=4)
        else:
            found += 1
            assert find_positive_b(iota, k, grade_cap=4) == expected
    assert 50 < found < 250


def test_toric_data_hash_is_the_field_hash_taken_once():
    for poly in (cp1xcp1(), cube3(), cpn_simplex(2)):
        T = toric_data(poly)
        clear_caches()
        fresh = toric_data(poly)
        assert T is not fresh and T == fresh
        expected = hash(tuple(getattr(T, name) for name in T._fields))
        assert hash(T) == hash(fresh) == expected
        assert hash(T) == expected  # the cached value
        moved = replace(T, b=tuple(2 * x for x in T.b))
        assert moved != T
        assert hash(moved) == hash(tuple(getattr(moved, name) for name in moved._fields))
        assert "_hash" not in T._fields


def _gl_image(poly, u):
    """The image of `poly` under x -> u^-T x, u in GL(d, Z): conormals v -> u v."""
    return DelzantPolytope(d=poly.d, facets=tuple((mat_vec(u, v), a) for v, a in poly.facets))


def test_toric_data_is_built_once_per_polytope():
    text = (ROOT / "polytopes" / "hirzebruch_monotone.poly").read_text()
    # an edited text is parsed again: an equal polytope, but another object
    first, second = parse_polytope(text), parse_polytope(text + "# edited\n")
    assert first is not second and first == second
    clear_caches()
    T = toric_data(first)
    assert toric_data(second) is T
    assert memo_counts()["toric_data"] == (1, 1)
    image = _gl_image(first, ((1, 1), (0, 1)))
    T_image = toric_data(image)
    assert T_image is not T and T_image.polytope == image
    assert toric_data(_gl_image(second, ((1, 1), (0, 1)))) is T_image
    assert memo_counts()["toric_data"] == (2, 2)
    clear_caches()
    fresh = toric_data(second)
    assert fresh is not T and fresh == T
    assert memo_counts()["toric_data"] == (0, 1)


@pytest.mark.parametrize("poly, reason", [
    (DelzantPolytope(d=1, facets=(((1,), Fraction(1)), ((1,), Fraction(2)))), "compact"),
    (DelzantPolytope(d=2, facets=(((1, 1), Fraction(1)), ((1, -1), Fraction(1)),
                                  ((-1, 1), Fraction(1)), ((-1, -1), Fraction(1)))), "smooth"),
])
def test_toric_data_raises_on_every_call(poly, reason):
    clear_caches()
    for calls in (1, 2, 3):
        with pytest.raises(ToricHypothesisError, match=reason):
            toric_data(poly)
        assert memo_counts()["toric_data"] == (0, calls)  # nothing kept
