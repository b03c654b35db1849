import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from toricspec import oracle
from toricspec.oracle import DiagonalMap, class_set, feasible_supports, listing, witness_lambda
from toricspec.lattice import det
from toricspec.polytope import (
    ToricHypothesisError,
    check_hypotheses,
    parse_polytope,
    toric_data,
    validate,
)
from toricspec.quadforms import front_coordinates
from tests.conftest import cp1xcp1, cpn_simplex, cube3, period_values, window_values
from tests.reference import (
    FractionClass,
    fraction_period_report,
    fraction_support_class,
    fraction_window_report,
    rational_feasible,
)

ROOT = Path(__file__).resolve().parent.parent

H = Fraction(1, 2)
Q = Fraction(1, 4)


def test_feasible_supports_square(T_monotone):
    assert feasible_supports(T_monotone) == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_feasible_supports_cp2(T_cp2):
    assert feasible_supports(T_cp2) == [(1,), (2,), (3,)]


def test_feasible_supports_recheck(T_monotone, T_cube):
    # independent re-verification of every reported support by direct FM
    for T in (T_monotone, T_cube):
        for support in feasible_supports(T):
            idx = [j - 1 for j in support]
            size = len(idx)
            eqs = []
            for i in range(T.k):
                coeffs = [Fraction(T.iota[j][i]) for j in idx]
                eqs.append((tuple(coeffs), -T.p[i]))
            ineqs = [
                (tuple(Fraction(p == t) for p in range(size)), Fraction(0))
                for t in range(size)
            ]
            assert rational_feasible(eqs, ineqs, size)


def fm_supports(toric):
    """Reference search: every coordinate subset, smallest first, tested for
    {x >= 0 on S, 0 off S, iota^T x = p} by Fourier-Motzkin, keeping the
    minimal feasible ones."""
    n, k = toric.n, toric.k
    found = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if any(set(prev).issubset(subset) for prev in found):
                continue
            eqs = []
            for i in range(k):
                coeffs = [Fraction(0)] * size
                for pos, j in enumerate(subset):
                    coeffs[pos] = Fraction(toric.iota[j][i])
                eqs.append((tuple(coeffs), -toric.p[i]))
            ineqs = [
                (tuple(Fraction(pos == t) for pos in range(size)), Fraction(0))
                for t in range(size)
            ]
            if rational_feasible(eqs, ineqs, size):
                found.append(subset)
    return sorted(tuple(j + 1 for j in subset) for subset in found)


def compact_smooth_files():
    """Every compact, smooth polytope file of the repository and the benchmark corpus."""
    out = []
    for path in sorted(ROOT.glob("polytopes/*.poly")) + sorted(ROOT.glob("perfbench/corpus/*.poly")):
        poly = parse_polytope(path.read_text())
        try:
            report = validate(poly)
        except ToricHypothesisError:
            continue
        if report.compact and report.smooth:
            out.append(poly)
    return out


def test_vertex_supports_match_fm_search():
    polys = [
        cp1xcp1(), cp1xcp1((H, H, Fraction(1), Fraction(1))),
        cpn_simplex(2), cpn_simplex(3), cube3(),
    ] + compact_smooth_files()
    assert len(polys) >= 20
    for poly in polys:
        T = toric_data(poly)
        supports = feasible_supports(T)
        assert supports == fm_supports(T)
        assert len(supports) == len(validate(poly).vertices)
        for support in supports:
            # the Delzant condition at the vertex: the minor iota_S is unimodular
            assert abs(det(tuple(T.iota[j - 1] for j in support))) == 1


def square_residues_oracle(mu, twisted=True):
    """Hand-solved congruence for the square: supports pick one coordinate per
    factor; s = -(lam1 + lam2) with lam1 in Z + 1/2 - mu_j (j in {1,2}),
    lam2 in Z + 1/2 - mu_j (j in {3,4})."""
    half = H if twisted else Fraction(0)
    residues = set()
    for j1 in (0, 1):
        for j2 in (2, 3):
            s = -(half - mu[j1]) - (half - mu[j2])
            residues.add(s % 1)
    return residues


def residues(values):
    return {v % 1 for v, _ in values}


def pairs_per_period(T, dmap, nu):
    """The (value, support) pairs of the period [nu, nu + 1)."""
    return sum(len(supports) for _, supports in period_values(T, dmap, nu))


def test_spectrum_square_mu_zero(T_monotone):
    dmap = DiagonalMap(mu=(Fraction(0),) * 4)
    values = window_values(T_monotone, dmap, 0, 2)
    assert residues(values) == square_residues_oracle((Fraction(0),) * 4) == {Fraction(0)}
    assert [v for v, _ in values] == [0, 1, 2]
    # one value per vertex support per period, all four on the integers
    assert period_values(T_monotone, dmap, 0) == [(0, ((1, 3), (1, 4), (2, 3), (2, 4)))]


def test_spectrum_square_quarter_perturbation(T_monotone):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    values = window_values(T_monotone, dmap, 0, 2)
    want = square_residues_oracle(mu)
    assert residues(values) == want
    assert len(want) == 2
    # each value carries the supports that realize it
    for v, supports in values:
        assert supports
        for s in supports:
            assert s in {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_spectrum_witness_lambdas_lie_on_front(T_monotone):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    den, classes = class_set(T_monotone, dmap)
    for support, base in classes:
        lam = witness_lambda(T_monotone, dmap, support)
        coords = [
            sum((Fraction(T_monotone.iota[j][i]) * lam[i] for i in range(2)),
                Fraction(0))
            for j in range(4)
        ]
        shifted = [c + m for c, m in zip(coords, mu)]
        front = front_coordinates(shifted)
        assert set(support).issubset(front)
        # the class base value is realized by the witness
        assert Fraction(base, den) == -T_monotone.p_value(lam)


def test_witness_lambda_names_a_support_that_is_not_a_vertex_support(T_monotone):
    dmap = DiagonalMap(mu=(Q, Fraction(0), Fraction(0), Fraction(0)))
    for support in ((1, 2), [3, 4], (1, 3, 4), ()):
        with pytest.raises(ValueError, match=rf"^support {re.escape(str(tuple(support)))} is not a vertex support$"):
            witness_lambda(T_monotone, dmap, support)
    assert witness_lambda(T_monotone, dmap, [1, 3]) == witness_lambda(T_monotone, dmap, (1, 3))


def test_count_in_period_examples(T_monotone):
    for mu, count in (((Q, Fraction(0), Fraction(0), Fraction(0)), 2), ((Fraction(0),) * 4, 1)):
        assert len(period_values(T_monotone, DiagonalMap(mu=mu), Fraction(1, 8))) == count


def test_count_matches_minimal_chern(T_monotone):
    rng = random.Random(99)
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    for _ in range(10):
        nu = Fraction(rng.randint(-40, 40), 8) + Fraction(1, 16)
        assert len(period_values(T_monotone, dmap, nu)) == T_monotone.min_chern


def test_periodicity_exact(T_monotone):
    rng = random.Random(7)
    mu = (Q, Fraction(1, 3), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    for _ in range(8):
        lo = Fraction(rng.randint(-20, 20), 4)
        hi = lo + Fraction(rng.randint(1, 8), 2)
        r1 = window_values(T_monotone, dmap, lo, hi)
        r2 = window_values(T_monotone, dmap, lo + 1, hi + 1)
        assert [v + 1 for v, _ in r1] == [v for v, _ in r2]
        # every class steps by 1: one (value, support) pair per vertex per period
        assert pairs_per_period(T_monotone, dmap, lo) == len(feasible_supports(T_monotone))


def test_novikov_shift_consistency(T_monotone):
    rng = random.Random(13)
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    for _ in range(10):
        m = (rng.randint(-2, 2), rng.randint(-2, 2))
        shift = T_monotone.p_value(m)
        moved = tuple(
            mi + Fraction(x)
            for mi, x in zip(mu, T_monotone.iota_apply(m))
        )
        lo, hi = Fraction(-2), Fraction(2)
        r_moved = window_values(T_monotone, DiagonalMap(mu=moved), lo, hi)
        r_base = window_values(T_monotone, DiagonalMap(mu=mu), lo + shift, hi + shift)
        assert [v for v, _ in r_moved] == [v - shift for v, _ in r_base]


def test_count_period_translation_invariance(T_monotone):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    for nu in (Fraction(1, 8), Fraction(9, 8), Fraction(-7, 8)):
        assert len(period_values(T_monotone, dmap, nu)) == len(period_values(T_monotone, dmap, nu + 1))


def test_boundary_value_flagged(T_monotone):
    # mu = 0 puts integer values in the spectrum; nu = 1 sits on one, the
    # period's least value
    dmap = DiagonalMap(mu=(Fraction(0),) * 4)
    assert [v for v, _ in period_values(T_monotone, dmap, Fraction(1))] == [Fraction(1)]


def test_untwisted_variant(T_monotone):
    # without the sign twist and with mu = 0 the identity is recovered:
    # solutions need lam integral, s = -p(lam) integer, same residue {0}
    dmap = DiagonalMap(mu=(Fraction(0),) * 4, twisted=False)
    assert residues(window_values(T_monotone, dmap, 0, 1)) == {Fraction(0)}


def test_spectrum_requires_primitive_p(T_cp3, T_p12):
    doubled = toric_data(cp1xcp1((Fraction(1),) * 4))  # p = (2, 2)
    quarter = toric_data(cp1xcp1((Fraction(1, 4),) * 4))  # p = (1/2, 1/2)
    for T in (doubled, quarter):
        with pytest.raises(ToricHypothesisError, match="^p is not primitive integral$"):
            class_set(T, DiagonalMap(mu=(Fraction(0),) * 4))
        with pytest.raises(ToricHypothesisError, match="^p is not primitive integral$"):
            witness_lambda(T, DiagonalMap(mu=(Fraction(0),) * 4), (1, 3))
    # neither monotonicity nor the projective-space exclusion is asked
    for T in (T_cp3, T_p12):
        assert class_set(T, DiagonalMap(mu=(Fraction(0),) * T.n))[1]


def test_spectrum_cube(T_cube):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    assert len(period_values(T_cube, dmap, Fraction(1, 16))) == T_cube.min_chern


def test_support_class_matches_fraction_reference():
    rng = random.Random(61)
    polys = [cp1xcp1(), cp1xcp1((H, H, Fraction(1), Fraction(1))), cpn_simplex(3), cube3()]
    checked = 0
    for poly in polys + compact_smooth_files():
        T = toric_data(poly)
        for twisted in (True, False):
            mu = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(T.n))
            dmap = DiagonalMap(mu=mu, twisted=twisted)
            # the integer class set, one class per feasible support in order
            den, classes = class_set(T, dmap)
            assert [support for support, _ in classes] == feasible_supports(T)
            for support, base in classes:
                lam = witness_lambda(T, dmap, support)
                assert (FractionClass(support, Fraction(base, den), Fraction(1)), lam) == \
                    fraction_support_class(T, dmap, support)
                assert type(base) is int and all(type(v) is Fraction for v in lam)
                checked += 1
    assert checked > 100


def test_every_vertex_class_steps_by_one(tmp_path):
    # the fact the oracle rests on: past the hypothesis gate, p is primitive
    # integral and every vertex minor unimodular, so the independent Fraction
    # reference finds step 1 on every vertex support, on every compact smooth
    # file and a seeded GL(d,Z) image of each, for seeded mu, twisted or not
    from perfbench import workloads

    rng = random.Random(31)
    paths = []
    for path in sorted(ROOT.glob("polytopes/*.poly")) + sorted(ROOT.glob("perfbench/corpus/*.poly")):
        try:
            T = toric_data(parse_polytope(path.read_text()))
            check_hypotheses(T)
        except ToricHypothesisError:
            continue
        image = tmp_path / f"{path.stem}.{path.parent.name}.poly"
        workloads.write_image(str(path), str(image), rng)
        paths += [path, image]
    assert len(paths) == 40
    checked = 0
    for path in paths:
        T = toric_data(parse_polytope(path.read_text()))
        for twisted in (True, False):
            mu = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 6, 7))) for _ in range(T.n))
            dmap = DiagonalMap(mu=mu, twisted=twisted)
            den, classes = class_set(T, dmap)
            for support, base in classes:
                cls, _ = fraction_support_class(T, dmap, support)
                assert cls.step == 1 and cls.base == Fraction(base, den), (path.name, support)
                checked += 1
    assert checked > 300


def _check_listing_against_fraction_reference(classes, reference, lo, hi, nu):
    """The integer listing of the class set `classes` over [lo, hi] and over
    the period [nu, nu + 1), against the Fraction listing of `reference`."""
    scale, values = listing(classes, lo, hi, closed=True)
    want = fraction_window_report(reference, (lo, hi))
    assert tuple((Fraction(v, scale), s) for v, s in values) == want.values
    assert want.period_check
    scale, values = listing(classes, nu, nu + 1, closed=False)
    want = fraction_period_report(reference, nu)
    got = tuple((Fraction(v, scale), s) for v, s in values)
    assert got == want.values
    assert tuple(v for v, _ in got[:1] if v == nu) == want.boundary_hits


def test_integer_window_matches_fraction_reference_on_seeded_classes():
    rng = random.Random(97)
    big = (10**12 + 39, 2**61 - 1, 3**40)
    dens = (1, 2, 3, 4, 6, 7, 12) + big

    def rational(span):
        return Fraction(rng.randint(-span, span), rng.choice(dens)) + rng.randint(-span, span)

    checked = on_edge = 0
    for _ in range(300):
        # step-1 classes over one denominator, as `class_set` makes them
        den = rng.choice(dens)
        classes = [(tuple(sorted(rng.sample(range(1, 7), 2))), rng.randint(-20 * den, 20 * den))
                   for _ in range(rng.randint(0, 6))]
        reference = [FractionClass(s, Fraction(b, den), Fraction(1)) for s, b in classes]
        on_values = [c.base + rng.randint(-3, 3) for c in reference]
        lo = rng.choice(on_values) if on_values and rng.random() < 0.5 else rational(10)
        hi = rng.choice((lo, lo + rational(4) % 6, max(on_values + [lo])))
        nu = rng.choice(on_values + [hi - 1, rational(10)])
        _check_listing_against_fraction_reference((den, classes), reference, lo, hi, nu)
        on_edge += sum(v in (lo, hi, nu, nu + 1) for v in on_values)
        checked += 1
    assert checked == 300 and on_edge > 100
    with pytest.raises(ValueError, match=r"^window 1:0 is empty \(lo > hi\)$"):
        listing((1, []), Fraction(1), Fraction(0), closed=True)


def test_integer_window_matches_fraction_reference_on_vertex_supports():
    rng = random.Random(53)
    windows = [(Fraction(-1), Fraction(1)), (Fraction(-1, 2), Fraction(3, 2)), (Fraction(1, 3), Fraction(1, 3)),
               (Fraction(0), Fraction(2)), (Fraction(-7, 5), Fraction(-2, 5))]
    files = compact_smooth_files()
    assert len(files) == 20
    for poly in files:
        T = toric_data(poly)
        for twisted in (True, False):
            mu = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 6))) for _ in range(T.n))
            dmap = DiagonalMap(mu=mu, twisted=twisted)
            classes = class_set(T, dmap)
            reference = [fraction_support_class(T, dmap, support)[0] for support in feasible_supports(T)]
            for lo, hi in windows:
                _check_listing_against_fraction_reference(classes, reference, lo, hi, lo)
            nu = reference[0].base  # a value on the period's lower edge
            _check_listing_against_fraction_reference(classes, reference, nu, nu + 1, nu)


def test_listing_stops_at_the_value_limit(T_monotone, monkeypatch):
    # the square with mu = (1/4, 0, 0, 0): four classes of step 1, with bases
    # -3/4 (twice) and -1 (twice); [0, 2] holds 2 + 2 + 3 + 3 = 10 class values
    # and the period [0, 1) holds 4
    classes = class_set(T_monotone, DiagonalMap(mu=(Q, Fraction(0), Fraction(0), Fraction(0))))
    window, period = (Fraction(0), Fraction(2), True), (Fraction(0), Fraction(1), False)
    full = listing(classes, *window), listing(classes, *period)
    assert [len(values) for _, values in full] == [5, 2]
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 10)
    assert listing(classes, *window) == full[0]
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 9)
    with pytest.raises(ValueError, match=r"^class value count 10 is above the limit 9$"):
        listing(classes, *window)
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 4)
    assert listing(classes, *period) == full[1]
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 3)
    with pytest.raises(ValueError, match=r"^class value count 4 is above the limit 3$"):
        listing(classes, *period)
    monkeypatch.undo()
    # the count is taken in closed form, so a window of any width is refused at once
    with pytest.raises(ValueError, match=r"^class value count 400000002 is above the limit 1000000$"):
        listing(classes, Fraction(0), Fraction(10**8), closed=True)
    with pytest.raises(ValueError, match=rf"^class value count {4 * 10**40 + 2} is above the limit 1000000$"):
        listing(classes, Fraction(0), Fraction(10**40), closed=True)
