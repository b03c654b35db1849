import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from toricspec import oracle
from toricspec.oracle import (
    DiagonalMap,
    SpectrumReport,
    SpectrumClass,
    class_set,
    feasible_supports,
    period_report,
    spectrum_classes,
    window_report,
    witness_lambda,
)
from toricspec.lattice import det
from toricspec.polytope import (
    ToricHypothesisError,
    parse_polytope,
    toric_data,
    validate,
)
from toricspec.quadforms import front_coordinates
from tests.conftest import cp1xcp1, cpn_simplex, cube3
from tests.reference import (
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


def report_residues(report: SpectrumReport):
    return {v % 1 for v, _ in report.values}


def test_spectrum_square_mu_zero(T_monotone):
    dmap = DiagonalMap(mu=(Fraction(0),) * 4)
    report = window_report(spectrum_classes(T_monotone, dmap), (Fraction(0), Fraction(2)))
    assert report_residues(report) == square_residues_oracle((Fraction(0),) * 4) == {Fraction(0)}
    assert [v for v, _ in report.values] == [0, 1, 2]
    assert report.period_check


def test_spectrum_square_quarter_perturbation(T_monotone):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    report = window_report(spectrum_classes(T_monotone, dmap), (Fraction(0), Fraction(2)))
    want = square_residues_oracle(mu)
    assert report_residues(report) == want
    assert len(want) == 2
    # each value carries the supports that realize it
    for v, supports in report.values:
        assert supports
        for s in supports:
            assert s in {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_spectrum_witness_lambdas_lie_on_front(T_monotone):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    report = window_report(spectrum_classes(T_monotone, dmap), (Fraction(0), Fraction(1)))
    for cls in report.classes:
        lam = witness_lambda(T_monotone, dmap, cls.support)
        coords = [
            sum((Fraction(T_monotone.iota[j][i]) * lam[i] for i in range(2)),
                Fraction(0))
            for j in range(4)
        ]
        shifted = [c + m for c, m in zip(coords, mu)]
        front = front_coordinates(shifted)
        assert set(cls.support).issubset(front)
        # the class base value is realized by the witness
        assert cls.base == -T_monotone.p_value(lam)


def test_count_in_period_examples(T_monotone):
    for mu, count in (((Q, Fraction(0), Fraction(0), Fraction(0)), 2), ((Fraction(0),) * 4, 1)):
        classes = spectrum_classes(T_monotone, DiagonalMap(mu=mu))
        assert len(period_report(classes, Fraction(1, 8)).values) == count


def test_count_matches_minimal_chern(T_monotone):
    rng = random.Random(99)
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    for _ in range(10):
        nu = Fraction(rng.randint(-40, 40), 8) + Fraction(1, 16)
        assert len(period_report(spectrum_classes(T_monotone, dmap), nu).values) == T_monotone.min_chern


def test_periodicity_exact(T_monotone):
    rng = random.Random(7)
    mu = (Q, Fraction(1, 3), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    for _ in range(8):
        lo = Fraction(rng.randint(-20, 20), 4)
        hi = lo + Fraction(rng.randint(1, 8), 2)
        r1 = window_report(spectrum_classes(T_monotone, dmap), (lo, hi))
        r2 = window_report(spectrum_classes(T_monotone, dmap), (lo + 1, hi + 1))
        assert [v + 1 for v, _ in r1.values] == [v for v, _ in r2.values]
        assert r1.period_check and r2.period_check


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
        r_moved = window_report(spectrum_classes(T_monotone, DiagonalMap(mu=moved)), (lo, hi))
        r_base = window_report(spectrum_classes(T_monotone, DiagonalMap(mu=mu)), (lo + shift, hi + shift))
        assert [v for v, _ in r_moved.values] == [v - shift for v, _ in r_base.values]


def test_count_period_translation_invariance(T_monotone):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    for nu in (Fraction(1, 8), Fraction(9, 8), Fraction(-7, 8)):
        classes = spectrum_classes(T_monotone, dmap)
        assert len(period_report(classes, nu).values) == len(period_report(classes, nu + 1).values)


def test_boundary_value_flagged(T_monotone):
    # mu = 0 puts integer values in the spectrum; nu = 1 sits on one
    dmap = DiagonalMap(mu=(Fraction(0),) * 4)
    report = period_report(spectrum_classes(T_monotone, dmap), Fraction(1))
    assert report.boundary_hits == (Fraction(1),)
    assert [v for v, _ in report.values] == [Fraction(1)]


def test_untwisted_variant(T_monotone):
    # without the sign twist and with mu = 0 the identity is recovered:
    # solutions need lam integral, s = -p(lam) integer, same residue {0}
    dmap = DiagonalMap(mu=(Fraction(0),) * 4, twisted=False)
    report = window_report(spectrum_classes(T_monotone, dmap), (Fraction(0), Fraction(1)))
    assert report_residues(report) == {Fraction(0)}


def test_spectrum_requires_primitive_p(T_cp3, T_p12):
    doubled = toric_data(cp1xcp1((Fraction(1),) * 4))  # p = (2, 2)
    quarter = toric_data(cp1xcp1((Fraction(1, 4),) * 4))  # p = (1/2, 1/2)
    for T in (doubled, quarter):
        with pytest.raises(ToricHypothesisError, match="^p is not primitive integral$"):
            spectrum_classes(T, DiagonalMap(mu=(Fraction(0),) * 4))
    # neither monotonicity nor the projective-space exclusion is asked
    for T in (T_cp3, T_p12):
        assert spectrum_classes(T, DiagonalMap(mu=(Fraction(0),) * T.n))


def test_spectrum_cube(T_cube):
    mu = (Q, Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    assert len(period_report(spectrum_classes(T_cube, dmap), Fraction(1, 16)).values) == T_cube.min_chern


def test_support_class_matches_fraction_reference():
    rng = random.Random(61)
    polys = [cp1xcp1(), cp1xcp1((H, H, Fraction(1), Fraction(1))), cpn_simplex(3), cube3()]
    checked = 0
    for poly in polys + compact_smooth_files():
        T = toric_data(poly)
        for twisted in (True, False):
            mu = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(T.n))
            dmap = DiagonalMap(mu=mu, twisted=twisted)
            # the integer class set, one class per feasible support in order, and its Fraction view
            scale, classes = class_set(T, dmap)
            assert [support for support, _, _ in classes] == feasible_supports(T)
            for got, (support, base, step) in zip(spectrum_classes(T, dmap), classes, strict=True):
                lam = witness_lambda(T, dmap, support)
                assert (got, lam) == fraction_support_class(T, dmap, support)
                assert (got.base, got.step) == (Fraction(base, scale), Fraction(step, scale))
                assert all(type(v) is Fraction for v in (got.base, got.step, *lam))
                checked += 1
    assert checked > 100


def _check_window_against_fraction_reference(classes, lo, hi, nu):
    got = window_report(classes, (lo, hi))
    assert got == fraction_window_report(classes, (lo, hi))
    assert all(type(v) is Fraction for v, _ in got.values)
    got = period_report(classes, nu)
    assert got == fraction_period_report(classes, nu)
    assert all(type(v) is Fraction for v in got.boundary_hits)


def test_integer_window_matches_fraction_reference_on_seeded_classes():
    rng = random.Random(97)
    big = (10**12 + 39, 2**61 - 1, 3**40)
    dens = (1, 2, 3, 4, 6, 7, 12) + big

    def rational(span):
        return Fraction(rng.randint(-span, span), rng.choice(dens)) + rng.randint(-span, span)

    def step():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5, 7))) + Fraction(rng.randint(0, 9), rng.choice(big))

    checked = on_edge = 0
    for _ in range(300):
        classes = [
            SpectrumClass(support=tuple(sorted(rng.sample(range(1, 7), 2))), base=rational(20),
                          step=step())
            for _ in range(rng.randint(0, 6))
        ]
        on_values = [c.base + rng.randint(-3, 3) * c.step for c in classes]
        lo = rng.choice(on_values) if on_values and rng.random() < 0.5 else rational(10)
        hi = rng.choice((lo, lo + rational(4) % 6, max(on_values + [lo])))
        nu = rng.choice(on_values + [hi - 1, rational(10)])
        _check_window_against_fraction_reference(classes, lo, hi, nu)
        on_edge += sum(v in (lo, hi, nu, nu + 1) for v in on_values)
        checked += 1
    assert checked == 300 and on_edge > 100
    with pytest.raises(ValueError, match="empty"):
        window_report([], (Fraction(1), Fraction(0)))


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
            classes = spectrum_classes(T, dmap)
            for lo, hi in windows:
                _check_window_against_fraction_reference(classes, lo, hi, lo)
            nu = classes[0].base  # a value on the period's lower edge
            _check_window_against_fraction_reference(classes, nu, nu + 1, nu)


def test_listing_stops_at_the_value_limit(T_monotone, monkeypatch):
    # the square with mu = (1/4, 0, 0, 0): four classes of step 1, with bases
    # -3/4 (twice) and -1 (twice); [0, 2] holds 2 + 2 + 3 + 3 = 10 class values
    # and the period [0, 1) holds 4
    classes = spectrum_classes(T_monotone, DiagonalMap(mu=(Q, Fraction(0), Fraction(0), Fraction(0))))
    window, nu = (Fraction(0), Fraction(2)), Fraction(0)
    full = window_report(classes, window), period_report(classes, nu)
    assert [len(r.values) for r in full] == [5, 2]
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 10)
    assert window_report(classes, window) == full[0]
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 9)
    with pytest.raises(ValueError, match=r"^class value count 10 is above the limit 9$"):
        window_report(classes, window)
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 4)
    assert period_report(classes, nu) == full[1]
    monkeypatch.setattr(oracle, "VALUE_LIMIT", 3)
    with pytest.raises(ValueError, match=r"^class value count 4 is above the limit 3$"):
        period_report(classes, nu)
    monkeypatch.undo()
    # the count is taken in closed form, so a window of any width is refused at once
    with pytest.raises(ValueError, match=r"^class value count 400000002 is above the limit 1000000$"):
        window_report(classes, (Fraction(0), Fraction(10**8)))
    with pytest.raises(ValueError, match=rf"^class value count {4 * 10**40 + 2} is above the limit 1000000$"):
        window_report(classes, (Fraction(0), Fraction(10**40)))
