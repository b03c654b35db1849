import random
import signal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from toricspec.laurent import (
    InconclusiveError,
    MonomialModule,
    kernel_K,
    kernel_K0,
    membership,
    novikov_shift,
    restrict,
    restriction_class_key,
    _cleared_generators,
    _verdict,
)
from toricspec.memo import _MEMO, clear_caches, memo_counts, replace
from toricspec.minimal import (
    BoundingData,
    MinimalDegreeWitness,
    NoMinimalElement,
    bounding_modules,
    degree_floor_violations,
    find_minimal_degree_element,
    min_degree_bound,
    nullstellensatz_exponents,
    translated_point_bound,
    PolynomialPart,
    _scaled_shift,
)
from toricspec.polys import Poly
from toricspec.polytope import ToricHypothesisError, parse_polytope, toric_data

from tests.conftest import cp1xcp1, cube3
from tests.reference import (
    _reference_normal_form,
    at_window,
    monic,
    reference_minimal_degree_element,
    reference_module_ideal,
    reference_nullstellensatz_exponents,
    restriction_degree,
    stable_verdict,
    verdict_at_window,
    verify_witness,
)

H = Fraction(1, 2)


def test_min_degree_bound_values():
    assert min_degree_bound(1, 2) == 2
    assert min_degree_bound(H, 2) == 1
    assert min_degree_bound(1, 4) == 4


def test_generator_degree_floor(T_monotone, T_cp3, T_cube):
    for T, r, window in ((T_monotone, H, 3), (T_cp3, Fraction(1), 3), (T_cube, H, 2)):
        bound = min_degree_bound(r, T.min_chern)
        assert all(sum(g) >= bound for g in MonomialModule(T, r, window).generators())


def test_bounding_modules_square(T_monotone):
    data = bounding_modules(T_monotone, H, Fraction(-1, 4), Fraction(1, 4))
    assert data.r_minus == Fraction(1, 4)
    assert data.r_plus == Fraction(3, 4)
    assert data.lower.ring == data.upper.ring == "R0"


def test_bounding_modules_degenerate_rejected(T_monotone):
    with pytest.raises(ValueError):
        bounding_modules(T_monotone, H, Fraction(0), Fraction(0))


def test_bounding_modules_nonmonotone_rejected(T_p12):
    with pytest.raises(ToricHypothesisError):
        bounding_modules(T_p12, H, Fraction(-1, 4), Fraction(1, 4))


def test_bounding_modules_projective_plane(T_cp2):
    # the kernel subspace collapses, so the inclusion holds trivially
    data = bounding_modules(T_cp2, Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    assert data.lower.ring == data.upper.ring == "ZeroRing"
    assert data.r_minus == Fraction(-1, 2)
    assert data.r_plus == Fraction(1, 2)


def test_bounding_sandwich_on_random_monomials(T_monotone):
    rng = random.Random(21)
    data = bounding_modules(T_monotone, H, Fraction(-1, 4), Fraction(1, 4))
    for _ in range(20):
        exps = tuple(rng.randint(-2, 2) for _ in range(4))
        q = Poly.monomial(exps)
        in_upper = membership(q, data.upper)
        in_lower = membership(q, data.lower)
        assert not in_upper or in_lower


def test_nullstellensatz_exponents_square(T_monotone):
    exps = nullstellensatz_exponents(T_monotone, H, 2)
    assert exps == (2, 2, 2, 2)


def test_nullstellensatz_high_degree_monomials_member(T_monotone):
    rng = random.Random(33)
    part = replace(kernel_K0(T_monotone, H, 2), module=PolynomialPart(T_monotone, H, 2))
    exps = nullstellensatz_exponents(T_monotone, H, 2)
    total = sum(exps)
    for _ in range(10):
        # random composition of total degree >= sum of the exponents
        target = total + rng.randint(0, 2)
        cuts = sorted(rng.randint(0, target) for _ in range(3))
        parts = (
            cuts[0],
            cuts[1] - cuts[0],
            cuts[2] - cuts[1],
            target - cuts[2],
        )
        assert membership(Poly.monomial(parts), part, backend="groebner")


def test_least_positive_degree_matches_the_full_scan(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the polynomial part's first generator has the least positive-part
    # degree of the module's window generators
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for r in (Fraction(-1, 2), H, Fraction(3, 2)):
            for window in (2, 4):
                gens = MonomialModule(T, r, window).generators()
                first = PolynomialPart(T, r, window).generators()[0]
                assert sum(first) == min(sum(max(x, 0) for x in g) for g in gens), (T.n, r, window)


def test_polynomial_part_degree_test_builds_no_basis(T_monotone):
    # below the least positive-part degree (2 here) a monomial is decided
    # without cleared generators under the part's key, so with no m^D test
    # and no basis; the verdicts that build them afterwards agree
    part = replace(kernel_K0(T_monotone, H, 2), module=PolynomialPart(T_monotone, H, 2))
    keys = [("cleared_generators", at_window(part, w)) for w in (2, 4)]
    below = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
    clear_caches()
    for q in below:
        assert not membership(Poly.monomial(q), part, backend="groebner")
    assert not any(key in _MEMO for key in keys)
    for window in (2, 4):
        for q in below:
            assert not _verdict(Poly.monomial(q), at_window(part, window), "groebner")[0]
    assert all(key in _MEMO for key in keys)


def test_polynomial_part_and_module_with_equal_fields_are_distinct_memo_keys(T_monotone):
    # value equality compares the class: the two hash alike, but each
    # builds its own entries; the part's generators read the module's
    module = MonomialModule(T_monotone, H, 4)
    part = PolynomialPart(T_monotone, H, 4)
    assert hash(part) == hash(module) and part != module and module != part
    km = kernel_K0(T_monotone, H, 2)
    part_km, module_km = replace(km, module=part), replace(km, module=module)
    clear_caches()
    gens, positive = module.generators(), part.generators()
    assert memo_counts()["generators"] == (1, 2)
    assert all(min(g) >= 0 for g in positive) and any(min(g) < 0 for g in gens)
    assert _cleared_generators(part_km)[2] == (0,) * T_monotone.n != _cleared_generators(module_km)[2]
    assert memo_counts()["cleared_generators"] == (0, 2)
    kinds = [kind for kind, key in _MEMO if key in (module, module_km)]
    assert kinds.count("generators") == kinds.count("cleared_generators") == 1
    assert sum(kind in ("generators", "cleared_generators") for kind, _ in _MEMO) == 4


def test_polynomial_part_backends_match_the_definition(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # both backends decide the part, and agree with reduction by the reference
    # basis of the positive-part monomials and the relation ideal
    rng = random.Random(37)
    verdicts = set()
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for window in (2, 4):
                km = maker(T, H, window)
                sub = km.subspace
                part = replace(km, module=PolynomialPart(T, H, window))
                positive = part.module.generators()
                ideal = reference_module_ideal(positive, (0,) * T.n, sub)
                for _ in range(6):
                    q = Poly.monomial(tuple(rng.randint(0, 3) for _ in range(T.n)))
                    want = _reference_normal_form(q, ideal).is_zero()
                    assert _verdict(q, part, "both")[0] == want, (T.n, maker, window, q)
                    if not sub.is_zero_ring():
                        verdicts.add(want)
    assert verdicts == {True, False}


def _looped_verdict(verdict_at, window):
    """The stability loop's verdict, asserting that the verdicts it saw were
    monotone in the window: FF, TT or FTT."""
    seen = []

    def recorded(w):
        seen.append(verdict_at(w))
        return seen[-1]

    verdict, _ = stable_verdict(recorded, window)
    assert seen in ([False, False], [True, True], [False, True, True]), seen
    return verdict


def test_polynomial_part_membership_is_the_loop_verdict(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    rng = random.Random(43)
    verdicts = set()
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for r in (H, Fraction(3, 2)):
                for window in (2,) if T.n > 4 else (2, 3, 4):
                    part = replace(maker(T, r, window), module=PolynomialPart(T, r, window))
                    for _ in range(6):
                        q = Poly.monomial(tuple(rng.randint(0, 3) for _ in range(T.n)))
                        want = _looped_verdict(lambda w: verdict_at_window(q, part, w, "groebner"), window)
                        assert membership(q, part, backend="groebner") == want
                        verdicts.add(want)
    assert verdicts == {True, False}


def _looped_degree_floor_violations(toric, r, window, box):
    """`degree_floor_violations` with each class decided by the stability loop."""
    bound = min_degree_bound(r, toric.min_chern)
    km = kernel_K0(toric, Fraction(r), window)
    seen, violations = set(), []
    for a in product(range(-box, box + 1), repeat=toric.n):
        key = restriction_class_key(km.subspace, a)
        if Fraction(sum(a)) >= bound or key in seen:
            continue
        seen.add(key)
        q = Poly.monomial(a)
        if _looped_verdict(lambda w: _verdict(q, at_window(km, w), "both")[0], window):
            violations.append(a)
    return violations, len(seen)


def test_degree_floor_scan_is_the_loop_verdict_at_one_window(T_monotone, T_cp2, T_cube):
    violated = 0
    for T, box in ((T_monotone, 2), (T_cp2, 2), (T_cube, 1)):
        for r in (H, Fraction(1)):
            for window in (2, 3):
                clear_caches()
                got = degree_floor_violations(T, r, window, box=box)
                km = kernel_K0(T, r, window)
                built = {key.module.window for kind, key in _MEMO
                         if kind == "groebner" and at_window(key, window) == km}
                assert built <= {window + 2}
                assert got == _looped_degree_floor_violations(T, r, window, box)
                violated += bool(got[0])
    # on the zero ring of the projective plane every class is a member
    assert violated == 4


def _looped_shift(toric, nu):
    """The least s >= 1 with (nu + s * p(b)) * N >= 1, by stepping s."""
    r0 = toric.p_value(toric.b)
    n_m = toric.min_chern if toric.min_chern is not None else 1
    s = 1
    while (nu + s * r0) * n_m < 1:
        s += 1
    return tuple(s * x for x in toric.b)


def test_scaled_shift_matches_the_loop(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    rng = random.Random(41)
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for _ in range(100):
            nu = Fraction(rng.randint(-300, 300), rng.randint(1, 12))
            assert _scaled_shift(T, nu) == _looped_shift(T, nu), (T.n, nu)


def test_scaled_shift_far_below_zero_returns_at_once(T_monotone):
    def timeout(signum, frame):
        raise TimeoutError("_scaled_shift did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        nu = Fraction(-10**12)
        shift = _scaled_shift(T_monotone, nu)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the least multiple of b that lifts the level above degree zero
    s = shift[0] // T_monotone.b[0]
    assert shift == tuple(s * x for x in T_monotone.b)
    r0, n_m = T_monotone.p_value(T_monotone.b), T_monotone.min_chern
    assert (nu + s * r0) * n_m >= 1 > (nu + (s - 1) * r0) * n_m


def test_nullstellensatz_cpn_rejected(T_cp2):
    with pytest.raises(ToricHypothesisError):
        nullstellensatz_exponents(T_cp2, Fraction(1), 2)


def test_nullstellensatz_cap_exceeded(T_monotone):
    with pytest.raises(InconclusiveError):
        nullstellensatz_exponents(T_monotone, H, 2, cap=1)


def test_witness_monotone_square(T_monotone):
    w = find_minimal_degree_element(T_monotone, H)
    assert isinstance(w, MinimalDegreeWitness)
    km = kernel_K0(T_monotone, H, 2)
    # restriction is a scalar multiple of the first coordinate restriction
    target = restrict(Poly.monomial((1, 0, 0, 0)), km.subspace)
    assert monic(w.restriction.numerator) == monic(target.numerator)
    assert not any(w.restriction.denom_exps)
    assert restriction_degree(w.restriction) == 1
    assert verify_witness(w, km)


def _hirzebruch():
    path = Path(__file__).resolve().parent.parent / "polytopes" / "hirzebruch_monotone.poly"
    return toric_data(parse_polytope(path.read_text()))


def _reordered_cube():
    """The cube with facets e1, -e1, e3, e2, -e2, -e3: its direction groups
    (0, 0, 1, 2, 2, 1) end at coordinates 2, 6, 5, out of group id order."""
    facets = {f[0]: f for f in cube3().facets}
    order = ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 1, 0), (0, -1, 0), (0, 0, -1))
    return toric_data(replace(cube3(), facets=tuple(facets[v] for v in order)))


@pytest.mark.parametrize("name, nus", [
    ("square", (0, H, 1, Fraction(3, 2), Fraction(5, 2), 3)),
    ("hirzebruch", (0, Fraction(5, 2))),
    ("cube", (0, H)),
    ("reordered cube", (0, H)),
])
def test_class_walk_finds_the_monomial_walk_witness(name, nus, T_monotone, T_cube):
    # the walk over restriction classes stops at the monomial the walk over
    # every monomial by (total degree, lex) stops at, with the same shift,
    # restriction and certified successors
    T = {"square": T_monotone, "hirzebruch": _hirzebruch(), "cube": T_cube, "reordered cube": _reordered_cube()}[name]
    for nu in nus:
        got = find_minimal_degree_element(T, nu)
        want = reference_minimal_degree_element(T, nu)
        assert (got.monomial, got.shifted_monomial, got.shift, got.restriction) == (
            want.monomial, want.shifted_monomial, want.shift, want.restriction)
        assert sorted(got.successor_certificates) == sorted(want.successor_certificates) == list(range(T.n))


def test_grouped_nullstellensatz_scan_matches_the_per_coordinate_scan(T_monotone, T_cube, T_cp2, T_cp3):
    # one scan per restriction direction gives every coordinate's exponent,
    # and under a cap too small for some coordinate names the same first one
    for T in (T_monotone, T_cube, _hirzebruch()):
        for r in (H, 1, Fraction(5, 2), 4):
            want = reference_nullstellensatz_exponents(T, r, 2)
            assert nullstellensatz_exponents(T, r, 2) == want
            for cap in range(max(want)):
                with pytest.raises(InconclusiveError) as got:
                    nullstellensatz_exponents(T, r, 2, cap=cap)
                with pytest.raises(InconclusiveError) as ref:
                    reference_nullstellensatz_exponents(T, r, 2, cap=cap)
                assert str(got.value) == str(ref.value)
    for T in (T_cp2, T_cp3):
        with pytest.raises(ToricHypothesisError, match="projective"):
            nullstellensatz_exponents(T, H, 2)


def _recorded_queries(module, monkeypatch):
    """Patch `membership` in `module` to record (kernel module, restriction
    class) for each query."""
    asked = []
    inner = module.membership

    def recording(q, km, *args, **kwargs):
        asked.append((km, restriction_class_key(km.subspace, next(iter(q.terms)))))
        return inner(q, km, *args, **kwargs)

    monkeypatch.setattr(module, "membership", recording)
    return asked


def test_witness_search_asks_each_class_once(T_monotone, T_cube, monkeypatch):
    import tests.reference as reference_mod
    import toricspec.minimal as minimal_mod

    asked = _recorded_queries(minimal_mod, monkeypatch)
    for T, nu in ((T_monotone, H), (T_monotone, 3), (T_cube, 0), (_hirzebruch(), Fraction(5, 2))):
        asked.clear()
        find_minimal_degree_element(T, nu)
        assert asked and len(set(asked)) == len(asked)
    # the cube `bound` search asks the level module the same classes as the
    # monomial walk, each once, and its polynomial part fewer
    level = kernel_K0(T_cube, H, 2)
    asked.clear()
    translated_point_bound(T_cube)
    walked = _recorded_queries(reference_mod, monkeypatch)
    reference_minimal_degree_element(T_cube, H)
    assert len(set(asked)) == len(asked) <= len(set(walked))
    assert {c for km, c in asked if km == level} == {c for km, c in walked if km == level}
    assert len([c for km, c in asked if km != level]) < len([c for km, c in walked if km != level])


def test_witness_nonmonotone_square(T_p12):
    w = find_minimal_degree_element(T_p12, H)
    assert isinstance(w, NoMinimalElement)


def test_witness_cpn_guard(T_cp2):
    with pytest.raises(ToricHypothesisError):
        find_minimal_degree_element(T_cp2, H)


def test_witness_shift_invariance(T_monotone):
    w = find_minimal_degree_element(T_monotone, H)
    km = kernel_K0(T_monotone, H, 2)
    for m in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        moved = tuple(
            a + b for a, b in zip(w.monomial, T_monotone.iota_apply(m))
        )
        shifted = replace(km, module=novikov_shift(km.module, m))
        assert not membership(Poly.monomial(moved), shifted)
        for i in range(4):
            succ = tuple(x + (1 if j == i else 0) for j, x in enumerate(moved))
            assert membership(Poly.monomial(succ), shifted)


def test_a_bound_run_builds_one_decision_module_per_kernel_module(T_cube, monkeypatch):
    # `toricspec bound` on the cube asks two kernel modules, the level module
    # and its polynomial part (for the Nullstellensatz exponents): each is
    # widened to W + 2 once, and every later lookup returns that same object
    import toricspec.laurent as laurent_mod

    asked = []
    inner = laurent_mod.decision_module

    def counted(km):
        asked.append(km)
        return inner(km)

    monkeypatch.setattr(laurent_mod, "decision_module", counted)
    clear_caches()
    translated_point_bound(T_cube)
    hits, misses = memo_counts()["decision_module"]
    assert misses == len(set(asked)) == 2 and hits == len(asked) - 2 > 100
    assert {type(km.module) for km in asked} == {MonomialModule, PolynomialPart}
    level = kernel_K0(T_cube, H, 2)
    assert inner(level) is inner(level) is inner(kernel_K0(T_cube, H, 2))
    assert memo_counts()["decision_module"] == (hits + 3, 2)


def test_witness_search_builds_one_basis_per_window(T_monotone):
    # the search asks the level module at translated monomials, and every
    # query is cleared at the generator floor: one cleared-generator build,
    # with its m^D test, at the window W + 2 that membership decides at,
    # whatever the shift and the depth; the module is m^D, so no Groebner
    # basis is built at any window
    km = kernel_K0(T_monotone, Fraction(3), 2)
    clear_caches()
    w = find_minimal_degree_element(T_monotone, Fraction(3))
    assert isinstance(w, MinimalDegreeWitness)
    decided = [key for kind, key in _MEMO if kind == "cleared_generators" and at_window(key, 2) == km]
    assert [key.module.window for key in decided] == [4]
    assert _cleared_generators(decided[0])[3] is not None
    assert not any(kind == "groebner" and at_window(key, 2) == km for kind, key in _MEMO)


def test_degree_floor_exhaustive_square(T_monotone):
    for r in (H, Fraction(1)):
        violations, checked = degree_floor_violations(T_monotone, r, 2, box=2)
        assert violations == []
        assert checked > 0


def test_translated_point_bound(T_monotone, T_cube, T_cp3, T_p12):
    bound, witness = translated_point_bound(T_monotone)
    assert bound == 2
    assert isinstance(witness, MinimalDegreeWitness)
    with pytest.raises(ToricHypothesisError, match="projective"):
        translated_point_bound(T_cp3)
    with pytest.raises(ToricHypothesisError, match="monotone"):
        translated_point_bound(T_p12)


def test_library_hypothesis_messages(T_cp3, T_p12):
    # the gate checks p primitive integral, then monotone, then not
    # projective space, and names the first of them an entry needs that fails
    quarter = toric_data(cp1xcp1((Fraction(1, 4),) * 4))  # p = (1/2, 1/2)
    entries = {
        "nullstellensatz_exponents": lambda T: nullstellensatz_exponents(T, H, 2),
        "bounding_modules": lambda T: bounding_modules(T, H, Fraction(-1, 4), Fraction(1, 4)),
        "degree_floor_violations": lambda T: degree_floor_violations(T, H, 2, box=1),
    }
    cases = [
        ("nullstellensatz_exponents", T_cp3, "projective-space type excluded"),
        ("nullstellensatz_exponents", T_p12, "not monotone"),
        ("nullstellensatz_exponents", quarter, "p is not primitive integral"),
        ("bounding_modules", T_p12, "not monotone"),
        ("bounding_modules", quarter, "p is not primitive integral"),
        ("degree_floor_violations", T_p12, "not monotone"),
        ("degree_floor_violations", quarter, "p is not primitive integral"),
    ]
    for name, T, reason in cases:
        with pytest.raises(ToricHypothesisError, match=f"^{reason}$"):
            entries[name](T)
    # projective space is monotone: the entries that skip the third check run on it
    assert isinstance(bounding_modules(T_cp3, H, Fraction(-1, 4), Fraction(1, 4)), BoundingData)
    assert degree_floor_violations(T_cp3, H, 2, box=1)[1] > 0


def test_translated_point_bound_cube(T_cube):
    bound, witness = translated_point_bound(T_cube)
    assert bound == 2
    assert isinstance(witness, MinimalDegreeWitness)


def test_witness_successor_certificates_are_verified(T_monotone, monkeypatch):
    import toricspec.minimal as minimal_mod

    witness = find_minimal_degree_element(T_monotone, H)
    km = kernel_K0(T_monotone, H, 2)
    assert sorted(witness.successor_certificates) == list(range(T_monotone.n))
    for i, cert in witness.successor_certificates.items():
        succ = tuple(x + (j == i) for j, x in enumerate(witness.monomial))
        assert minimal_mod.verify_certificate(Poly.monomial(succ), km, cert)
    with monkeypatch.context() as patch:
        patch.setattr(minimal_mod, "verify_certificate", lambda *a, **k: False)
        with pytest.raises(InconclusiveError, match="certificate failed re-verification"):
            find_minimal_degree_element(T_monotone, H)
    monkeypatch.setattr(minimal_mod, "membership_certified", lambda *a, **k: (False, None))
    with pytest.raises(InconclusiveError, match="successor failed re-check on the original module"):
        find_minimal_degree_element(T_monotone, H)
