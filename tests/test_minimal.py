import random
from fractions import Fraction

import pytest

from toricspec.laurent import (
    InconclusiveError,
    clear_caches,
    kernel_K0,
    kernel_membership,
    memo_counts,
    membership,
    novikov_shift,
    reduce_modulo,
    restrict,
)
from toricspec.minimal import (
    BoundingData,
    MinimalDegreeWitness,
    NoMinimalElement,
    bounding_modules,
    check_generator_degree_floor,
    degree_floor_violations,
    find_minimal_degree_element,
    min_degree_bound,
    monomial_ideal_member,
    nullstellensatz_exponents,
    translated_point_bound,
    _least_positive_degree,
    _polynomial_part_ideal,
)
from toricspec.polys import Poly
from toricspec.polytope import ToricHypothesisError

H = Fraction(1, 2)


def test_min_degree_bound_values():
    assert min_degree_bound(1, 2) == 2
    assert min_degree_bound(H, 2) == 1
    assert min_degree_bound(1, 4) == 4


def test_generator_degree_floor(T_monotone, T_cp3, T_cube):
    assert check_generator_degree_floor(T_monotone, H, 3)
    assert check_generator_degree_floor(T_cp3, Fraction(1), 3)
    assert check_generator_degree_floor(T_cube, H, 2)


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
        in_upper = kernel_membership(q, data.upper)
        in_lower = kernel_membership(q, data.lower)
        assert not in_upper or in_lower


def test_nullstellensatz_exponents_square(T_monotone):
    exps = nullstellensatz_exponents(T_monotone, H, 2)
    assert exps == (2, 2, 2, 2)


def test_nullstellensatz_high_degree_monomials_member(T_monotone):
    rng = random.Random(33)
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
        assert monomial_ideal_member(T_monotone, H, 2, parts)


def test_least_positive_degree_matches_the_full_scan():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = sorted({tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 12))},
                      key=lambda g: (sum(g), g))
        assert _least_positive_degree(gens) == min(sum(max(x, 0) for x in g) for g in gens)


def test_polynomial_part_degree_test_builds_no_basis(T_monotone):
    # below the least positive-part degree (2 here) a monomial is decided
    # without the basis; the basis, built afterwards, agrees
    km = kernel_K0(T_monotone, H, 2)
    below = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
    clear_caches()
    for q in below:
        assert not monomial_ideal_member(T_monotone, H, 2, q)
    assert "polynomial_part" not in memo_counts()
    for window in (2, 4):
        basis = _polynomial_part_ideal(km, window)
        for q in below:
            assert not reduce_modulo(Poly.monomial(q), basis, km.subspace).is_zero()


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
    assert w.restriction.is_scalar_multiple_of(target) is not None
    assert w.restriction.degree() == 1
    assert w.verify(km)


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
        shifted_module = novikov_shift(km.module, m)
        assert not membership(Poly.monomial(moved), shifted_module, km.subspace)
        for i in range(4):
            succ = tuple(x + (1 if j == i else 0) for j, x in enumerate(moved))
            assert membership(Poly.monomial(succ), shifted_module, km.subspace)


def test_witness_search_builds_one_basis_per_window(T_monotone):
    # the search asks the level module at translated monomials, and every
    # query is cleared at the generator floor: one Groebner basis for each of
    # the two windows the protocol compares, whatever the shift and the depth
    clear_caches()
    w = find_minimal_degree_element(T_monotone, Fraction(3))
    assert isinstance(w, MinimalDegreeWitness)
    assert memo_counts()["groebner"][1] == 2


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


def test_translated_point_bound_cube(T_cube):
    bound, witness = translated_point_bound(T_cube)
    assert bound == 2
    assert isinstance(witness, MinimalDegreeWitness)


def test_witness_successor_certificates_are_verified(T_monotone, monkeypatch):
    import toricspec.minimal as minimal_mod

    witness = find_minimal_degree_element(T_monotone, H)
    km = kernel_K0(T_monotone, H, 2)
    for i, cert in witness.successor_certificates.items():
        succ = tuple(x + (j == i) for j, x in enumerate(witness.monomial))
        assert minimal_mod.verify_certificate(
            Poly.monomial(succ), km.module, km.subspace, cert, window=witness.windows[i]
        )
    monkeypatch.setattr(minimal_mod, "verify_certificate", lambda *a, **k: False)
    with pytest.raises(InconclusiveError, match="certificate failed re-verification"):
        find_minimal_degree_element(T_monotone, H)
