import random
from fractions import Fraction

import pytest

from toricspec.laurent import (
    ZERO_RING,
    KernelModule,
    LinearSubspace,
    MonomialModule,
    kernel_K,
    kernel_K0,
    kernel_membership,
    membership,
    module_generators,
    novikov_shift,
    restrict,
    verify_certificate,
    _brute_verdict,
)
from toricspec.polys import Poly

H = Fraction(1, 2)


def U(*exps):
    return Poly.monomial(tuple(exps))


def k0_subspace(T):
    return kernel_K0(T, Fraction(0), 2).subspace


# --- restriction -------------------------------------------------------------


def test_restrict_monotone_square_product(T_monotone):
    sub = k0_subspace(T_monotone)
    r = restrict(U(1, 0, 1, 0), sub)  # u1*u3 -> w * (-w)
    assert r.numerator == Poly(1, {(2,): Fraction(-1)})
    assert r.denom_exps == (0, 0, 0, 0)
    assert r.render() == "-w1^2"


def test_restrict_constant_is_one(T_monotone, T_cube):
    for T in (T_monotone, T_cube):
        sub = k0_subspace(T)
        r = restrict(Poly.constant(T.n, 1), sub)
        assert r.numerator == Poly.constant(sub.dim, 1)
        assert r.degree() == 0


def test_restrict_cpn_is_zero_ring(T_cp2):
    sub = kernel_K0(T_cp2, Fraction(0), 2).subspace
    assert restrict(U(1, 0, 0), sub) is ZERO_RING
    assert sub.is_zero_ring()


def test_restrict_negative_exponents(T_monotone):
    sub = k0_subspace(T_monotone)
    r = restrict(U(-1, -1, -1, 4), sub)
    # w^-2 * (-w)^-1 * (-w)^4 = -w after cancellation
    assert r.is_scalar_multiple_of(restrict(U(1, 0, 0, 0), sub)) == Fraction(-1)
    assert U(-1, 0, 0, 0).render() == "u1^-1"
    assert repr(U(-1, -1, -1, 4)) == "u1^-1*u2^-1*u3^-1*u4^4"


def test_restrict_is_ring_homomorphism(T_monotone, T_cube):
    rng = random.Random(11)
    for T in (T_monotone, T_cube):
        sub = k0_subspace(T)
        for _ in range(15):
            q1 = Poly(
                T.n,
                {
                    tuple(rng.randint(-2, 2) for _ in range(T.n)): Fraction(rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 3))
                },
            )
            q2 = Poly(
                T.n,
                {
                    tuple(rng.randint(-2, 2) for _ in range(T.n)): Fraction(rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 3))
                },
            )
            assert restrict(q1 * q2, sub) == restrict(q1, sub) * restrict(q2, sub)


def test_restriction_preserves_monomial_degree(T_monotone, T_cube):
    rng = random.Random(13)
    for T in (T_monotone, T_cube):
        sub = k0_subspace(T)
        for _ in range(25):
            exps = tuple(rng.randint(-3, 3) for _ in range(T.n))
            r = restrict(U(*exps), sub)
            assert not r.is_zero()
            assert r.numerator.is_homogeneous()
            assert r.degree() == sum(exps)


# --- generator enumeration ----------------------------------------------------


def test_generators_cp2(T_cp2):
    gens = module_generators(T_cp2, Fraction(1), 3)
    assert gens == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]


def test_generators_monotone_square(T_monotone):
    gens = module_generators(T_monotone, H, 2)
    assert (1, 1, 0, 0) in gens
    assert (0, 0, 1, 1) in gens
    assert (2, 2, -1, -1) in gens
    for g in gens:
        m = (g[0], g[2])  # kappa coordinates recoverable from the block structure
        assert Fraction(m[0] + m[1]) >= H


def test_generators_no_threshold(T_cp2):
    gens = module_generators(T_cp2, None, 2)
    assert gens == sorted(((m,) * 3 for m in range(-2, 3)), key=lambda g: (sum(g), g))


# --- membership ----------------------------------------------------------------


def test_membership_monotone_square(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    assert not kernel_membership(U(1, 0, 0, 0), km)
    assert kernel_membership(U(1, 1, 0, 0), km)
    assert kernel_membership(U(0, 0, 1, 1), km)
    # restriction of u1*u2 is w^2, the minimal degree in the projected module
    assert not kernel_membership(Poly.constant(4, 1), km)


def test_membership_mixed_degree_polynomials(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    inside = U(1, 1, 0, 0) + U(2, 2, 0, 0)           # w^2 + w^4
    straddling = U(1, 0, 0, 0) + U(1, 1, 0, 0)       # w + w^2: low part escapes
    cancelling = U(1, 0, 0, 0) - U(0, 1, 0, 0)       # restricts to 0
    assert kernel_membership(inside, km)
    assert not kernel_membership(straddling, km)
    assert kernel_membership(cancelling, km)


def test_membership_nonmonotone_contains_one(T_p12):
    for nu in (Fraction(0), H, Fraction(1)):
        km = kernel_K0(T_p12, nu, 2)
        assert kernel_membership(Poly.constant(4, 1), km)


def test_membership_generators_always_members(T_monotone, T_cp2):
    for T, maker in ((T_monotone, kernel_K0), (T_cp2, kernel_K)):
        km = maker(T, H, 2)
        for g in km.module.generators():
            assert kernel_membership(Poly.monomial(g), km)


def test_membership_zero_ring_trivially_true(T_cp2):
    km = kernel_K0(T_cp2, H, 2)
    assert km.ring == "ZeroRing"
    assert kernel_membership(U(5, 0, 0), km)
    assert kernel_membership(Poly.constant(3, 1), km)


def test_kernel_tags(T_monotone, T_cp2, T_p12):
    assert kernel_K0(T_monotone, H, 2).ring == "R0"
    assert kernel_K(T_monotone, H, 2).ring == "R"
    assert kernel_K0(T_cp2, H, 2).ring == "ZeroRing"
    assert kernel_K0(T_p12, H, 2).ring == "R0"


def test_projected_module_is_degrees_at_least_two(T_monotone):
    # hand computation: the projection is span{w^d : d >= 2} inside Q[w, w^-1]
    km = kernel_K0(T_monotone, H, 2)
    for exps in [(1, 0, 0, 0), (0, 0, 0, 1), (-1, 2, 0, 0), (0, 0, 1, 0)]:
        assert not kernel_membership(U(*exps), km)
    for exps in [(2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 2, 0), (1, 1, 1, 1), (3, 0, -1, 0)]:
        assert kernel_membership(U(*exps), km)


def test_membership_backends_agree_on_random_queries(T_monotone, T_p12, T_cp2):
    rng = random.Random(2718)
    cases = [
        (T_monotone, kernel_K0),
        (T_p12, kernel_K0),
        (T_cp2, kernel_K),
    ]
    count = 0
    for T, maker in cases:
        for nu in (Fraction(0), H, Fraction(1)):
            km = maker(T, nu, 2)
            for _ in range(12):
                q = Poly(
                    T.n,
                    {
                        tuple(rng.randint(-3, 3) for _ in range(T.n)): Fraction(rng.randint(-4, 4))
                        for _ in range(rng.randint(1, 2))
                    },
                )
                kernel_membership(q, km)  # backend="both" raises on mismatch
                count += 1
    assert count >= 100


def test_brute_certificate_roundtrip(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    ok, cert = _brute_verdict(
        U(1, 1, 0, 0), km.module, km.subspace, 2, 8, want_certificate=True
    )
    assert ok and cert
    assert verify_certificate(U(1, 1, 0, 0), km.module, km.subspace, cert, window=2)


# --- shift action ---------------------------------------------------------------


def test_novikov_shift_identity(T_monotone):
    m0 = MonomialModule(toric=T_monotone, threshold=H, window=2)
    assert novikov_shift(m0, (0, 0)) == m0


def test_novikov_shift_bookkeeping(T_monotone):
    m0 = MonomialModule(toric=T_monotone, threshold=H, window=2)
    m1 = novikov_shift(m0, (1, 0))
    assert m1.threshold == H + 1
    assert m1.center == (1, 0)
    assert m1.degree_shift == 4  # 2 * c(m), c((1,0)) = 2
    gens0 = set(map(tuple, m0.generators()))
    gens1 = set(map(tuple, m1.generators()))
    shift = T_monotone.iota_apply((1, 0))
    assert gens1 == {tuple(a + b for a, b in zip(g, shift)) for g in gens0}


def test_novikov_equivariance(T_monotone):
    rng = random.Random(515)
    km = kernel_K0(T_monotone, H, 2)
    for _ in range(25):
        q = Poly(
            4,
            {
                tuple(rng.randint(-2, 2) for _ in range(4)): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(1, 2))
            },
        )
        m = tuple(rng.randint(-2, 2) for _ in range(2))
        before = membership(q, km.module, km.subspace)
        shifted = novikov_shift(km.module, m)
        moved = q.term_mul(T_monotone.iota_apply(m))
        after = membership(moved, shifted, km.subspace)
        assert before == after


def test_window_protocol_escalates_until_agreement(T_cube):
    from toricspec.laurent import _verdict_at_window

    # the witnessing lattice point sits outside the initial box, so the first
    # two windows disagree and the protocol must widen once more
    km = kernel_K0(T_cube, Fraction(7, 2), 2)
    q = Poly.monomial(T_cube.iota_apply((4, 0, 0)))
    assert _verdict_at_window(q, km.module, km.subspace, 2, "both", 8) is False
    assert _verdict_at_window(q, km.module, km.subspace, 4, "both", 8) is True
    assert membership(q, km.module, km.subspace) is True


def test_window_protocol_cap_raises(T_monotone, monkeypatch):
    import toricspec.laurent as laurent_mod

    flips = iter([False, True] * 20)
    monkeypatch.setattr(
        laurent_mod, "_verdict_at_window", lambda *a, **k: next(flips)
    )
    km = kernel_K0(T_monotone, H, 2)
    with pytest.raises(laurent_mod.InconclusiveError):
        laurent_mod.membership(U(1, 0, 0, 0), km.module, km.subspace)


def test_degree_grading_of_generators(T_monotone, T_cube):
    for T, r in ((T_monotone, H), (T_monotone, Fraction(1)), (T_cube, H)):
        gens = module_generators(T, r, 3)
        bound = r * T.min_chern
        for g in gens:
            assert Fraction(sum(g)) >= bound
