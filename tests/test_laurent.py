import random
import signal
from fractions import Fraction
from itertools import product
from math import comb, gcd
from pathlib import Path

import pytest

from toricspec.laurent import (
    ZERO_RING,
    KernelModule,
    LinearSubspace,
    MonomialModule,
    kernel_K,
    kernel_K0,
    membership,
    membership_certified,
    novikov_shift,
    restrict,
    restriction_class_key,
    restriction_groups,
    verify_certificate,
    _below_generator_degree,
    _cleared,
    _cleared_generators,
    _GradedSlice,
    _minimal_monomials,
    _Span,
    _verdict,
    decision_module,
)
from toricspec.groebner import _integral, buchberger, normal_form
from toricspec.memo import clear_caches, memo_counts, replace
from toricspec.oracle import DiagonalMap, class_set
from toricspec.polys import Poly
from toricspec.polytope import parse_polytope, toric_data, validate

from tests.reference import (
    _reference_normal_form,
    annihilator,
    reference_module_ideal,
    restriction_degree,
    at_window,
    stable_verdict,
    verdict_at_window,
)

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
        assert restriction_degree(r) == 0


def test_restrict_cpn_is_zero_ring(T_cp2):
    sub = kernel_K0(T_cp2, Fraction(0), 2).subspace
    assert restrict(U(1, 0, 0), sub) is ZERO_RING
    assert sub.is_zero_ring()


def test_restrict_negative_exponents(T_monotone):
    sub = k0_subspace(T_monotone)
    r = restrict(U(-1, -1, -1, 4), sub)
    # w^-2 * (-w)^-1 * (-w)^4 = -w after cancellation
    assert r.numerator == -restrict(U(1, 0, 0, 0), sub).numerator and r.denom_exps == (0, 0, 0, 0)
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
            r, r1, r2 = restrict(q1 * q2, sub), restrict(q1, sub), restrict(q2, sub)
            # r = r1 * r2 as functions on V: cross-multiply the denominators
            den = sub.form_product
            left = r.numerator * den(r1.denom_exps) * den(r2.denom_exps)
            assert left == r1.numerator * r2.numerator * den(r.denom_exps)


def test_restriction_preserves_monomial_degree(T_monotone, T_cube):
    rng = random.Random(13)
    for T in (T_monotone, T_cube):
        sub = k0_subspace(T)
        for _ in range(25):
            exps = tuple(rng.randint(-3, 3) for _ in range(T.n))
            r = restrict(U(*exps), sub)
            assert not r.numerator.is_zero()
            assert len(r.numerator.homogeneous_components()) == 1
            assert restriction_degree(r) == sum(exps)


# --- generator enumeration ----------------------------------------------------


def test_generators_cp2(T_cp2):
    gens = MonomialModule(T_cp2, Fraction(1), 3).generators()
    assert gens == ((1, 1, 1), (2, 2, 2), (3, 3, 3))


def test_generators_monotone_square(T_monotone):
    gens = MonomialModule(T_monotone, H, 2).generators()
    assert (1, 1, 0, 0) in gens
    assert (0, 0, 1, 1) in gens
    assert (2, 2, -1, -1) in gens
    for g in gens:
        m = (g[0], g[2])  # kappa coordinates recoverable from the block structure
        assert Fraction(m[0] + m[1]) >= H


def test_generators_no_threshold(T_cp2):
    gens = MonomialModule(T_cp2, None, 2).generators()
    assert gens == tuple((m,) * 3 for m in range(-2, 3))


# --- membership ----------------------------------------------------------------


def test_membership_monotone_square(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    assert not membership(U(1, 0, 0, 0), km)
    assert membership(U(1, 1, 0, 0), km)
    assert membership(U(0, 0, 1, 1), km)
    # restriction of u1*u2 is w^2, the minimal degree in the projected module
    assert not membership(Poly.constant(4, 1), km)


def test_membership_mixed_degree_polynomials(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    inside = U(1, 1, 0, 0) + U(2, 2, 0, 0)           # w^2 + w^4
    straddling = U(1, 0, 0, 0) + U(1, 1, 0, 0)       # w + w^2: low part escapes
    cancelling = U(1, 0, 0, 0) - U(0, 1, 0, 0)       # restricts to 0
    assert membership(inside, km)
    assert not membership(straddling, km)
    assert membership(cancelling, km)


def test_membership_nonmonotone_contains_one(T_p12):
    for nu in (Fraction(0), H, Fraction(1)):
        km = kernel_K0(T_p12, nu, 2)
        assert membership(Poly.constant(4, 1), km)


def test_membership_generators_always_members(T_monotone, T_cp2):
    for T, maker in ((T_monotone, kernel_K0), (T_cp2, kernel_K)):
        km = maker(T, H, 2)
        for g in km.module.generators():
            assert membership(Poly.monomial(g), km)


def test_membership_zero_ring_trivially_true(T_cp2):
    km = kernel_K0(T_cp2, H, 2)
    assert km.ring == "ZeroRing"
    assert membership(U(5, 0, 0), km)
    assert membership(Poly.constant(3, 1), km)


def test_kernel_tags(T_monotone, T_cp2, T_p12):
    assert kernel_K0(T_monotone, H, 2).ring == "R0"
    assert kernel_K(T_monotone, H, 2).ring == "R"
    assert kernel_K0(T_cp2, H, 2).ring == "ZeroRing"
    assert kernel_K0(T_p12, H, 2).ring == "R0"


def test_projected_module_is_degrees_at_least_two(T_monotone):
    # hand computation: the projection is span{w^d : d >= 2} inside Q[w, w^-1]
    km = kernel_K0(T_monotone, H, 2)
    for exps in [(1, 0, 0, 0), (0, 0, 0, 1), (-1, 2, 0, 0), (0, 0, 1, 0)]:
        assert not membership(U(*exps), km)
    for exps in [(2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 2, 0), (1, 1, 1, 1), (3, 0, -1, 0)]:
        assert membership(U(*exps), km)


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
                membership(q, km)  # backend="both" raises on mismatch
                count += 1
    assert count >= 100


def test_brute_certificate_roundtrip(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    ok, cert = _verdict(U(1, 1, 0, 0), decision_module(km), "brute", want_certificate=True)
    scale, relation = cert
    assert ok and type(scale) is int and scale > 0 and relation
    assert verify_certificate(U(1, 1, 0, 0), km, cert)


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
        before = membership(q, km)
        shifted = replace(km, module=novikov_shift(km.module, m))
        moved = q.term_mul(T_monotone.iota_apply(m))
        after = membership(moved, shifted)
        assert before == after


def test_window_protocol_escalates_until_agreement(T_cube):
    # the witnessing lattice point sits outside the initial box, so the first
    # two windows disagree and the protocol must widen once more
    km = kernel_K0(T_cube, Fraction(7, 2), 2)
    q = Poly.monomial(T_cube.iota_apply((4, 0, 0)))
    assert _verdict(q, km, "both") == (False, None)
    assert _verdict(q, at_window(km, 4), "both") == (True, None)
    assert membership(q, km) is True


def test_start_window_13_decides_where_the_loop_hit_the_cap(T_monotone, monkeypatch):
    # a query that is no member at W and a member from W + 2 on: from W = 13
    # the stability loop needs W + 4 = 17, past the cap, and raises; deciding
    # at W + 2 answers it.  The query has the least generator degree, 2, so
    # the degree test leaves it to `_verdict`
    import toricspec.laurent as laurent_mod

    km = kernel_K0(T_monotone, H, 2)
    for window in (13, 14):
        def verdict_at(w, start=window):
            return w >= start + 2

        monkeypatch.setattr(laurent_mod, "_verdict", lambda q, km, b, want_certificate=False: (verdict_at(km.module.window), None))
        with pytest.raises(laurent_mod.InconclusiveError, match="failed to stabilize below 16"):
            stable_verdict(verdict_at, window)
        assert laurent_mod.membership(U(1, 1, 0, 0), at_window(km, window)) is True


def test_window_protocol_rejects_start_window_before_evaluating(T_monotone, monkeypatch):
    import toricspec.laurent as laurent_mod

    def evaluated(q, km, *args, **kwargs):
        raise AssertionError(f"evaluated at window {km.module.window}")

    monkeypatch.setattr(laurent_mod, "_below_generator_degree", evaluated)
    monkeypatch.setattr(laurent_mod, "_verdict", evaluated)
    km = kernel_K0(T_monotone, H, 2)
    for window in (laurent_mod.WINDOW_CAP - 1, 40):
        wide = at_window(km, window)
        for decide in (laurent_mod.membership, laurent_mod.membership_certified):
            with pytest.raises(laurent_mod.InconclusiveError, match=f"start window {window} .* cap 16"):
                decide(U(1, 0, 0, 0), wide)
        with pytest.raises(laurent_mod.InconclusiveError, match=f"start window {window} .* cap 16"):
            laurent_mod.verify_certificate(U(1, 0, 0, 0), wide, (1, {}))


MONOTONE_SEQUENCES = ([False, False], [True, True], [False, True, True])


def _random_query(rng, n):
    if rng.random() < 0.5:
        return Poly.monomial(tuple(rng.randint(-3, 3) for _ in range(n)))
    return Poly(n, {tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(-3, 3) or 1
                    for _ in range(rng.randint(2, 3))})


@pytest.mark.parametrize("backend", ["groebner", "brute", "both"])
def test_membership_is_the_verdict_the_stability_loop_returns(T_monotone, T_p12, T_cp2, T_cp3, T_cube, backend):
    # the module at W lies inside the module at W + 2, so the loop sees only
    # FF, TT or FTT and returns the verdict at W + 2, the one window membership
    # decides at; the same holds without the degree test
    def without_degree_test(q, km, window, backend):
        return _verdict(q, at_window(km, window), backend)[0]

    rng = random.Random(1515)
    seen = {}
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for nu in (Fraction(0), H, Fraction(3, 2)):
                for window in (2,) if T.n > 4 else (2, 3, 4):
                    km = maker(T, nu, window)
                    for _ in range(6 if T.n > 4 else 12):
                        q = _random_query(rng, T.n)
                        for path in (verdict_at_window, without_degree_test):
                            verdicts = []

                            def verdict_at(w):
                                verdicts.append(path(q, km, w, backend))
                                return verdicts[-1]

                            reference, _ = stable_verdict(verdict_at, window)
                            assert verdicts in MONOTONE_SEQUENCES, (q, window, verdicts)
                            seen[tuple(verdicts)] = seen.get(tuple(verdicts), 0) + 1
                            if path is verdict_at_window:
                                assert membership(q, km, backend) == reference
                            else:
                                assert path(q, km, window + 2, backend) == reference
    assert len(seen) == 3 and seen[False, True, True] >= 10, seen


def test_membership_evaluates_one_window_and_builds_no_basis_at_the_start(T_monotone, T_cube, monkeypatch):
    import toricspec.laurent as laurent_mod
    from toricspec.memo import _MEMO

    asked = []
    inner = laurent_mod._verdict

    def recorded(q, km, backend, want_certificate=False):
        asked.append((km.module.window, backend))
        return inner(q, km, backend, want_certificate)

    monkeypatch.setattr(laurent_mod, "_verdict", recorded)
    for T in (T_monotone, T_cube):
        for window in (2, 3):
            km = kernel_K0(T, H, window)
            queries = _slice_queries(T)
            clear_caches()
            asked.clear()
            expected = []
            for q in queries:
                membership(q, km)
                if not _below_generator_degree(q, at_window(km, window + 2)):
                    expected.append((window + 2, "both"))
                membership_certified(q, km)
                # the certified pass is the brute backend alone: no second verdict
                expected.append((window + 2, "brute"))
            assert asked == expected
            # the cleared generators, their m^D test and any basis: only at W + 2
            built = {key.module.window for kind, key in _MEMO if kind in ("cleared_generators", "groebner")}
            assert built == {window + 2}
            assert {key.window for kind, key in _MEMO if kind == "generators"} == {window + 2}


def test_degree_grading_of_generators(T_monotone, T_cube):
    for T, r in ((T_monotone, H), (T_monotone, Fraction(1)), (T_cube, H)):
        gens = MonomialModule(T, r, 3).generators()
        bound = r * T.min_chern
        for g in gens:
            assert Fraction(sum(g)) >= bound


# --- the memo and the coefficient-tracking span ------------------------------------


def _direct_generators(module, window):
    """The window box tested with Fraction values of p, mapped through iota."""
    toric = module.toric
    gens = []
    for m in product(*(range(c - window, c + window + 1) for c in module.center)):
        level = sum((Fraction(p) * x for p, x in zip(toric.p, m)), Fraction(0))
        if module.threshold is None or level >= module.threshold:
            gens.append(tuple(sum(a * b for a, b in zip(row, m)) for row in toric.iota))
    return tuple(sorted(gens, key=lambda g: (sum(g), g)))


def test_integer_generators_match_fraction_enumeration(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    checked = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for threshold in (None, Fraction(1), Fraction(-2), H, Fraction(-2, 3), Fraction(5, 3)):
            base = MonomialModule(toric=T, threshold=threshold, window=1)
            shifts = [(0,) * T.k, (1,) + (0,) * (T.k - 1), tuple((-1) ** i * (i + 2) for i in range(T.k))]
            for m in shifts:
                module = novikov_shift(base, m)
                for window in (1, 2, 3, 4):
                    assert replace(module, window=window).generators() == _direct_generators(module, window)
                    checked += 1
    assert checked == 5 * 6 * 3 * 4


def _rebased(T, U):
    """T in the kappa basis changed by the unimodular U (m = U m'): the same
    lattice, with weights p U, which may be negative or zero."""
    k = range(T.k)
    return replace(
        T,
        iota=tuple(tuple(sum(row[i] * U[i][j] for i in k) for j in k) for row in T.iota),
        p=tuple(sum(T.p[i] * U[i][j] for i in k) for j in k),
    )


def test_generators_match_the_box_filter(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # wide windows and levels far from the center, where the solved range of
    # the last coordinate is cut at either end of the window or is empty, and
    # kappa bases in which the last weight is negative or zero
    shear = ((1, -2), (0, 1))
    rebased = [_rebased(T_monotone, shear), _rebased(T_p12, shear), _rebased(T_cp2, ((-1,),)),
               _rebased(T_cube, ((1, 0, -2), (0, 1, 0), (0, 0, 1)))]
    assert sorted(T.p[-1] for T in rebased) == [-1, -1, -1, 0]
    checked = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube, *rebased):
        for threshold in (None, H, Fraction(-7, 3), Fraction(9, 2)):
            base = MonomialModule(toric=T, threshold=threshold, window=2)
            for m in ((0,) * T.k, tuple((-1) ** i * (i + 2) for i in range(T.k))):
                module = novikov_shift(base, m)
                for window in (2, 4, 6):
                    assert replace(module, window=window).generators() == _direct_generators(module, window)
                    checked += 1
    assert checked == 9 * 4 * 2 * 3


def test_window_box_over_the_limit_raises_before_enumerating(T_monotone, T_cube, monkeypatch):
    import toricspec.laurent as laurent_mod

    def timeout(signum, frame):
        raise TimeoutError("the window box was enumerated")

    # every window the protocol reaches on a kernel of rank 4 stays below the limit
    assert (2 * laurent_mod.WINDOW_CAP + 1) ** 4 <= laurent_mod.BOX_LIMIT
    clear_caches()
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(laurent_mod.InconclusiveError) as exc:
            MonomialModule(toric=T_monotone, threshold=H, window=100_000).generators()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == "window 100000 box has 40000400001 points, above the limit 2000000"
    # the limit counts the whole box: the cube's 5^3 = 125 points at W = 2,
    # of which only those above the level are generators
    monkeypatch.setattr(laurent_mod, "BOX_LIMIT", 124)
    cube = MonomialModule(toric=T_cube, threshold=H, window=2)
    with pytest.raises(laurent_mod.InconclusiveError, match="window 2 box has 125 points"):
        cube.generators()
    assert len(replace(cube, window=1).generators()) == len(_direct_generators(cube, 1)) > 0
    monkeypatch.setattr(laurent_mod, "BOX_LIMIT", 125)
    assert cube.generators() == _direct_generators(cube, 2)


def test_query_over_the_limit_raises_before_restricting(T_monotone, T_cube, monkeypatch):
    import toricspec.laurent as laurent_mod

    def timeout(signum, frame):
        raise TimeoutError("the query was restricted")

    # K of the square has k = 2 coordinates: u1^E at cleared degree D has
    # D + 1 monomials; on K0, one coordinate, the same query is answered
    km = kernel_K(T_monotone, H, 2)
    floor = laurent_mod._cleared_generators(decision_module(km))[2]
    big = U(10**8, 0, 0, 0)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for decide in (membership, membership_certified):
            with pytest.raises(laurent_mod.InconclusiveError) as exc:
                decide(big, km)
            degree = 10**8 + sum(floor)
            assert str(exc.value) == f"cleared query degree {degree} has more than 100000 monomials in 2 coordinates"
        line = kernel_K0(T_monotone, H, 2)
        assert membership(big, line)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the limit counts C(D + k - 1, k - 1): the cube's K0 subspace has k = 2
    # coordinates, so a query cleared at degree D reaches D + 1 monomials
    cube = kernel_K0(T_cube, H, 2)
    exps = (-1, 3, 1, 0, 1, 3)
    q = U(*exps)
    floor = laurent_mod._cleared_generators(decision_module(cube))[2]
    count = sum(exps) + sum(max(t, -e) for t, e in zip(floor, exps)) + 1
    monkeypatch.setattr(laurent_mod, "QUERY_LIMIT", count - 1)
    with pytest.raises(laurent_mod.InconclusiveError, match=f"more than {count - 1} monomials in 2 coordinates"):
        membership(q, cube)
    monkeypatch.setattr(laurent_mod, "QUERY_LIMIT", count)
    assert membership(q, cube) == membership(q, cube, "brute")


def test_cleared_generators_over_the_limit_raise_before_restricting(T_cube, T_p12, monkeypatch):
    import toricspec.laurent as laurent_mod
    from toricspec.memo import _MEMO

    def timeout(signum, frame):
        raise TimeoutError("the cleared generators were restricted")

    def restricted(self, exps):
        raise AssertionError("a generator was restricted")

    # the limit counts C(D + k - 1, k - 1) at the cleared degree D of the
    # generators of least degree at the decision window, read before anything
    # is restricted: the cube's K subspace has k = 3 coordinates; a generator
    # of the least degree is the query
    km = kernel_K(T_cube, H, 2)
    gens = decision_module(km).module.generators()
    floor = tuple(max(0, -min(g[i] for g in gens)) for i in range(T_cube.n))
    degree = sum(gens[0]) + sum(floor)
    count = comb(degree + 2, 2)
    q = U(*gens[0])
    hexagonxcp1 = Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "hexagonxcp1.poly"
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(laurent_mod, "QUERY_LIMIT", count - 1)
            patch.setattr(LinearSubspace, "form_product", restricted)
            clear_caches()
            for decide in (membership, membership_certified):
                with pytest.raises(laurent_mod.InconclusiveError) as exc:
                    decide(q, km)
                assert str(exc.value) == f"cleared generator degree {degree} has more than {count - 1} monomials in 3 coordinates"
            assert memo_counts()["cleared_generators"] == (0, 2)  # a raising build stores nothing
            assert not any(kind == "cleared_generators" for kind, _ in _MEMO)
        with monkeypatch.context() as patch:
            patch.setattr(laurent_mod, "QUERY_LIMIT", count)
            assert membership(q, km) and membership_certified(q, km)[0]
        # the K ring of the square with offsets (1/2, 1/2, 1, 1) (k = 2) is no
        # m^D: 2 generators of least cleared degree 8, too few for the 9
        # monomials of that degree, so none is restricted for the rank test,
        # and its minimal generators reach degree 14, 15 monomials: with the
        # limit at 14 the largest degree is refused, still before any
        # generator is restricted
        p12 = kernel_K(T_p12, H, 2)
        with monkeypatch.context() as patch:
            patch.setattr(laurent_mod, "QUERY_LIMIT", 14)
            patch.setattr(LinearSubspace, "form_product", restricted)
            with pytest.raises(laurent_mod.InconclusiveError) as exc:
                membership(U(*(x + 1 for x in decision_module(p12).module.generators()[0])), p12)
            assert str(exc.value) == "cleared generator degree 14 has more than 14 monomials in 2 coordinates"
        # the same K ring's 5 minimal generators reach 57 monomials of their
        # cleared degrees in all (9 + 9 + 11 + 13 + 15): with the restriction
        # limit one below, that sum is refused, still before any generator is
        # restricted
        with monkeypatch.context() as patch:
            patch.setattr(laurent_mod, "RESTRICTION_LIMIT", 56)
            patch.setattr(LinearSubspace, "form_product", restricted)
            clear_caches()
            with pytest.raises(laurent_mod.InconclusiveError) as exc:
                membership(U(*(x + 1 for x in decision_module(p12).module.generators()[0])), p12)
            assert str(exc.value) == "5 cleared generators have 57 monomials of their degrees in 2 coordinates, above the limit 56"
        with monkeypatch.context() as patch:
            patch.setattr(laurent_mod, "RESTRICTION_LIMIT", 57)
            clear_caches()
            assert len(laurent_mod._cleared_generators(decision_module(p12))[1]) == 5
        # the K ring of hexagon x CP^1 (k = 5) clears its generators of least
        # degree to 49 at the decision window, C(53, 4) = 292,825 monomials:
        # refused at once
        hexagon = toric_data(parse_polytope(hexagonxcp1.read_text()))
        big = kernel_K(hexagon, H, 2)
        with pytest.raises(laurent_mod.InconclusiveError) as exc:
            membership(U(1, *(0,) * 7), big)
        assert str(exc.value) == "cleared generator degree 49 has more than 100000 monomials in 5 coordinates"
        # its K0 ring at nu = 0 (k = 4) passes both degree checks (48 and 49)
        # but not the rank test's count (2,361 generators of least degree for
        # C(51, 3) = 20,825 monomials); its 4,661 minimal generators reach
        # 99,997,825 monomials of their degrees in all: refused before any is
        # restricted
        with monkeypatch.context() as patch:
            patch.setattr(LinearSubspace, "form_product", restricted)
            with pytest.raises(laurent_mod.InconclusiveError) as exc:
                membership(U(1, *(0,) * 7), kernel_K0(hexagon, Fraction(0), 2))
        assert str(exc.value) == (
            "4661 cleared generators have 99997825 monomials of their degrees in 4 coordinates, above the limit 20000000"
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_memo_clear_caches_and_counts(T_monotone):
    from toricspec.memo import _MEMO

    km = kernel_K0(T_monotone, H, 2)
    ring_k = kernel_K(T_monotone, H, 2)
    queries = [U(1, 0, 0, 0), U(1, 1, 0, 0), U(0, 0, 1, 1), U(-1, 0, 2, 1), U(2, -1, 0, 0)]
    dmap = DiagonalMap(mu=(H, 0, Fraction(1, 3), 0))
    clear_caches()
    assert memo_counts() == {}
    # the K0 module is m^14: untracked queries build no graded slice and no
    # Groebner basis, and a certified one builds the tracked slices; the K
    # ring is no m^D, and its queries build both
    first = [membership(q, m) for m in (km, ring_k) for q in queries]
    certified = membership_certified(queries[1], km)
    classes = [restriction_class_key(km.subspace, next(iter(q.terms))) for q in queries]
    T = toric_data(T_monotone.polytope)
    spectrum = class_set(T, dmap)
    built = memo_counts()
    kinds = ("decision_module", "generators", "groebner", "cleared_generators", "graded_slice",
             "restriction_groups", "toric_data", "vertex_minor", "validation")
    for kind in kinds:
        assert built[kind][1] > 0, kind
    # one cleared-generator build, with its m^D test, per decided module
    assert built["cleared_generators"][1] == 2
    assert [key for kind, key in _MEMO if kind == "groebner"] == [decision_module(ring_k)]
    again = [membership(q, m) for m in (km, ring_k) for q in queries]
    assert again == first
    assert membership_certified(queries[1], km) == certified
    assert [restriction_class_key(km.subspace, next(iter(q.terms))) for q in queries] == classes
    assert toric_data(T_monotone.polytope) is T
    assert validate(T_monotone.polytope).vertex_facets == T.vertex_facets
    assert class_set(T, dmap) == spectrum
    decision_module(km).module.generators()
    counts = memo_counts()
    for kind in kinds:
        assert counts[kind][0] > built[kind][0], kind   # every kind answered from the memo
        assert counts[kind][1] == built[kind][1], kind  # and nothing was rebuilt
    clear_caches()
    assert memo_counts() == {}
    assert [membership(q, m) for m in (km, ring_k) for q in queries] == first
    assert memo_counts()["groebner"][1] == built["groebner"][1]


def test_one_membership_keys_every_entry_by_the_module_at_its_decision_window(T_cube, T_monotone):
    # the kernel module at window W + 2 is built once and is the memo key
    # itself: the cleared generators with the m^D fact and the Groebner
    # basis sit under it, each graded slice under (it, degree, tracking); the
    # module is m^38, so only the certified query builds slices, and no
    # query builds a basis
    from toricspec.memo import _MEMO

    km = kernel_K0(T_cube, H, 4)
    clear_caches()
    assert membership(U(-1, 3, 1, 0, 1, 3), km)
    assert not any(kind == "graded_slice" for kind, _ in _MEMO)
    assert membership_certified(U(-1, 3, 1, 0, 1, 3), km)[0]
    decided = decision_module(km)
    assert decided is decision_module(km) and decided == at_window(km, 6) and decided.module.window == 6
    assert [key for kind, key in _MEMO if kind == "decision_module"] == [km]
    kinds = ("cleared_generators", "groebner", "graded_slice")
    keys = {kind: [key for k, key in _MEMO if k == kind] for kind in kinds}
    assert keys["cleared_generators"] == [decided] and keys["cleared_generators"][0] is decided
    assert _cleared_generators(decided)[3] == 38 and keys["groebner"] == []
    assert keys["graded_slice"] and all(key[0] is decided and key[2] for key in keys["graded_slice"])
    assert [key for kind, key in _MEMO if kind == "generators"] == [decided.module]
    gens = decided.module.generators()
    assert type(gens) is tuple and decided.module.generators() is gens
    assert replace(km.module, window=6).generators() is gens
    # the square's K ring is no m^D: its basis sits under its decided module
    ring_k = kernel_K(T_monotone, H, 2)
    other = decision_module(ring_k)
    assert membership(U(*other.module.generators()[0]), ring_k)
    assert _cleared_generators(other)[3] is None
    assert [key for k, key in _MEMO if k == "groebner"] == [other]
    assert all(key is other for k, key in _MEMO if k in ("cleared_generators", "groebner") and key == other)


def test_a_query_in_another_variable_count_is_refused(T_monotone):
    # the square's K0 module has n = 4: a query in 1 or 6 variables is refused
    # where it enters, before the degree test and before anything is built
    km = kernel_K0(T_monotone, H, 2)
    queries = [Poly.monomial((0,)), Poly.monomial((5,)), Poly.monomial((0,) * 6), Poly.monomial((1,) * 6)]
    clear_caches()
    for q in queries:
        entries = [lambda b=backend: membership(q, km, b) for backend in ("groebner", "brute", "both")]
        entries += [lambda: membership_certified(q, km), lambda: verify_certificate(q, km, (1, {}))]
        for entry in entries:
            with pytest.raises(ValueError) as exc:
                entry()
            assert str(exc.value) == f"variable count mismatch: query {q.nvars}, module 4"
    assert memo_counts() == {}


def test_one_query_builds_the_minimal_generators_once_per_window(T_cube, monkeypatch):
    # both backends read the generators of a module at its window from its
    # one cleared-generators entry; a query at the generator degree (2 here)
    # is decided at W + 2 = 4 alone.  The cube's K0 module is m^26 there: the
    # entry holds its 60 generators of least degree, and the minimal ones are
    # never computed; its K ring is no m^D, and its entry holds the minimal
    # generators, computed once
    import toricspec.laurent as laurent

    built = []
    minimal = laurent._minimal_monomials

    def counted(exps_list):
        built.append(len(exps_list))
        return minimal(exps_list)

    monkeypatch.setattr(laurent, "_minimal_monomials", counted)
    km, ring_k = kernel_K0(T_cube, H, 2), kernel_K(T_cube, H, 2)
    clear_caches()
    for backend in ("groebner", "brute", "both"):
        membership(U(1, 1, 0, 0, 0, 0), km, backend=backend)
    gens = decision_module(km).module.generators()
    least = [g for g in gens if sum(g) == sum(gens[0])]
    assert built == [] and list(_cleared_generators(decision_module(km))[0]) == least and len(least) == 60
    for backend in ("groebner", "brute", "both"):
        membership(U(1, 1, 0, 0, 0, 0), ring_k, backend=backend)
    assert built == [len(gens)] and _cleared_generators(decision_module(ring_k))[0] == minimal(gens)
    assert memo_counts()["cleared_generators"][1] == 2


def test_backends_reject_every_monomial_below_the_generator_degree(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the degree test decides these queries before either backend; `_verdict`
    # under each backend choice (the m^D decision on an m^D module), asked
    # directly, must reach the same verdict on its own
    checked = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        box = range(-1, 2) if T.n > 4 else range(-2, 3)
        for maker in (kernel_K, kernel_K0):
            for window in (2, 4):
                km = maker(T, H, window)
                if km.subspace.is_zero_ring():
                    continue
                least = sum(km.module.generators()[0])
                for e in product(box, repeat=T.n):
                    if sum(e) >= least:
                        continue
                    q = Poly.monomial(e)
                    assert _below_generator_degree(q, km)
                    assert not _verdict(q, km, "groebner")[0], (e, window)
                    assert not _verdict(q, km, "brute")[0], (e, window)
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("backend", ["groebner", "brute", "both"])
def test_degree_test_builds_no_image_floor_basis_or_slice(T_cube, backend):
    km = kernel_K0(T_cube, H, 2)
    clear_caches()
    assert not membership(U(1, 0, 0, 0, 0, 0), km, backend=backend)
    assert not membership(U(-2, 0, 1, 0, 0, 0), km, backend=backend)
    assert set(memo_counts()) == {"decision_module", "generators"}


def test_degree_test_needs_one_term_and_a_nonzero_ring(T_monotone, T_cp2):
    km = kernel_K0(T_monotone, H, 2)
    least = sum(km.module.generators()[0])
    low = (least - 1, 0, 0, 0)
    assert _below_generator_degree(Poly.monomial(low), km)
    assert not _below_generator_degree(Poly.monomial((least, 0, 0, 0)), km)
    assert not _below_generator_degree(Poly(4, {low: 1, (0, least - 1, 0, 0): 1}), km)
    assert not _below_generator_degree(Poly.zero(4), km)
    zero_ring = kernel_K0(T_cp2, H, 2)
    assert zero_ring.subspace.is_zero_ring()
    assert not _below_generator_degree(Poly.monomial((-5, 0, 0)), zero_ring)
    assert membership(Poly.monomial((-5, 0, 0)), zero_ring)


def _reference_minimal_monomials(exps_list):
    """The quadratic scan the bitset version replaced."""
    out = []
    for e in sorted(exps_list, key=lambda g: (sum(g), g)):
        if not any(all(a >= b for a, b in zip(e, f)) for f in out):
            out.append(e)
    return out


def test_minimal_monomials_match_the_quadratic_scan(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    checked = repeats = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for window in (2, 4):
                gens = maker(T, H, window).module.generators()
                positive = [tuple(max(x, 0) for x in g) for g in gens]
                repeats += len(set(positive)) < len(positive)
                for exps in (gens, positive):
                    assert _minimal_monomials(exps) == _reference_minimal_monomials(exps)
                    checked += 1
    assert repeats > 0
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 5)
        exps = [tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(rng.randint(0, 40))]
        exps += rng.sample(exps, len(exps) // 3)
        assert _minimal_monomials(exps) == _reference_minimal_monomials(exps)
        checked += 1
    assert checked == 5 * 2 * 2 * 2 + 200


def test_tracked_span_certificates_round_trip(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    rng = random.Random(3)
    nonempty = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        km = kernel_K0(T, H, 2)
        gens = km.module.generators()
        picks = rng.sample(gens, min(3, len(gens)))
        members = [Poly.monomial(g) for g in picks]
        # a coordinate multiple and a rational combination of generators are members too
        members.append(Poly.monomial(tuple(x + (i == 0) for i, x in enumerate(picks[0]))))
        members.append(Poly.monomial(picks[0], Fraction(2, 3)) - Poly.monomial(picks[-1], 5))
        for q in members:
            ok, cert = membership_certified(q, km)
            assert ok
            if km.ring == "ZeroRing":
                assert cert == (1, {})
            assert verify_certificate(q, km, cert)
            nonempty += bool(cert[1])
    assert nonempty >= 10


def test_tracked_span_agrees_with_verdict_and_rejects_forgeries(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    for exps in ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (2, 1, -1, 0), (0, 1, 0, 0)):
        q = U(*exps)
        plain = _verdict(q, km, "brute")
        tracked = _verdict(q, km, "brute", want_certificate=True)
        assert plain[0] == tracked[0]
        assert (tracked[1] is None) == (not tracked[0])
    decided = decision_module(km)
    ok, (scale, relation) = _verdict(U(1, 1, 0, 0), decided, "brute", want_certificate=True)
    assert ok and verify_certificate(U(1, 1, 0, 0), km, (scale, relation))
    label, c = next(iter(relation.items()))
    forged = (scale, {**relation, label: 2 * c})
    assert not verify_certificate(U(1, 1, 0, 0), km, forged)


def test_verify_certificate_rejects_forgeries(T_monotone):
    km = kernel_K0(T_monotone, H, 2)
    q = U(3, 0, 0, 1)
    ok, (scale, relation) = membership_certified(q, km)
    assert ok and verify_certificate(q, km, (scale, relation))
    (g, a), c = next(iter(relation.items()))
    rest = {lab: v for lab, v in relation.items() if lab != (g, a)}
    zero = (0,) * T_monotone.n
    gens = decision_module(km).module.generators()
    assert not any(all(x >= y for x, y in zip(zero, h)) for h in gens)
    forgeries = [
        (0, {}),  # 0 * q = 0 holds for every q
        (-scale, {lab: -v for lab, v in relation.items()}),  # the scale must be positive
        (2 * scale, relation),
        (scale, {**relation, (g, a): c + 1}),
        (scale, {**rest, (zero, a): c}),  # u^0 lies above no window generator
        (scale, {**rest, (g, (a[0] + 1,)): c}),  # the same label one degree up
    ]
    for forged in forgeries:
        assert not verify_certificate(q, km, forged), forged
    # the square's K0 subspace is a line, so the cleared restriction e * w^d of
    # the constant, a non-member, is matched exactly by a label with no u
    # exponents, or by a generator times a negative power of w: only the label
    # checks reject these
    floor = tuple(max(0, -min(h[i] for h in gens)) for i in range(T_monotone.n))
    ((d,), e), = km.subspace.form_product(floor).terms.items()
    ((m,), f), = km.subspace.form_product(tuple(x + t for x, t in zip(g, floor))).terms.items()
    one = Poly.constant(T_monotone.n, 1)
    assert not membership(one, km) and f in (1, -1) and m > d
    for forged in ((1, {((), (d,)): e}), (1, {(g, (d - m,)): e * f})):
        assert not verify_certificate(one, km, forged), forged


def test_certifying_a_member_takes_one_tracked_brute_pass(T_monotone, T_cube, monkeypatch):
    # no second verdict: one brute `_verdict` call, no Groebner basis built,
    # the degree test not asked, and every slice it grows is a tracked one at
    # W + 2
    import toricspec.laurent as laurent_mod
    from toricspec.memo import _MEMO

    calls = []
    inner = laurent_mod._verdict

    def recorded(q, km, backend, want_certificate=False):
        calls.append((km.module.window, backend, want_certificate))
        return inner(q, km, backend, want_certificate)

    def asked(*args):
        raise AssertionError("a verdict pass ran")

    monkeypatch.setattr(laurent_mod, "_verdict", recorded)
    monkeypatch.setattr(laurent_mod, "_below_generator_degree", asked)
    monkeypatch.setattr(laurent_mod, "_groebner_member", asked)
    for T in (T_monotone, T_cube):
        for window in (2, 3):
            km = kernel_K0(T, H, window)
            q = U(*(x + 1 for x in km.module.generators()[-1]))
            clear_caches()
            calls.clear()
            ok, cert = membership_certified(q, km)
            assert calls == [(window + 2, "brute", True)]
            assert ok and verify_certificate(q, km, cert)
            assert not any(kind == "groebner" for kind, _ in _MEMO)
            slices = [key for kind, key in _MEMO if kind == "graded_slice"]
            assert slices and all(key[0].module.window == window + 2 and key[2] for key in slices)


# --- the graded slices of the brute backend --------------------------------------


def _read_toric(name):
    path = Path(__file__).resolve().parent.parent / "polytopes" / name
    return toric_data(parse_polytope(path.read_text()))


@pytest.mark.parametrize(
    "name, maker, nu",
    [
        ("cp1xcp1_monotone.poly", kernel_K0, H),
        ("hirzebruch_monotone.poly", kernel_K0, Fraction(0)),
        ("cp2.poly", kernel_K, Fraction(1, 3)),
    ],
)
def test_backends_agree_at_one_window(name, maker, nu):
    # every exponent in {0, 3, ..., 12}: the high-degree queries need
    # multipliers of every degree, not only small ones
    T = _read_toric(name)
    km = maker(T, nu, 2)
    members = 0
    for exps in product(range(0, 13, 3), repeat=T.n):
        q = U(*exps)
        gb = _verdict(q, km, "groebner")[0]
        assert _verdict(q, km, "brute")[0] == gb, exps
        members += gb
    assert members > 0


def test_deep_queries_match_a_basis_cleared_at_their_own_depth(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the Groebner route clears every query at the generator floor and divides
    # a deeper one exactly; the reference asks, by definition, whether
    # q * u^depth lies in the ideal of Q[u] of the u^(g + depth) and the
    # relation forms, at the query's own depth max(floor, -min q); a
    # generator plus a relation form over u1^6 is a deep member
    rng = random.Random(11)
    verdicts = set()
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            km = maker(T, H, 2)
            gens = km.module.generators()
            floor = tuple(max(0, -min(g[i] for g in gens)) for i in range(T.n))
            reference = {}
            deep = tuple(-6 * (i == 0) for i in range(T.n))
            relation = Poly.linear_form(annihilator(km.subspace)[0]).term_mul(deep)
            queries = [U(*(rng.randint(-6, 3) for _ in range(T.n))) for _ in range(4)]
            queries += [U(*gens[0]) * U(*deep), U(*gens[-1]) + relation]
            for q in queries:
                depth = tuple(max(t, -m) for t, m in zip(floor, q.min_exponents()))
                if depth not in reference:
                    reference[depth] = reference_module_ideal(gens, depth, km.subspace)
                want = _reference_normal_form(q.term_mul(depth), reference[depth]).is_zero()
                assert _verdict(q, km, "groebner")[0] == want, (T.n, maker, q)
                if km.ring != "ZeroRing":
                    verdicts.add((want, depth != floor))
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


def test_monomial_verdict_on_an_m_d_module_is_the_cleared_degree(T_monotone, T_p12, T_cp2, T_cp3, T_cube,
                                                                  monkeypatch):
    # on every conftest m^D module (K/K0 at W = 2 and 4), a monomial query is
    # decided from integer exponent sums, with nothing restricted: the
    # verdict must be "the cleared restriction exists and every term has
    # degree at least D".  The seeded queries reach below -T (the query is
    # cleared deeper than the floor) and, on the cube's K0 modules (three
    # restriction directions), put a negative group sum of e + T beside a
    # total |e + T| >= D, so the degree alone would answer them wrongly
    import toricspec.laurent as laurent_mod

    cleared_calls = []
    clear = laurent_mod._cleared

    def counted(q, floor, subspace):
        cleared_calls.append(q)
        return clear(q, floor, subspace)

    rng = random.Random(43)
    modules = deep = split = 0
    verdicts = set()
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for window in (2, 4):
                km = maker(T, H, window)
                if km.ring == ZERO_RING:
                    continue
                decided = decision_module(km)
                _, _, floor, power = _cleared_generators(decided)
                if power is None:
                    continue
                groups, count = restriction_groups(decided.subspace)
                queries = [tuple(rng.randint(-t - 3, 4) for t in floor) for _ in range(40)]
                # e + T with group sums (s_1, .., s_count), one of them
                # negative, the total at least D
                for _ in range(20 if count > 1 else 0):
                    low = rng.randrange(count)
                    sums = [-rng.randint(1, 3) if j == low else 0 for j in range(count)]
                    sums[(low + 1) % count] = power + rng.randint(3, 6)
                    shifted = [0] * T.n
                    for j, s in enumerate(sums):
                        members = [i for i in range(T.n) if groups[i] == j]
                        parts = [rng.randint(-2, 2) for _ in members[1:]]
                        for i, x in zip(members, [s - sum(parts)] + parts):
                            shifted[i] = x
                    queries.append(tuple(x - t for x, t in zip(shifted, floor)))
                for e in queries:
                    q = U(*e)
                    cleared = clear(q, floor, decided.subspace)
                    want = cleared is not None and all(sum(t) >= power for t in cleared.terms)
                    with monkeypatch.context() as patch:
                        patch.setattr(laurent_mod, "_cleared", counted)
                        for backend in ("groebner", "brute", "both"):
                            assert _verdict(q, decided, backend) == (want, None), (T.n, maker, window, e)
                    assert cleared_calls == []
                    verdicts.add(want)
                    deep += any(x < -t for x, t in zip(e, floor))
                    key = restriction_class_key(decided.subspace, tuple(x + t for x, t in zip(e, floor)))
                    split += min(key) < 0 and sum(key) >= power
                modules += 1
    assert modules == 10 and verdicts == {True, False} and deep >= 100 and split >= 40


def _reference_cleared(km):
    """(minimal generators, their cleared restrictions, floor, D) built here,
    outside the memo, the way the full build did: every minimal generator is
    restricted, and D is their least cleared degree when the exact rank of
    that degree's block (the span's pivot count) is the number of monomials
    of the degree, else None."""
    gens = _minimal_monomials(km.module.generators())
    floor = tuple(max(0, -min(column)) for column in zip(*gens))
    cleared = [km.subspace.form_product(tuple(a + t for a, t in zip(g, floor))) for g in gens]
    least = min(g.total_degree() for g in cleared)
    span = _Span()
    rank = sum(span.add(g.terms) for g in cleared if g.total_degree() == least)
    full = rank == comb(least + km.subspace.dim - 1, km.subspace.dim - 1)
    return gens, cleared, floor, least if full else None


def _exact_slice_verdict(q, reference, km):
    """Membership by fresh exact graded slices of every component of the
    cleared query over every minimal generator, outside the memo: the path
    the m^D decision skips."""
    gens, cleared_gens, floor, _ = reference
    cleared = _cleared(q, floor, km.subspace)
    return cleared is not None and not any(
        _GradedSlice(gens, cleared_gens, degree, km.subspace.dim, False).residual(component.terms)[0]
        for degree, component in cleared.homogeneous_components().items()
    )


def test_m_d_shortcut_matches_the_exact_slices(T_monotone, T_p12, T_cp2, T_cp3, T_cube, monkeypatch):
    # every conftest K/K0 module at W = 2 and 4, the cube's K0 at W = 4 (m^38
    # at window 6) among them: the cleared-generator build reads the
    # generators of least degree and restricts them only as the rank test
    # pulls rows, and its D must be the full build's, over the restrictions
    # of every minimal generator (`_reference_cleared`); the minimal
    # generators are computed only on a module that is not m^D.  On an m^D
    # module the verdict without a certificate is the degree comparison of
    # `_verdict`, and neither backend runs; on every module the verdict must
    # still be that of exact slices over every minimal generator, of the
    # tracked (certificate) pass, of each backend and of a zero `normal_form`
    # under a full `buchberger` of every cleared minimal generator, on seeded
    # monomials and on polynomials with Fraction coefficients mixing a
    # component below D with ones at or above it.  The rank test runs once
    # per module, in the cleared-generator build, and a basis is built only
    # on a module that is not m^D.
    import toricspec.laurent as laurent_mod
    from toricspec.memo import _MEMO

    tested, handed, minimal, restricted = [], [], [], []
    rank_test, build = laurent_mod.maximal_ideal_power, laurent_mod.groebner_divisors
    find_minimal, form_product = laurent_mod._minimal_monomials, LinearSubspace.form_product

    def counted(block):
        tested.append(block)
        return rank_test(block)

    def recorded(gens):
        handed.append(gens)
        return build(gens)

    def scanned(exps_list):
        minimal.append(len(exps_list))
        return find_minimal(exps_list)

    def restricting(self, exps):
        restricted.append(exps)
        return form_product(self, exps)

    monkeypatch.setattr(laurent_mod, "maximal_ideal_power", counted)
    monkeypatch.setattr(laurent_mod, "groebner_divisors", recorded)
    monkeypatch.setattr(laurent_mod, "_minimal_monomials", scanned)
    rng = random.Random(37)
    clear_caches()
    modules = powers = shortcuts = mixed = cleared_fractions = 0
    verdicts = set()
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for window in (2, 4):
                km = maker(T, H, window)
                if km.ring == ZERO_RING:
                    continue
                decided = decision_module(km)
                gens = decided.module.generators()
                reference = _reference_cleared(decided)
                # below the least generator degree, so below D once cleared
                low = [tuple(x - (i == j) * rng.randint(1, 3) for i, x in enumerate(gens[0])) for j in range(T.n)]
                relation = Poly.linear_form(annihilator(km.subspace)[0])

                def fraction():
                    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3, 5, 7)))

                queries = [U(*(rng.randint(-3, 4) for _ in range(T.n))) for _ in range(4)]
                queries += [U(*(x + rng.randint(0, 2) for x in rng.choice(gens))) for _ in range(4)]
                queries += [U(*rng.choice(gens)) + U(*rng.choice(low)) * Fraction(rng.randint(1, 3), 2),
                            U(*rng.choice(gens)) * 3 + relation * U(*rng.choice(low)),
                            U(*rng.choice(gens)) - U(*(x + 1 for x in rng.choice(gens))) + relation,
                            U(*rng.choice(gens)) * fraction() + U(*(x + 2 for x in rng.choice(gens))) * fraction(),
                            (U(*rng.choice(gens)) * fraction() + U(*rng.choice(low)) * fraction()
                             + U(*(x + 1 for x in rng.choice(gens))) * fraction())]
                tested.clear()
                handed.clear()
                minimal.clear()
                monkeypatch.setattr(LinearSubspace, "form_product", restricting)
                restricted.clear()
                _cleared_generators(decided)
                monkeypatch.setattr(LinearSubspace, "form_product", form_product)
                for q in queries:
                    membership(q, km, "both")
                entry_gens, made, floor, power = _cleared_generators(decided)
                assert power == reference[3] and floor == reference[2]
                # the rank test runs once, when there are enough generators
                # of least degree for the monomials of their cleared degree
                least = [g for g in gens if sum(g) == sum(gens[0])]
                k, degree = decided.subspace.dim, sum(gens[0]) + sum(floor)
                ran = len(least) >= comb(degree + k - 1, k - 1)
                assert len(tested) == ran and len(handed) == (power is None)
                assert minimal == ([] if power is not None else [len(gens)])
                # each generator restricted in the build is restricted once,
                # and the entry holds every restriction made
                assert len(set(restricted)) == len(restricted) == len(made)
                assert made == [form_product(decided.subspace, tuple(a + t for a, t in zip(g, floor)))
                                for g in entry_gens[:len(made)]]
                if power is None:
                    assert entry_gens == reference[0] and made == reference[1]
                    assert all(gens is made for gens in handed)
                else:
                    assert list(entry_gens) == least and 1 <= len(made) <= len(least)
                if (T, maker, window) == (T_cube, kernel_K0, 4):
                    assert len(entry_gens) == 126 and len(made) < 126
                full = buchberger(reference[1])
                for q in queries:
                    want = _exact_slice_verdict(q, reference, decided)
                    assert _verdict(q, decided, "brute")[0] == want, (T.n, maker, window, q)
                    assert _verdict(q, decided, "brute", want_certificate=True)[0] == want
                    assert _verdict(q, decided, "groebner")[0] == want
                    verdicts.add(want)
                    cleared = _cleared(q, floor, decided.subspace)
                    if cleared is None:
                        assert not want
                        continue
                    # one clearing: the restriction comes back in integers
                    assert all(type(c) is int for c in cleared.terms.values())
                    cleared_fractions += any(type(c) is not int for c in q.terms.values())
                    assert normal_form(cleared, full).is_zero() == want
                    degrees = list(cleared.homogeneous_components())
                    if power is not None:
                        assert want == (min(degrees, default=power) >= power)
                        if degrees and max(degrees) >= power:
                            shortcuts += 1
                            mixed += min(degrees) < power
                assert len(tested) == ran
                untracked = [key for kind, key in _MEMO if kind == "graded_slice" and key[0] is decided and not key[2]]
                # an m^D module builds no untracked slice and no basis; the
                # square's K ring and the other modules that are no m^D do
                assert bool(untracked) == (("groebner", decided) in _MEMO) == (power is None)
                modules += 1
                powers += power is not None
    assert modules == 16 and powers == 10 and shortcuts >= 60 and mixed >= 10 and verdicts == {True, False}
    assert cleared_fractions >= 30
    # the pentagon's K0 module is no m^D, but its 24 generators of least
    # degree are enough for the 20 monomials of that degree: the rank test
    # runs, and the restrictions it made are reused, so no generator is
    # restricted twice
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    pentagon = kernel_K0(toric_data(parse_polytope((corpus / "pentagon.poly").read_text())), H, 2)
    decided = decision_module(pentagon)
    reference = _reference_cleared(decided)
    clear_caches()
    tested.clear()
    minimal.clear()
    monkeypatch.setattr(LinearSubspace, "form_product", restricting)
    restricted.clear()
    gens, made, floor, power = _cleared_generators(decided)
    monkeypatch.setattr(LinearSubspace, "form_product", form_product)
    assert power is None is reference[3] and len(tested) == 1 and minimal == [len(decided.module.generators())]
    assert (gens, made, floor) == reference[:3] and len(gens) == 50
    assert sorted(restricted) == sorted(tuple(a + t for a, t in zip(g, floor)) for g in gens)


def _slice_queries(T):
    rng = random.Random(29)
    return [U(*(rng.randint(-3, 4) for _ in range(T.n))) for _ in range(30)]


def test_grown_slices_change_no_verdict(T_monotone, T_cube):
    for T in (T_monotone, T_cube):
        km = kernel_K0(T, H, 2)
        queries = _slice_queries(T)
        clear_caches()
        forward = [_verdict(q, km, "brute")[0] for q in queries]
        clear_caches()
        backward = [_verdict(q, km, "brute")[0] for q in reversed(queries)]
        assert forward == backward[::-1]
        assert forward == [_verdict(q, km, "groebner")[0] for q in queries]
        assert any(forward) and not all(forward)


def test_certificate_from_grown_slice_verifies(T_monotone, T_cube):
    for T in (T_monotone, T_cube):
        km = kernel_K0(T, H, 2)
        queries = _slice_queries(T)
        clear_caches()
        members = [q for q in queries if membership_certified(q, km)[0]]
        # grow the slices of W + 2 through unrelated queries first, then certify
        for q in queries:
            _verdict(q, decision_module(km), "brute", want_certificate=True)
        for q in members + [U(*(x + 1 for x in next(iter(members[0].terms))))]:
            ok, cert = membership_certified(q, km)
            assert ok and cert[1]
            assert verify_certificate(q, km, cert)


def test_certificate_labels_may_be_any_module_monomial(T_monotone):
    # the brute backend certifies with minimal generators only, but a
    # certificate naming a non-minimal generator, or a u-multiple of one, is
    # just as valid; the constant 1 names no module element, so "1 = 1 * 1"
    # certifies nothing
    km = kernel_K0(T_monotone, H, 2)
    gens = decision_module(km).module.generators()
    g = next(g for g in gens if g not in _minimal_monomials(gens))
    one = (0,) * km.subspace.dim
    for label in (g, tuple(x + (i == 1) for i, x in enumerate(g))):
        assert verify_certificate(Poly.monomial(label), km, (1, {(label, one): 1}))
    zero = (0,) * T_monotone.n
    assert not any(all(a >= b for a, b in zip(zero, h)) for h in gens)
    assert not verify_certificate(Poly.monomial(zero), km, (1, {(zero, one): 1}))
    # the Hirzebruch surface's K0 module at W = 2 is m^15 at its decision
    # window 4, whose memo entry lists only the 4 generators of least degree:
    # a label is checked against every window generator, so a minimal
    # generator of higher degree still certifies itself
    path = Path(__file__).resolve().parent.parent / "polytopes" / "hirzebruch_monotone.poly"
    km = kernel_K0(toric_data(parse_polytope(path.read_text())), H, 2)
    decided = decision_module(km)
    gens = decided.module.generators()
    least, minimal = _cleared_generators(decided)[0], _minimal_monomials(gens)
    assert len(least) == 4 and len(minimal) == 9
    g = next(g for g in minimal if g not in least)
    assert verify_certificate(Poly.monomial(g), km, (1, {(g, (0,)): 1}))
    low = tuple(x - (i == 0) for i, x in enumerate(least[0]))
    assert not any(all(a >= b for a, b in zip(low, h)) for h in gens)
    assert _cleared(Poly.monomial(low), _cleared_generators(decided)[2], decided.subspace) is not None
    assert not verify_certificate(Poly.monomial(low), km, (1, {(low, (0,)): 1}))


# --- the fraction-free span ---------------------------------------------------------


class _FractionSpan:
    """Reference span: monic Fraction pivots, each with its label combination."""

    def __init__(self, track=False):
        self.track = track
        self.pivots = {}

    @staticmethod
    def _axpy(target, f, vec):
        for e, c in vec.items():
            s = target.get(e, 0) + f * c
            if s:
                target[e] = s
            else:
                target.pop(e, None)

    def reduce(self, vec, combo=None):
        vec = {e: Fraction(c) for e, c in vec.items() if c}
        while True:
            hits = [e for e in vec if e in self.pivots]
            if not hits:
                return vec
            lead = max(hits)
            f = vec[lead]
            pivot, labels = self.pivots[lead]
            self._axpy(vec, -f, pivot)
            if combo is not None:
                self._axpy(combo, f, labels)

    def add(self, vec, label=None):
        combo = {} if self.track else None
        red = self.reduce(vec, combo)
        if not red:
            return False
        lead = max(red)
        inv = 1 / red[lead]
        labels = None
        if self.track:
            labels = {lab: -c * inv for lab, c in combo.items()}
            labels[label] = inv
        self.pivots[lead] = ({e: c * inv for e, c in red.items()}, labels)
        return True


def _rand_vec(rng, rational, support=10, size=5):
    vec = {}
    for _ in range(rng.randint(1, size)):
        e = (rng.randint(0, support), rng.randint(0, 2))
        vec[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rational else rng.randint(-9, 9)
    return vec


def _combination(rng, vecs):
    out = {}
    for vec in rng.sample(vecs, min(3, len(vecs))):
        f = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for e, c in vec.items():
            out[e] = out.get(e, 0) + f * c
    return out


@pytest.mark.parametrize("rational", [False, True])
def test_fraction_free_span_matches_fraction_span(rational):
    # the span of the cleared columns against the Fraction span of the
    # columns as drawn, on the cleared and the drawn queries: the
    # fraction-free span takes integer vectors, and scaling changes no span
    # membership
    rng = random.Random(53 + rational)
    verdicts = set()
    for trial in range(150):
        columns = [_rand_vec(rng, rational) for _ in range(rng.randint(1, 14))]
        # repeats and combinations of earlier columns do not grow the span
        columns += [_combination(rng, columns) for _ in range(rng.randint(0, 3))]
        rng.shuffle(columns)
        cleared = [_integral(col)[0] for col in columns]
        for track in (False, True):
            span, ref = _Span(track), _FractionSpan(track)
            for i, col in enumerate(columns):
                assert span.add(cleared[i], i) == ref.add(col, i)
            assert len(span.pivots) == len(ref.pivots)
            for lead, (vec, p, labels) in span.pivots.items():
                assert all(type(c) is int for c in vec.values())
                assert p == vec[lead] > 0 and max(vec) == lead
                if track:
                    # a pivot is the integer combination of the columns it names
                    assert all(type(c) is int for c in labels.values())
                    rebuilt = {}
                    for lab, c in labels.items():
                        ref._axpy(rebuilt, c, cleared[lab])
                    assert rebuilt == vec
            queries = [_combination(rng, columns) for _ in range(3)] + [_rand_vec(rng, rational) for _ in range(3)]
            for q in queries:
                residual, scale, combo = span.reduce(_integral(q)[0], 1, {} if track else None)
                member = not ref.reduce(q)
                assert (not residual) == member
                verdicts.add(member)
                if track and member:
                    # combo / scale rebuilds the cleared query exactly
                    rebuilt = {}
                    for lab, c in combo.items():
                        ref._axpy(rebuilt, Fraction(c, scale), cleared[lab])
                    assert rebuilt == {e: c for e, c in _integral(q)[0].items() if c}
    assert verdicts == {True, False}


def _class_key_reference(subspace, exps):
    """The grouping recomputed on every call, as a direct reference."""
    directions, sums = {}, []
    for i, row in enumerate(subspace.basis):
        g = gcd(*row)
        key = tuple(x // g for x in row) if g else tuple(row)
        neg = tuple(-x for x in key)
        if key not in directions and neg in directions:
            key = neg
        if key not in directions:
            directions[key] = len(sums)
            sums.append(0)
        sums[directions[key]] += exps[i]
    return tuple(sums)


def test_restriction_class_key_matches_reference(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    rng = random.Random(59)
    clear_caches()
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            sub = maker(T, H, 2).subspace
            for _ in range(40):
                exps = tuple(rng.randint(-3, 3) for _ in range(T.n))
                assert restriction_class_key(sub, exps) == _class_key_reference(sub, exps)
    hits, misses = memo_counts()["restriction_groups"]
    assert misses <= 10 and hits >= 390
