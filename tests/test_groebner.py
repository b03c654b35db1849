import random
import signal
from fractions import Fraction
from itertools import permutations

import pytest

from toricspec.groebner import (
    _lcm,
    _monic,
    _primitive_divisors,
    _s_poly,
    buchberger,
    groebner_divisors,
    maximal_ideal_power,
    normal_form,
)
from toricspec.laurent import (
    ZERO_RING,
    LinearSubspace,
    _cleared_generators,
    _groebner_member,
    _minimal_monomials,
    _verdict,
    kernel_K,
    kernel_K0,
)
from toricspec.memo import _MEMO, clear_caches
from toricspec.polys import RANK_PRIME, Poly, monomials_of_degree, rank_mod_p

from tests.reference import (
    _linear_relations,
    _reference_buchberger,
    _reference_interreduce,
    _reference_normal_form,
    _reference_s_polynomial,
    annihilator,
    monic,
    reference_module_ideal,
    rref,
)


def P(nvars, terms):
    return Poly(nvars, {e: Fraction(c) for e, c in terms.items()})


def test_grevlex_leading():
    # x*y^2 beats x^2 in grevlex? deg 3 > 2, yes; among degree 3: x^2*y > x*y^2
    f = P(2, {(2, 1): 1, (1, 2): 1})
    assert f.leading()[0] == (2, 1)


def test_normal_form_linear_substitution():
    # reduce x0 modulo x0 - x1: remainder is x1
    f = P(2, {(1, 0): 1})
    g = P(2, {(1, 0): 1, (0, 1): -1})
    assert normal_form(f, [g]).terms == {(0, 1): Fraction(1)}


def test_s_polynomial_cancels_leads():
    # the integer S-polynomial Buchberger builds: leads cancelled, and here
    # (both leads monic) the reference engine's S-polynomial itself
    f = P(2, {(2, 0): 1, (0, 1): 1})
    g = P(2, {(1, 1): 1, (0, 0): 1})
    d1, d2 = _primitive_divisors([f, g])
    s = _s_poly(d1, d2, _lcm(d1[0], d2[0]))
    assert (2, 1) not in s
    assert Poly(2, s) == _reference_s_polynomial(f, g)


def test_buchberger_textbook_example():
    # <x^2 - y, x^3 - x> over Q[x, y]
    f = P(2, {(2, 0): 1, (0, 1): -1})
    g = P(2, {(3, 0): 1, (1, 0): -1})
    gb = buchberger([f, g])
    # y^2 - y, x*y - x, x^2 - y is the reduced grevlex basis
    assert normal_form(P(2, {(0, 2): 1, (0, 1): -1}), gb).is_zero()
    assert normal_form(P(2, {(1, 1): 1, (1, 0): -1}), gb).is_zero()
    assert not normal_form(P(2, {(1, 0): 1}), gb).is_zero()


def test_buchberger_monomials_plus_linear():
    # <x0*x1, x2*x3, x0-x1, x2-x3, x0+x2> reduces membership to powers
    n = 4
    gens = [
        P(n, {(1, 1, 0, 0): 1}),
        P(n, {(0, 0, 1, 1): 1}),
        P(n, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1}),
        P(n, {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1}),
        P(n, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}),
    ]
    gb = buchberger(gens)
    for i in range(4):
        e1 = tuple(2 if j == i else 0 for j in range(4))
        e0 = tuple(1 if j == i else 0 for j in range(4))
        assert normal_form(P(n, {e1: 1}), gb).is_zero()
        assert not normal_form(P(n, {e0: 1}), gb).is_zero()


def test_membership_is_witnessed_random():
    # random combinations of the generators must reduce to zero
    rng = random.Random(5)
    f = P(2, {(2, 0): 1, (0, 1): -1})
    g = P(2, {(1, 1): 1, (0, 0): 3})
    gb = buchberger([f, g])
    for _ in range(25):
        c1 = P(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        c2 = P(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        assert normal_form(c1 * f + c2 * g, gb).is_zero()


def test_linear_relations_match_buchberger(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the relation ideal is prime, so no saturation is needed: the row echelon
    # form of the annihilator is already its reduced Groebner basis
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            sub = maker(T, Fraction(1, 2), 2).subspace
            if sub.is_zero_ring():
                assert _linear_relations(sub) == [Poly.constant(T.n, 1)]
                continue
            forms = [Poly.linear_form(row) for row in annihilator(sub)]
            assert _linear_relations(sub) == buchberger(forms)
    cp2_k0 = kernel_K0(T_cp2, Fraction(1, 2), 2).subspace
    assert _linear_relations(cp2_k0) == [Poly.constant(3, 1)]


def test_saturate_prime_linear_ideal_is_fixed(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # I : (u1...un)^inf = I for the relation ideal I of V, unless V is a zero
    # ring: m*f lies in I exactly when f does, for m = u1...un
    rng = random.Random(7)
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            sub = maker(T, Fraction(1, 2), 2).subspace
            if sub.is_zero_ring():
                continue
            rel = _linear_relations(sub)
            m = (1,) * T.n
            units = [Poly.monomial(tuple(int(j == i) for j in range(T.n))) for i in range(T.n)]
            samples = [g * u for g in rel for u in units] + units
            for _ in range(10):
                exps = tuple(rng.randint(0, 1) for _ in range(T.n))
                samples.append(Poly.monomial(exps, rng.randint(1, 3)) + rel[0])
            verdicts = [normal_form(f, rel).is_zero() for f in samples]
            assert True in verdicts and False in verdicts
            for f, member in zip(samples, verdicts):
                assert normal_form(f.term_mul(m), rel).is_zero() == member


def test_saturate_extracts_hidden_factor():
    # <x0 - x1> : x0^inf = <x0 - x1>: a member x0^2 x1 * f gives f back
    sub = LinearSubspace(((1,), (1,)))
    rel = _linear_relations(sub)
    assert rel == [P(2, {(1, 0): 1, (0, 1): -1})]
    hidden = P(2, {(3, 1): 1, (2, 2): -1})
    assert normal_form(hidden, rel).is_zero()
    assert normal_form(hidden.term_mul((-2, -1)), rel).is_zero()
    assert not normal_form(P(2, {(3, 1): 1}), rel).is_zero()
    assert not normal_form(P(2, {(1, 0): 1}), rel).is_zero()


def test_saturate_whole_ring():
    # V inside {u1 = 0}: I = <u1> and I : (u1 u2)^inf = (1), which the
    # relation route returns directly
    sub = LinearSubspace(((0,), (1,)))
    assert sub.is_zero_ring()
    forms = [Poly.linear_form(row) for row in annihilator(sub)]
    gb = buchberger(forms)
    assert normal_form(P(2, {(1, 1): 1}), gb).is_zero()
    assert not normal_form(P(2, {(0, 0): 1}), gb).is_zero()
    assert _linear_relations(sub) == [P(2, {(0, 0): 1})]


def test_poly_arithmetic_rejects_mismatched_nvars():
    two, three = Poly.linear_form((1, 1)), Poly.linear_form((1, -1, 0))
    for op in (lambda: two * three, lambda: two + three, lambda: two - three,
               lambda: two.term_mul((1, 0, 0))):
        with pytest.raises(ValueError, match="variable count mismatch"):
            op()


def test_normal_form_rejects_mismatched_nvars():
    # before the check this division never terminated: a SIGALRM turns a
    # regression into a failure instead of a hang
    def timeout(signum, frame):
        raise TimeoutError("normal_form did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(ValueError, match="variable counts"):
            normal_form(Poly.linear_form((1, 0, 0)), [Poly.linear_form((1, -1))])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _textbook_normal_form(f, basis):
    """Division as written in textbooks: rebuild the dividend after every step."""
    leads = [g.leading() for g in basis]
    rem, work = {}, f
    while work.terms:
        e, c = work.leading()
        for g, (ge, gc) in zip(basis, leads):
            diff = tuple(a - b for a, b in zip(e, ge))
            if all(x >= 0 for x in diff):
                work = work - g.term_mul(diff, Fraction(c) / gc)
                break
        else:
            rem[e] = c
            work = Poly(work.nvars, {k: v for k, v in work.terms.items() if k != e})
    return Poly(f.nvars, rem)


def test_normal_form_matches_textbook_division():
    rng = random.Random(11)

    def rand_poly(n, terms, degree):
        return Poly(n, {
            tuple(rng.randint(0, degree) for _ in range(n)): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(terms)
        })

    for _ in range(150):
        n = rng.randint(1, 4)
        # division is defined for any basis, Groebner or not
        basis = [g for g in (rand_poly(n, rng.randint(1, 4), 3) for _ in range(rng.randint(1, 4))) if g]
        for _ in range(4):
            f = rand_poly(n, rng.randint(1, 8), 5)
            assert normal_form(f, basis) == _textbook_normal_form(f, basis)


def _check_restriction_kernel(sub, rng, verdicts):
    # u_i -> l_i(w) maps Q[u] onto Q[w] with the relation ideal of V as its
    # kernel: an integer polynomial restricts to zero exactly when division
    # by the relation basis leaves no remainder
    n = sub.nvars

    def rand_poly(terms):
        return Poly(n, {tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(-4, 4) for _ in range(terms)})

    rel = _linear_relations(sub)
    for form in rel:
        assert sub.image(form.term_mul(tuple(rng.randint(0, 3) for _ in range(n)))).is_zero()
    forms = [Poly.linear_form(row) for row in annihilator(sub)]
    for _ in range(4):
        f = sum((form * rand_poly(rng.randint(1, 3)) for form in forms), Poly.zero(n))
        if rng.random() < 0.5:
            f = f + rand_poly(rng.randint(1, 3))
        member = normal_form(f, rel).is_zero()
        assert sub.image(f).is_zero() == member
        verdicts.add(member)


def test_relation_substitution_matches_division(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the restriction that replaced the pivot-variable substitution decides
    # relation-ideal membership as division does, on the conftest subspaces
    rng = random.Random(17)
    subspaces = [maker(T, Fraction(1, 2), 2).subspace
                 for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube) for maker in (kernel_K, kernel_K0)]
    subspaces = [sub for sub in subspaces if not sub.is_zero_ring()]
    assert len(subspaces) == 8  # of the 10
    verdicts = set()
    for sub in subspaces:
        _check_restriction_kernel(sub, rng, verdicts)
    assert verdicts == {True, False}


def test_relation_substitution_with_denominators():
    # random integer subspaces, whose monic echelon annihilator rows mostly
    # have denominators: restriction still decides membership as division does
    rng = random.Random(23)
    checked = with_denominators = 0
    verdicts = set()
    while checked < 60:
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        sub = LinearSubspace(basis=tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)))
        if sub.is_zero_ring():
            continue
        red, pivots = rref(annihilator(sub))
        with_denominators += any(x.denominator > 1 for row in red[: len(pivots)] for x in row)
        _check_restriction_kernel(sub, rng, verdicts)
        checked += 1
    assert with_denominators >= 20 and verdicts == {True, False}


def _rand_ideal(rng, n):
    return [
        Poly(n, {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        })
        for _ in range(rng.randint(1, 3))
    ]


def _is_reduced(basis):
    leads = [g.leading()[0] for g in basis]
    for g, lead in zip(basis, leads):
        if g.terms[lead] != 1:
            return False
        for other in leads:
            if other is not lead and any(all(a >= b for a, b in zip(e, other)) for e in g.terms):
                return False
    return True


def test_interreduce_reaches_a_fixed_point():
    # the basis Buchberger's algorithm returns is interreduced: each element
    # is its own remainder by the others, and the algorithm run on it again
    # returns it unchanged
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = _rand_ideal(rng, n)
        out = buchberger(gens + [g * Fraction(3) for g in gens[:1]])
        assert buchberger(out) == out
        for i, g in enumerate(out):
            assert normal_form(g, out[:i] + out[i + 1:]) == g
        for g in gens:
            assert normal_form(g, out).is_zero()


def test_buchberger_returns_the_reduced_basis_in_any_order():
    # generators whose leads divide each other, each added to a seeded
    # ideal: a duplicate, an integer multiple and a monomial multiple of one
    # of its generators; in every input order the basis is the reference's
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = _rand_ideal(rng, n)
        gb = buchberger(gens)
        assert _is_reduced(gb)
        assert buchberger(list(reversed(gens))) == gb
        assert all(normal_form(g, gb).is_zero() for g in gens)
        g = rng.choice(gens)
        for extra in (g, g * rng.choice((-3, -2, 2, 5)), g.term_mul(tuple(rng.randint(0, 2) for _ in range(n)))):
            both = gens + [extra]
            reference = _reference_buchberger(both)
            assert reference == gb
            assert all(buchberger(list(order)) == reference for order in permutations(both))


def _to_sympy(sympy, g, xs):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(x ** a for x, a in zip(xs, e))
                for e, c in g.terms.items()), sympy.Integer(0))


def _from_sympy(sympy, h, xs):
    return Poly(len(xs), {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(h, *xs).terms() if c})


def _sympy_basis(sympy, gens, n):
    """sympy's reduced grevlex basis of `gens`, as monic Polys sorted by
    leading exponent."""
    xs = sympy.symbols(f"x0:{n}")
    theirs = sympy.groebner([_to_sympy(sympy, g, xs) for g in gens], *xs, order="grevlex")
    # sympy clears denominators; the reduced basis is monic
    return sorted((monic(_from_sympy(sympy, h, xs)) for h in theirs.exprs), key=lambda g: g.leading()[0])


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        gens = [g for g in _rand_ideal(rng, n) if g]
        assert buchberger(gens) == _sympy_basis(sympy, gens, n)


def test_normal_form_matches_sympy_reduced(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the remainder by a reduced basis is unique, so on the reduced basis of
    # each conftest K/K0 module's cleared generators `normal_form` must give
    # sympy's `reduced` remainder in the same grevlex order, w0 > w1 > ...
    sympy = pytest.importorskip("sympy")
    rng = random.Random(71)
    compared, nonzero, divided = 0, 0, 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            km = maker(T, Fraction(1, 2), 2)
            if km.ring == ZERO_RING:
                continue
            k = km.subspace.dim
            basis = buchberger(_cleared_generators(km)[1])
            ws = sympy.symbols(f"w0:{k}")
            theirs = [_to_sympy(sympy, g, ws) for g in basis]
            top = max(g.total_degree() for g in basis) + 1
            for _ in range(4):
                f = Poly(k, {rng.choice(list(monomials_of_degree(k, rng.randint(0, top)))):
                             Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))})
                _, remainder = sympy.reduced(_to_sympy(sympy, f, ws), theirs, *ws, order="grevlex")
                ours = normal_form(f, basis)
                assert ours == _from_sympy(sympy, remainder, ws), (T.n, maker, f)
                compared += 1
                nonzero += bool(ours.terms)
                divided += ours != f
    assert compared == 32 and nonzero >= 8 and divided >= 8


def test_maximal_ideal_power_matches_sympy():
    # seeded homogeneous blocks in 2 and 3 variables with more generators of
    # the least degree than monomials of that degree, some with generators
    # of the next degree as well: the m^D test of the least-degree block
    # returns its degree, and sympy's basis of all of them is the monomials
    # of that degree
    sympy = pytest.importorskip("sympy")
    rng = random.Random(67)
    for _ in range(30):
        n = rng.choice((2, 3))
        degree = rng.randint(1, 5 - n)
        monomials = list(monomials_of_degree(n, degree))
        above = list(monomials_of_degree(n, degree + 1))
        gens = [Poly(n, {e: rng.randint(-20, 20) for e in monomials})
                for _ in range(len(monomials) + rng.randint(1, 4))]
        gens += [Poly(n, {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in rng.sample(above, 2)})
                 for _ in range(rng.randint(0, 2))]
        gens = [g for g in gens if g]
        assert maximal_ideal_power(g for g in gens if g.total_degree() == degree) == degree
        assert buchberger(gens) == _sympy_basis(sympy, gens, n) == [Poly.monomial(e) for e in sorted(monomials)]


def test_bad_prime_takes_the_unchanged_path():
    # x^2, xy + y^2, xy + (1 + p) y^2 span degree 2 over Q, but the last two
    # agree mod p: rank 2 of 3, so the m^D test fails, and Buchberger's
    # algorithm still finds m^2
    gens = [P(2, {(2, 0): 1}), P(2, {(1, 1): 1, (0, 2): 1}), P(2, {(1, 1): 1, (0, 2): 1 + RANK_PRIME})]
    assert rank_mod_p([[1, 0, 0], [0, 1, 1], [0, 1, 1 + RANK_PRIME]], 3) == 2
    assert maximal_ideal_power(gens) is None
    square = [Poly.monomial(e) for e in ((0, 2), (1, 1), (2, 0))]
    assert buchberger(gens) == _reference_buchberger(gens) == square


def test_other_inputs_take_the_unchanged_path():
    x2, xy, y2 = (P(2, {e: 1}) for e in ((2, 0), (1, 1), (0, 2)))
    cube = P(2, {(3, 0): 1, (0, 3): -1})
    # (generators, their block of least degree); a term of another degree
    # ends the rank test short of full rank
    cases = (
        ([P(2, {(2, 0): 1, (0, 1): -1}), xy, y2], 3),  # not homogeneous
        ([xy, y2, P(2, {(2, 0): 1, (0, 1): -1})], 3),  # the same, the odd term last
        ([x2, y2, cube, xy * Poly.linear_form((1, 1))], 2),  # 2 generators of degree 2, 3 monomials
        ([x2, x2 * Fraction(3, 2), y2, cube], 3),  # 3 generators of degree 2, rank 2
    )
    for gens, least in cases:
        assert maximal_ideal_power(gens[:least]) is None
        assert buchberger(gens) == _reference_buchberger(gens)
    # the block is pulled as the rank needs rows, none past full rank
    pulled = []

    def block():
        for g in (y2, x2 + xy, xy, cube):
            pulled.append(g)
            yield g

    assert maximal_ideal_power(block()) == 2 and pulled == [y2, x2 + xy, xy]
    assert maximal_ideal_power([]) is None and maximal_ideal_power([Poly.zero(2)]) is None


def test_zero_basis_elements_divide_nothing():
    x, zero = Poly.linear_form((1, 0)), Poly.zero(2)
    assert normal_form(x, [zero]) == x
    assert normal_form(x, [zero, x]) == zero
    assert len(_primitive_divisors([zero, x, zero])) == 1


def _seeded_ideal(rng, n, fractions, degree):
    """1-3 generators of 1-3 terms; homogeneous of `degree` when it is given,
    else of degree at most 2 in each variable."""

    def exponent():
        if degree is None:
            return tuple(rng.randint(0, 2) for _ in range(n))
        e = [0] * n
        for _ in range(degree):
            e[rng.randrange(n)] += 1
        return tuple(e)

    def coefficient():
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        return Fraction(c, rng.randint(1, 3)) if fractions else c

    return [Poly(n, {exponent(): coefficient() for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(1, 3))]


def _seeded_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        fractions = rng.random() < 0.5
        degree = rng.randint(1, 3) if rng.random() < 0.5 else None
        yield rng, n, fractions, degree


def test_normal_form_matches_the_reference_engine():
    for rng, n, fractions, degree in _seeded_cases(41, 150):
        basis = _seeded_ideal(rng, n, fractions, degree)
        for _ in range(3):
            f = _seeded_ideal(rng, n, fractions, None)[0] * _seeded_ideal(rng, n, fractions, None)[0]
            assert normal_form(f, basis) == _reference_normal_form(f, basis)


def test_buchberger_matches_the_reference_engine():
    for rng, n, fractions, degree in _seeded_cases(43, 80):
        gens = _seeded_ideal(rng, n, fractions, degree)
        assert buchberger(gens) == _reference_buchberger(gens)


def test_interreduce_matches_the_reference_engine():
    # The reference's interreduction of a set that is no Groebner basis
    # depends on which divisor reduces each term and changes with the order
    # of its input.  A set holding a Groebner basis of the ideal it generates
    # interreduces to the reduced basis, as do linear forms (to the reduced
    # row echelon form): there it is the basis Buchberger's algorithm returns.
    for rng, n, fractions, degree in _seeded_cases(47, 80):
        gens = _seeded_ideal(rng, n, fractions, degree)
        gb = _reference_buchberger(gens)
        members = [g * Fraction(rng.randint(1, 5), rng.randint(1, 3)) for g in gb]
        members += [a * b.term_mul(tuple(rng.randint(0, 1) for _ in range(n))) + b for a, b in zip(gens, gb)]
        rng.shuffle(members)
        assert buchberger(members) == _reference_interreduce(members) == gb
        assert groebner_divisors(members) == tuple(_primitive_divisors(gb))
        forms = [Poly.linear_form([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(1, 4))]
        assert buchberger(forms) == _reference_interreduce(forms)


def test_module_bases_match_the_reference_engine(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # every K/K0 module of the conftest polytopes at W = 2 and 4: the engine
    # gives the reference's basis of the cleared generator restrictions, also
    # as the memo entry of the Groebner backend, the m^D test is the one of
    # the cleared-generator build, and the verdict (the m^D decision or the
    # Groebner backend) on each seeded query is membership by definition,
    # q * u^depth in the ideal of Q[u] of the u^(g + depth) and the relation
    # forms, at the query's own depth max(floor, -min q).  At W = 6 the K0
    # bases are compared too, among them the cube's 126-generator build of
    # m^38 (0.2 s in the reference engine); the cube's K basis there takes
    # 5 s, and the reference ideals of Q[u] 10 s.
    rng = random.Random(53)
    clear_caches()
    compared, verdicts, exits = 0, set(), []
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for window in (2, 4, 6):
                if window == 6 and maker is kernel_K:
                    continue
                km = maker(T, Fraction(1, 2), window)
                sub = km.subspace
                gens = km.module.generators()
                floor = tuple(max(0, -min(g[i] for g in gens)) for i in range(T.n))
                if not sub.is_zero_ring():
                    _, _, cleared_floor, power = _cleared_generators(km)
                    assert cleared_floor == floor
                    # the restrictions of every minimal generator, built here
                    cleared = [sub.form_product(tuple(a + t for a, t in zip(g, floor)))
                               for g in _minimal_monomials(gens)]
                    reference = _reference_buchberger(cleared)
                    assert buchberger(cleared) == reference
                    assert _groebner_member(Poly.zero(sub.dim), km)
                    assert [_monic(d) for d in _MEMO["groebner", km]] == reference
                    least = min(g.total_degree() for g in cleared)
                    assert power == maximal_ideal_power(g for g in cleared if g.total_degree() == least)
                    if power is not None:
                        exits.append((T.n, window, len(cleared), len(reference)))
                if window == 6:
                    continue
                ideals = {}
                for _ in range(6):
                    q = Poly.monomial(tuple(rng.randint(-3, 3) for _ in range(T.n)))
                    depth = tuple(max(t, -m) for t, m in zip(floor, q.min_exponents()))
                    if depth not in ideals:
                        ideals[depth] = reference_module_ideal(gens, depth, sub)
                    want = _reference_normal_form(q.term_mul(depth), ideals[depth]).is_zero()
                    assert _verdict(q, km, "groebner")[0] == want, (T.n, maker, window, q)
                    if not sub.is_zero_ring():
                        verdicts.add((want, depth != floor))
                compared += 1
    assert compared == 20 and verdicts == {(True, True), (False, True), (True, False), (False, False)}
    assert (6, 6, 126, 39) in exits and (6, 4, 60, 27) in exits
