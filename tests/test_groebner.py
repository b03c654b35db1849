import random
import signal
from fractions import Fraction

import pytest

from toricspec.groebner import buchberger, ideal_member, interreduce, normal_form, s_polynomial
from toricspec.laurent import LinearSubspace, _linear_relations, kernel_K, kernel_K0, reduce_relations
from toricspec.polys import Poly


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
    f = P(2, {(2, 0): 1, (0, 1): 1})
    g = P(2, {(1, 1): 1, (0, 0): 1})
    s = s_polynomial(f, g)
    lead_exps = {e for e in s.terms}
    assert (2, 1) not in lead_exps


def test_buchberger_textbook_example():
    # <x^2 - y, x^3 - x> over Q[x, y]
    f = P(2, {(2, 0): 1, (0, 1): -1})
    g = P(2, {(3, 0): 1, (1, 0): -1})
    gb = buchberger([f, g])
    # y^2 - y, x*y - x, x^2 - y is the reduced grevlex basis
    assert ideal_member(P(2, {(0, 2): 1, (0, 1): -1}), gb)
    assert ideal_member(P(2, {(1, 1): 1, (1, 0): -1}), gb)
    assert not ideal_member(P(2, {(1, 0): 1}), gb)


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
        assert ideal_member(P(n, {e1: 1}), gb)
        assert not ideal_member(P(n, {e0: 1}), gb)


def test_membership_is_witnessed_random():
    # random combinations of the generators must reduce to zero
    rng = random.Random(5)
    f = P(2, {(2, 0): 1, (0, 1): -1})
    g = P(2, {(1, 1): 1, (0, 0): 3})
    gb = buchberger([f, g])
    for _ in range(25):
        c1 = P(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        c2 = P(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
        assert ideal_member(c1 * f + c2 * g, gb)


def test_linear_relations_match_buchberger(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the relation ideal is prime, so no saturation is needed: the row echelon
    # form of the annihilator is already its reduced Groebner basis
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            sub = maker(T, Fraction(1, 2), 2).subspace
            if sub.is_zero_ring():
                assert _linear_relations(sub) == [Poly.constant(T.n, 1)]
                continue
            forms = [Poly.linear_form(row) for row in sub.annihilator()]
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
            verdicts = [ideal_member(f, rel) for f in samples]
            assert True in verdicts and False in verdicts
            for f, member in zip(samples, verdicts):
                assert ideal_member(f.term_mul(m), rel) == member


def test_saturate_extracts_hidden_factor():
    # <x0 - x1> : x0^inf = <x0 - x1>: a member x0^2 x1 * f gives f back
    sub = LinearSubspace(((1,), (1,)))
    rel = _linear_relations(sub)
    assert rel == [P(2, {(1, 0): 1, (0, 1): -1})]
    hidden = P(2, {(3, 1): 1, (2, 2): -1})
    assert ideal_member(hidden, rel)
    assert ideal_member(hidden.term_mul((-2, -1)), rel)
    assert not ideal_member(P(2, {(3, 1): 1}), rel)
    assert not ideal_member(P(2, {(1, 0): 1}), rel)


def test_saturate_whole_ring():
    # V inside {u1 = 0}: I = <u1> and I : (u1 u2)^inf = (1), which the
    # relation route returns directly
    sub = LinearSubspace(((0,), (1,)))
    assert sub.is_zero_ring()
    forms = [Poly.linear_form(row) for row in sub.annihilator()]
    gb = buchberger(forms)
    assert ideal_member(P(2, {(1, 1): 1}), gb)
    assert not ideal_member(P(2, {(0, 0): 1}), gb)
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


def test_relation_substitution_matches_division(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # substituting the pivot variables gives the remainder of division by the
    # relation basis, on zero rings too
    rng = random.Random(17)
    checked = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            sub = maker(T, Fraction(1, 2), 2).subspace
            rel = _linear_relations(sub)
            for _ in range(8):
                q = Poly(T.n, {
                    tuple(rng.randint(0, 3) for _ in range(T.n)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 4))
                })
                assert reduce_relations(q, sub) == normal_form(q, rel)
                checked += 1
    assert checked == 5 * 2 * 8


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
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = _rand_ideal(rng, n)
        out = interreduce(gens + [g * Fraction(3) for g in gens[:1]])
        assert interreduce(out) == out
        for i, g in enumerate(out):
            assert normal_form(g, out[:i] + out[i + 1:]) == g
        for g in gens:
            assert ideal_member(g, buchberger(out))


def test_buchberger_returns_the_reduced_basis_in_any_order():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        gens = _rand_ideal(rng, n)
        gb = buchberger(gens)
        assert _is_reduced(gb)
        assert buchberger(list(reversed(gens))) == gb
        assert all(ideal_member(g, gb) for g in gens)


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        xs = sympy.symbols(f"x0:{n}")
        gens = [g for g in _rand_ideal(rng, n) if g]
        exprs = [
            sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(x ** a for x, a in zip(xs, e))
                for e, c in g.terms.items())
            for g in gens
        ]
        theirs = sympy.groebner(exprs, *xs, order="grevlex")
        converted = sorted(
            # sympy clears denominators; the reduced basis is monic
            (Poly(n, {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(h, *xs).terms()}).monic()
             for h in theirs.exprs),
            key=lambda g: g.leading()[0],
        )
        assert buchberger(gens) == converted
