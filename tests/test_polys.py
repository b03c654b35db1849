import random
from fractions import Fraction

import pytest

from toricspec.groebner import maximal_ideal_power, normal_form
from toricspec.laurent import _cleared_generators, _Span, kernel_K, kernel_K0
from toricspec.polys import (
    RANK_PRIME,
    Poly,
    exact_div,
    grevlex_key,
    linear_form_product,
    monomials_of_degree,
    rank_mod_p,
)

from tests.reference import monic, poly_pow, rref


class _FractionPoly:
    """Reference polynomial: every coefficient a Fraction, every operation
    written out directly, leading terms found afresh each time."""

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _FractionPoly(self.nvars, out)

    def __neg__(self):
        return _FractionPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _FractionPoly(self.nvars, out)

    def __pow__(self, k):
        out = _FractionPoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(k):
            out = out * self
        return out

    def term_mul(self, exps, coeff):
        return _FractionPoly(
            self.nvars, {tuple(a + b for a, b in zip(e, exps)): c * coeff for e, c in self.terms.items()}
        )

    def leading(self):
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def monic(self):
        if not self.terms:
            return self
        _, c = self.leading()
        return _FractionPoly(self.nvars, {e: x / c for e, x in self.terms.items()})

    def exact_divide(self, divisor):
        rem, q = self, {}
        de, dc = divisor.leading()
        while rem.terms:
            e, c = rem.leading()
            diff = tuple(a - b for a, b in zip(e, de))
            if any(x < 0 for x in diff):
                return None
            q[diff] = c / dc
            rem = rem - divisor.term_mul(diff, c / dc)
        return _FractionPoly(self.nvars, q)

    def normal_form(self, basis):
        rem, work = {}, self
        while work.terms:
            e, c = work.leading()
            for g in basis:
                ge, gc = g.leading()
                diff = tuple(a - b for a, b in zip(e, ge))
                if all(x >= 0 for x in diff):
                    work = work - g.term_mul(diff, c / gc)
                    break
            else:
                rem[e] = c
                work = _FractionPoly(self.nvars, {k: v for k, v in work.terms.items() if k != e})
        return _FractionPoly(self.nvars, rem)


def _canonical(p: Poly):
    """Every stored coefficient is a nonzero int or a non-integral Fraction."""
    for c in p.terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    return True


def _same(p: Poly, ref: _FractionPoly):
    assert _canonical(p)
    assert p.terms == ref.terms
    return True


def _rand_coeff(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randint(-6, 6)


def _rand_pair(rng, nvars, nterms, degree, rational, signed=False):
    lo = -2 if signed else 0
    terms = {
        tuple(rng.randint(lo, degree) for _ in range(nvars)): _rand_coeff(rng, rational)
        for _ in range(nterms)
    }
    return Poly(nvars, terms), _FractionPoly(nvars, terms)


def test_poly_matches_fraction_reference():
    rng = random.Random(41)
    checked = 0
    for trial in range(300):
        nvars = rng.randint(1, 3)
        rational = trial % 2 == 1
        signed = trial % 3 == 0
        (f, rf), (g, rg) = (_rand_pair(rng, nvars, rng.randint(0, 5), 3, rational, signed) for _ in range(2))
        _same(f, rf)
        _same(f + g, rf + rg)
        _same(f - g, rf - rg)
        _same(f - f, rf - rf)
        _same(f * g, rf * rg)
        k = rng.randint(0, 3)
        _same(poly_pow(f, k), rf ** k)
        exps = tuple(rng.randint(-1, 2) for _ in range(nvars))
        coeff = _rand_coeff(rng, True)
        _same(f.term_mul(exps, coeff), rf.term_mul(exps, coeff))
        _same(f * coeff, rf.term_mul((0,) * nvars, coeff))
        _same(monic(f), rf.monic())
        # equality and hashing do not see how a coefficient was written
        same = Poly(nvars, {e: Fraction(c) for e, c in f.terms.items()})
        assert same == f and hash(same) == hash(f)
        assert (f == g) == (f.terms == g.terms)
        if not signed and g.terms:
            product = f * g
            assert product.exact_divide(g) == f
            q = (product + Poly.constant(nvars, 1)).exact_divide(g)
            ref_q = (rf * rg + _FractionPoly(nvars, {(0,) * nvars: 1})).exact_divide(rg)
            assert (q is None) == (ref_q is None)
            if q is not None:
                _same(q, ref_q)
            checked += 1
    assert checked > 100


def test_normal_form_matches_fraction_reference():
    rng = random.Random(43)
    for trial in range(120):
        nvars = rng.randint(1, 3)
        rational = trial % 2 == 1
        basis = [_rand_pair(rng, nvars, rng.randint(1, 3), 2, rational) for _ in range(rng.randint(1, 3))]
        basis = [(g, rg) for g, rg in basis if g.terms]
        f, rf = _rand_pair(rng, nvars, 6, 4, rational)
        # non-monic divisors as well as the monic ones of a Groebner basis
        for divisors, refs in (
            ([g for g, _ in basis], [rg for _, rg in basis]),
            ([monic(g) for g, _ in basis], [rg.monic() for _, rg in basis]),
        ):
            _same(normal_form(f, divisors), rf.normal_form(refs))


def test_integer_polys_stay_integer():
    rng = random.Random(47)
    for _ in range(50):
        f, _ = _rand_pair(rng, 3, 4, 3, False)
        g, _ = _rand_pair(rng, 3, 3, 2, False)
        for p in (f + g, f * g, poly_pow(f, 3), f.term_mul((1, -1, 0), 7)):
            assert all(type(c) is int for c in p.terms.values())
    assert Poly(2, {(1, 0): Fraction(4, 2)}).terms == {(1, 0): 2}
    assert type(Poly(2, {(1, 0): Fraction(4, 2)}).terms[1, 0]) is int
    assert type(Poly.monomial((1, 1), True).terms[1, 1]) is int
    assert monic(Poly.linear_form((2, 4))).terms == {(1, 0): 1, (0, 1): 2}
    assert monic(Poly.linear_form((3, 4))).terms == {(1, 0): 1, (0, 1): Fraction(4, 3)}


def test_float_coefficients_raise():
    f = Poly.linear_form((1, 2))
    for make in (
        lambda: Poly(2, {(1, 0): 0.5}),
        lambda: Poly(2, {(1, 0): 0.0}),
        lambda: Poly.constant(2, 1.0),
        lambda: Poly.monomial((1, 0), 2.0),
        lambda: Poly.linear_form((1.0, 2)),
        lambda: f * 0.5,
        lambda: 0.5 * f,
        lambda: f.term_mul((0, 1), 1.5),
    ):
        with pytest.raises(TypeError):
            make()


def test_exact_div():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-6, 4) == Fraction(-3, 2)
    assert exact_div(7, -7) == -1 and type(exact_div(7, -7)) is int
    assert exact_div(Fraction(3, 2), Fraction(1, 2)) == 3 and type(exact_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert exact_div(1, Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_linear_form_product_matches_chained_products():
    # the Kronecker-packed product against a chain of Poly products: k = 1-4
    # variables, negative and zero coefficients, zero exponents, and rows
    # over a denominator (a relation row), divided once at the end
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        k = draw(st.integers(1, 4))
        count = draw(st.integers(1, 4))
        row = st.tuples(*[st.integers(-6, 6)] * k)
        rows = draw(st.lists(row, min_size=count, max_size=count))
        exps = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
        dens = draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
        return rows, exps, dens

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        rows, exps, dens = case
        k = len(rows[0])
        chained, over = Poly.constant(k, 1), Poly.constant(k, 1)
        scale = 1
        for row, e, den in zip(rows, exps, dens):
            for _ in range(e):
                chained = chained * Poly.linear_form(row)
                over = over * Poly.linear_form([Fraction(c, den) for c in row])
            scale *= den ** e
        packed = linear_form_product(rows, exps)
        assert packed.nvars == k and packed == chained
        assert all(type(c) is int for c in packed.terms.values())
        assert Poly(k, {e: exact_div(c, scale) for e, c in packed.terms.items()}) == over

    check()


def test_linear_form_product_edge_cases():
    assert linear_form_product([(3,), (-2,)], (2, 3)) == Poly(1, {(5,): 9 * -8})
    assert linear_form_product([(1, 2), (0, 5)], (0, 0)) == Poly.constant(2, 1)
    assert linear_form_product([(0, 0, 0), (1, 1, 1)], (2, 1)).is_zero()
    # coefficients right at the bound: (x + y)^8 peaks at 70, (x - y)^8 at -70
    assert linear_form_product([(1, 1)], (8,)) == poly_pow(Poly.linear_form((1, 1)), 8)
    assert linear_form_product([(1, -1)], (8,)) == poly_pow(Poly.linear_form((1, -1)), 8)


def _exact_rank(rows):
    return len(rref(rows)[1]) if rows else 0


def test_rank_mod_p_matches_exact_rank():
    # seeded integer matrices: wide and tall, entries up to 80 bits and
    # negative, and products through a narrower inner dimension, so that many
    # have less than full rank
    rng = random.Random(59)
    deficient = full = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        bits = rng.choice((3, 20, 80))
        inner = rng.randint(1, min(nrows, ncols)) if rng.random() < 0.5 else None
        rows = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(inner or ncols)] for _ in range(nrows)]
        if inner:
            b = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in rows]
        rank = _exact_rank(rows)
        assert rank_mod_p(rows, ncols) == rank, rows
        deficient += rank < min(nrows, ncols)
        full += rank == ncols
    assert deficient >= 30 and full >= 30


def test_rank_mod_p_stops_at_full_rank():
    def rows():
        yield [0, 1]
        yield [1, 5]
        raise AssertionError("read past full rank")

    assert rank_mod_p(rows(), 2) == 2
    assert rank_mod_p([], 3) == 0
    assert rank_mod_p([[0, 0], [RANK_PRIME, -RANK_PRIME]], 2) == 0
    # rank 1 mod p, rank 2 over Q: a prime can only lower a rank
    bad = [[1, 1], [1, 1 + RANK_PRIME]]
    assert rank_mod_p(bad, 2) == 1 and _exact_rank(bad) == 2


def test_rank_mod_p_refuses_columns_that_could_carry():
    # from 2^24 columns a row's steps could carry out of a 64-bit slot
    with pytest.raises(ValueError):
        rank_mod_p([], 1 << 24)


def _span_rank(polys):
    """The exact rank of the coefficient vectors of `polys`: the pivot count
    of the brute backend's fraction-free span."""
    span = _Span()
    return sum(span.add(p.terms) for p in polys)


def _least_block(km):
    """The cleared restrictions of the module's generators of least degree,
    built here from the generators and their floor."""
    gens = km.module.generators()
    floor = [max(0, -min(column)) for column in zip(*gens)]
    return [km.subspace.form_product(tuple(a + t for a, t in zip(g, floor)))
            for g in gens if sum(g) == sum(gens[0])]


def test_rank_mod_p_on_cleared_blocks(T_monotone, T_p12, T_cp2, T_cp3, T_cube):
    # the least-degree block of the cleared generator restrictions of every
    # conftest K/K0 module at windows 4 and 6, where membership decides at
    # W = 2 and 4: the rows of the one m^D test per module; the rank mod p
    # is the exact rank, by rref and by the span's pivot count
    checked = full = 0
    for T in (T_monotone, T_p12, T_cp2, T_cp3, T_cube):
        for maker in (kernel_K, kernel_K0):
            for window in (4, 6):
                km = maker(T, Fraction(1, 2), window)
                if km.subspace.is_zero_ring():
                    continue
                block = _least_block(km)
                monomials = list(monomials_of_degree(km.subspace.dim, block[0].total_degree()))
                rows = [[g.terms.get(e, 0) for e in monomials] for g in block]
                rank = _exact_rank(rows)
                assert rank_mod_p(rows, len(monomials)) == rank, (T.n, maker, window)
                assert _span_rank(block) == rank
                assert (maximal_ideal_power(block) is not None) == (rank == len(monomials))
                assert (_cleared_generators(km)[3] is not None) == (rank == len(monomials))
                checked += 1
                full += rank == len(monomials) < len(rows)
    # full with rows to spare: the K0 blocks of the two squares (rank 1) and
    # of the cube (60 and 126 rows, ranks 27 and 39)
    assert checked == 16 and full == 6


def test_rank_mod_p_on_the_cube_slices(T_cube):
    # the brute backend's graded slices of the cube's K0 module at window 6
    # (m^38, 126 generator restrictions in 2 coordinates), degrees 38-40:
    # every generator times every monomial of the missing degree, rank mod p
    # against the span's pivot count
    km = kernel_K0(T_cube, Fraction(1, 2), 6)
    cleared = _least_block(km)
    assert len(cleared) == 126
    for degree in (38, 39, 40):
        monomials = list(monomials_of_degree(2, degree))
        columns = [g.term_mul(a) for g in cleared for a in monomials_of_degree(2, degree - g.total_degree())]
        rows = [[c.terms.get(e, 0) for e in monomials] for c in columns]
        assert rank_mod_p(rows, len(monomials)) == _span_rank(columns) == len(monomials) < len(columns)
