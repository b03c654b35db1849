import random
from fractions import Fraction
from itertools import product

import pytest

from toricspec.lattice import (
    det,
    extends_to_lattice_basis,
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    is_primitive,
    mat_mul,
    mat_vec,
    nullspace_rational,
    rref,
    smith_invariants,
    solve_rational,
    transpose,
    unimodular_inverse,
)


def hnf_shape_ok(h):
    """Oracle for the column-Hermite convention: zero columns rightmost,
    pivot rows strictly increasing, pivots positive, row entries left of a
    pivot reduced into [0, pivot)."""
    rows = len(h)
    cols = len(h[0]) if rows else 0
    pivot_rows = []
    seen_zero = False
    for j in range(cols):
        col = [h[i][j] for i in range(rows)]
        if not any(col):
            seen_zero = True
            continue
        if seen_zero:
            return False
        r = next(i for i in range(rows) if col[i] != 0)
        if pivot_rows and r <= pivot_rows[-1]:
            return False
        pivot_rows.append(r)
        piv = h[r][j]
        if piv <= 0:
            return False
        for jj in range(j):
            if not (0 <= h[r][jj] < piv):
                return False
    return True


def check_hnf(m):
    h, u = hermite_normal_form(m)
    assert mat_mul(m, u) == h
    assert abs(det(u)) == 1
    assert hnf_shape_ok(h)
    return h, u


def test_hnf_worked_example():
    h, u = check_hnf(((2, 4), (0, 3)))
    assert h == ((2, 0), (0, 3))


def test_hnf_identity():
    ident = identity_matrix(3)
    h, u = hermite_normal_form(ident)
    assert h == ident
    assert u == ident


def test_hnf_single_row():
    h, u = check_hnf(((1, 1),))
    assert h == ((1, 0),)


def test_hnf_random_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
        check_hnf(m)


def test_kernel_diagonal_line():
    basis = integer_kernel(((1, -1),))
    assert basis.vectors == ((1, 1),)


def test_kernel_product_of_lines():
    basis = integer_kernel(((1, -1, 0, 0), (0, 0, 1, -1)))
    assert basis.vectors == ((1, 1, 0, 0), (0, 0, 1, 1))


def test_kernel_injective():
    assert integer_kernel(identity_matrix(2)).vectors == ()


def in_lattice(basis, x):
    """Oracle: x is an integer combination of the basis vectors (exact solve)."""
    if not basis.vectors:
        return not any(x)
    a = [[Fraction(v[i]) for v in basis.vectors] for i in range(basis.ambient_dim)]
    sol = solve_rational(a, x)
    return sol is not None and all(c.denominator == 1 for c in sol)


def test_kernel_exactness_and_saturation():
    rng = random.Random(515)
    for _ in range(40):
        rows = rng.randint(1, 2)
        cols = rng.randint(2, 3)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows))
        basis = integer_kernel(m)
        for v in basis.vectors:
            assert mat_vec(m, v) == (0,) * rows
        # brute force: every small integer solution lies in the returned lattice
        for x in product(range(-5, 6), repeat=cols):
            if mat_vec(m, x) == (0,) * rows:
                assert in_lattice(basis, x), (m, x)


def test_primitive():
    assert is_primitive((1, -1))
    assert not is_primitive((2, 4))
    assert is_primitive((3, 5))
    with pytest.raises(ValueError):
        is_primitive((0, 0))


def minors_gcd_oracle(vectors, dim):
    """Independent basis-extension oracle: gcd of all maximal minors is 1."""
    from itertools import combinations
    from math import gcd

    s = len(vectors)
    if s == 0:
        return True
    if s > dim:
        return False
    colmat = tuple(tuple(v[i] for v in vectors) for i in range(dim))
    g = 0
    for rows in combinations(range(dim), s):
        sub = tuple(colmat[r] for r in rows)
        g = gcd(g, abs(det(sub)))
    return g == 1


def test_extends_examples():
    assert extends_to_lattice_basis([(1, 0), (0, 1)], 2)
    assert not extends_to_lattice_basis([(2, 0)], 2)
    assert extends_to_lattice_basis([(1, 1), (0, 1)], 2)


def test_extends_matches_minor_oracle():
    rng = random.Random(99)
    for _ in range(150):
        dim = rng.randint(1, 4)
        s = rng.randint(1, dim)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(s)]
        assert extends_to_lattice_basis(vecs, dim) == minors_gcd_oracle(vecs, dim)


def test_smith_invariants_examples():
    assert smith_invariants(((1, 0), (0, 1))) == (1, 1)
    assert smith_invariants(((2, 0), (0, 3))) == (1, 6)
    assert smith_invariants(((2, 4), (4, 8))) == (2,)


def test_smith_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))
        inv = smith_invariants(m)
        assert all(x > 0 for x in inv)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        # product of the first i invariants equals the gcd of i x i minors
        from itertools import combinations
        from math import gcd

        for i in range(1, len(inv) + 1):
            g = 0
            for rsel in combinations(range(rows), i):
                for csel in combinations(range(cols), i):
                    sub = tuple(tuple(m[r][c] for c in csel) for r in rsel)
                    g = gcd(g, abs(det(sub)))
            prod = 1
            for x in inv[:i]:
                prod *= x
            assert g == prod


def test_rational_solvers():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    x = solve_rational(a, [Fraction(5), Fraction(6)])
    assert [sum(r * c for r, c in zip(row, x)) for row in a] == [Fraction(5), Fraction(6)]
    assert solve_rational([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                          [Fraction(0), Fraction(1)]) is None
    ns = nullspace_rational([[Fraction(1), Fraction(1), Fraction(0)]], 3)
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0


def test_unimodular_inverse():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        m = identity_matrix(n)
        for _ in range(4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            step = [list(row) for row in identity_matrix(n)]
            if i == j:
                step[i][i] = -1
            else:
                step[i][j] = rng.randint(-3, 3)
            m = mat_mul(m, tuple(tuple(row) for row in step))
        assert abs(det(m)) == 1
        assert mat_mul(unimodular_inverse(m), m) == identity_matrix(n)
    for bad in (((2,),), ((1, 1), (1, 1)), ((1, 0), (0, 3))):
        with pytest.raises(ValueError):
            unimodular_inverse(bad)


def fraction_unimodular_inverse(m):
    """Reference: RREF of [M | I] over Q, with integral output required."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)) or any(x.denominator != 1 for row in red for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x.numerator for x in row[n:]) for row in red)


def random_unimodular(rng, n, steps):
    """Product of random elementary integer matrices, rows then shuffled."""
    m = [list(row) for row in identity_matrix(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            f = rng.randint(-3, 3)
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return tuple(tuple(row) for row in m)


def test_unimodular_inverse_matches_fraction_reference():
    rng = random.Random(17)
    for n in range(1, 7):
        for _ in range(40):
            m = random_unimodular(rng, n, 3 * n)
            assert abs(det(m)) == 1
            assert unimodular_inverse(m) == fraction_unimodular_inverse(m)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = [list(row) for row in random_unimodular(rng, n, 3 * n)]
        doubled = tuple(tuple(2 * x for x in row) if i == 0 else tuple(row) for i, row in enumerate(m))
        singular = tuple(tuple(row) for row in m[:-1]) + (tuple(-2 * x for x in m[0]),)
        assert abs(det(doubled)) == 2 and det(singular) == 0
        for bad in (doubled, singular):
            for inverse in (unimodular_inverse, fraction_unimodular_inverse):
                with pytest.raises(ValueError):
                    inverse(bad)
