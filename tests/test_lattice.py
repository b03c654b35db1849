import random
from fractions import Fraction
from itertools import product

import pytest

from toricspec.lattice import (
    common_denominator,
    det,
    hermite_normal_form,
    identity_matrix,
    integer_kernel,
    is_primitive,
    mat_vec,
)

from tests.reference import fraction_unimodular_inverse, in_integer_span, rref


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


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
                assert in_integer_span(basis.vectors, x), (m, x)


def test_primitive():
    assert is_primitive((1, -1))
    assert not is_primitive((2, 4))
    assert is_primitive((3, 5))
    with pytest.raises(ValueError):
        is_primitive((0, 0))
    # negative entries: the gcd is of absolute values
    assert is_primitive((-2, 3)) and not is_primitive((-4, -6, 0))


def test_common_denominator():
    assert common_denominator((3, -4, 0)) == (1, [3, -4, 0])
    assert common_denominator((Fraction(-1, 2), Fraction(-2, 3))) == (6, [-3, -4])
    assert common_denominator([Fraction(5, 4), 2, Fraction(-1, 6)]) == (12, [15, 24, -2])
    assert common_denominator([]) == (1, [])
    den, nums = common_denominator([Fraction(7, 10), Fraction(-3, 4), 1])
    assert [Fraction(x, den) for x in nums] == [Fraction(7, 10), Fraction(-3, 4), 1]


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
        # the column Hermite form of a unimodular matrix is I = M U
        h, u = hermite_normal_form(m)
        assert abs(det(m)) == 1 and h == identity_matrix(n)
        assert mat_mul(u, m) == identity_matrix(n)
    for bad in (((2,),), ((1, 1), (1, 1)), ((1, 0), (0, 3))):
        assert hermite_normal_form(bad)[0] != identity_matrix(len(bad))


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
            assert hermite_normal_form(m) == (identity_matrix(n), fraction_unimodular_inverse(m))
    for _ in range(40):
        n = rng.randint(2, 6)
        m = [list(row) for row in random_unimodular(rng, n, 3 * n)]
        doubled = tuple(tuple(2 * x for x in row) if i == 0 else tuple(row) for i, row in enumerate(m))
        singular = tuple(tuple(row) for row in m[:-1]) + (tuple(-2 * x for x in m[0]),)
        assert abs(det(doubled)) == 2 and det(singular) == 0
        for bad in (doubled, singular):
            assert hermite_normal_form(bad)[0] != identity_matrix(n)
            with pytest.raises(ValueError):
                fraction_unimodular_inverse(bad)


def _seeded_matrix(rng, rows, cols):
    """A seeded rows x cols integer matrix: half the time with random entries,
    else a product through an inner dimension below min(rows, cols), so that
    its rank is not full."""
    if rng.random() < 0.5:
        return tuple(tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
    inner = rng.randint(0, min(rows, cols) - 1)
    a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) if inner else (0,) * cols
                 for row in a)


def test_hnf_column_lattice_matches_sympy():
    # sympy returns only the nonzero columns, in its own triangular
    # convention, so the column lattices are compared: each basis lies in the
    # other's integer span, and both have the rank of the matrix
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    rng = random.Random(61)
    deficient = 0
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _seeded_matrix(rng, rows, cols)
        h, _ = hermite_normal_form(m)
        ours = [col for col in zip(*h) if any(col)]
        theirs_matrix = sympy_hnf(sympy.Matrix(m))
        theirs = [tuple(int(x) for x in theirs_matrix.col(j)) for j in range(theirs_matrix.cols)]
        rank = len(rref(m)[1])
        assert len(ours) == len(theirs) == rank, m
        assert all(in_integer_span(theirs, col) for col in ours), m
        assert all(in_integer_span(ours, col) for col in theirs), m
        deficient += rank < min(rows, cols)
    assert deficient >= 30
