"""The small integer kernels of the per-polytope build against references:
`lattice.det` (closed forms through 3 x 3, Bareiss above) and
`quadforms.floor_half_shift`."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from toricspec.lattice import det
from toricspec.quadforms import floor_half_shift

from tests.reference import leibniz_det


def seeded_matrices(seed):
    """(kind, matrix) for sizes 0-5: random ones with small and with large
    entries, singular ones (a row that is a combination of two others, or a
    zero row), ones with a zero leading entry that Bareiss must swap away, and
    every permutation matrix, whose zero pivots need a swap at each step."""
    rng = random.Random(seed)
    out = []
    for n in range(6):
        def rand(bound):
            return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]

        for _ in range(30):
            out.append(("random", rand(3)))
            out.append(("random", rand(10**6)))
        for _ in range(20 if n else 0):
            m = rand(4)
            if n >= 3:
                i, j, k = rng.sample(range(n), 3)
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
            else:
                m[rng.randrange(n)] = [0] * n
            out.append(("singular", m))
        for _ in range(20 if n >= 2 else 0):
            m = rand(3)
            m[0][0] = 0
            m[rng.randrange(1, n)][0] = rng.choice((-1, 1)) * rng.randint(1, 3)
            out.append(("swap", m))
        for perm in permutations(range(n)):
            out.append(("permutation", [[int(j == perm[i]) for j in range(n)] for i in range(n)]))
    return [(kind, tuple(map(tuple, m))) for kind, m in out]


def test_det_matches_the_leibniz_expansion():
    kinds = {}
    for kind, m in seeded_matrices(5):
        want = leibniz_det(m)
        assert det(m) == want, m
        kinds.setdefault((len(m), kind), []).append(want)
    # the singular ones are singular, and some with a zero leading entry are not
    assert all(not any(kinds[n, "singular"]) for n in range(1, 6))
    assert all(any(kinds[n, "swap"]) for n in range(2, 6))
    assert len(kinds[5, "permutation"]) == 120


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for _, m in seeded_matrices(6):
        n = len(m)
        assert det(m) == sympy.Matrix(n, n, [x for row in m for x in row]).det(), m


def test_floor_half_shift_is_floor_of_x_plus_one_half():
    rng = random.Random(9)
    values = [Fraction(a, 2) for a in range(-9, 10)]  # the half-integers and integers round up
    values += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 60)) for _ in range(2000)]
    values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)) for _ in range(200)]
    assert any(x.denominator == 2 and x < 0 for x in values)
    for x in values:
        assert floor_half_shift(x) == math.floor(x + Fraction(1, 2)), x
    assert floor_half_shift(Fraction(-1, 2)) == 0 and floor_half_shift(Fraction(1, 2)) == 1
