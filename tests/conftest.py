from fractions import Fraction

import pytest

from toricspec.oracle import class_set, listing
from toricspec.polytope import DelzantPolytope, toric_data

H = Fraction(1, 2)


def window_values(toric, dmap, lo, hi, closed=True):
    """The map's spectrum values in [lo, hi] ([lo, hi) when not `closed`), as
    Fractions, each with the sorted supports realizing it."""
    scale, values = listing(class_set(toric, dmap), Fraction(lo), Fraction(hi), closed)
    return [(Fraction(v, scale), supports) for v, supports in values]


def period_values(toric, dmap, nu):
    """The map's spectrum values in the period [nu, nu + 1)."""
    return window_values(toric, dmap, nu, Fraction(nu) + 1, closed=False)


def cp1xcp1(offsets=(H, H, H, H)) -> DelzantPolytope:
    """Square with conormals e1, -e1, e2, -e2."""
    return DelzantPolytope(
        d=2,
        facets=(
            ((1, 0), offsets[0]),
            ((-1, 0), offsets[1]),
            ((0, 1), offsets[2]),
            ((0, -1), offsets[3]),
        ),
    )


def cpn_simplex(n: int, scale=None) -> DelzantPolytope:
    """Standard simplex for projective n-space; offsets chosen so p = 1."""
    if scale is None:
        scale = Fraction(1, n + 1)
    conormals = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        conormals.append(tuple(e))
    conormals.append(tuple([-1] * n))
    return DelzantPolytope(d=n, facets=tuple((v, Fraction(scale)) for v in conormals))


def cube3(offset=H) -> DelzantPolytope:
    return DelzantPolytope(
        d=3,
        facets=(
            ((1, 0, 0), offset),
            ((-1, 0, 0), offset),
            ((0, 1, 0), offset),
            ((0, -1, 0), offset),
            ((0, 0, 1), offset),
            ((0, 0, -1), offset),
        ),
    )


@pytest.fixture(scope="session")
def T_monotone():
    return toric_data(cp1xcp1())


@pytest.fixture(scope="session")
def T_p12():
    return toric_data(cp1xcp1((H, H, Fraction(1), Fraction(1))))


@pytest.fixture(scope="session")
def T_cp2():
    return toric_data(cpn_simplex(2))


@pytest.fixture(scope="session")
def T_cp3():
    return toric_data(cpn_simplex(3))


@pytest.fixture(scope="session")
def T_cube():
    return toric_data(cube3())
