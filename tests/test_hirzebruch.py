"""A non-product monotone surface: trapezoid fan with N_M = 1.

Exercises asymmetric restriction coefficients (the kernel direction maps to
(2, -1, -3, 2)), a proportionality factor of 1, and supports of mixed shape.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from toricspec.lattice import mat_vec
from toricspec.laurent import kernel_K0, membership
from toricspec.minimal import (
    MinimalDegreeWitness,
    degree_floor_violations,
    translated_point_bound,
)
from toricspec.oracle import DiagonalMap, feasible_supports
from toricspec.polys import Poly
from toricspec.polytope import parse_polytope, toric_data, validate

from tests.conftest import period_values
from tests.reference import verify_witness

H = Fraction(1, 2)
POLY = Path(__file__).resolve().parent.parent / "polytopes"


@pytest.fixture(scope="module")
def T_hirz():
    return toric_data(parse_polytope((POLY / "hirzebruch_monotone.poly").read_text()))


def test_trapezoid_validates(T_hirz):
    rep = validate(T_hirz.polytope)
    assert rep.compact and rep.smooth
    assert len(rep.vertices) == 4


def test_reduction_data(T_hirz):
    assert T_hirz.kappa.vectors == ((1, 0, -1, 1), (0, 1, 1, 0))
    assert T_hirz.p == (Fraction(1), Fraction(2))
    assert T_hirz.chern == (1, 2)
    assert T_hirz.min_chern == 1
    assert T_hirz.k0.vectors == ((2, -1),)
    assert mat_vec(T_hirz.iota, T_hirz.k0.vectors[0]) == (2, -1, -3, 2)
    assert all(x >= 1 for x in mat_vec(T_hirz.iota, T_hirz.b))


def test_translated_point_bound_is_one(T_hirz):
    bound, witness = translated_point_bound(T_hirz)
    assert bound == 1
    assert isinstance(witness, MinimalDegreeWitness)
    km = kernel_K0(T_hirz, H, 2)
    assert verify_witness(witness, km)


def test_membership_respects_degree_floor(T_hirz):
    km = kernel_K0(T_hirz, H, 2)
    # module elements have homogeneity degree >= 1/2 * 1, so the constant and
    # every degree-0 monomial class stay out
    assert not membership(Poly.constant(4, 1), km)
    assert not membership(Poly.monomial((1, 0, 0, -1)), km)
    # generators are members
    for g in km.module.generators()[:6]:
        assert membership(Poly.monomial(g), km)
    violations, checked = degree_floor_violations(T_hirz, H, 2, box=2)
    assert violations == [] and checked > 0


def test_minimal_supports(T_hirz):
    # hand check: iota rows (1,0),(0,1),(-1,1),(1,0); x >= 0 on S solving
    # iota_S^T x = (1,2) exists exactly for these four sets
    assert feasible_supports(T_hirz) == [(1, 2), (1, 3), (2, 4), (3, 4)]


def test_spectrum_counts(T_hirz):
    mu = (Fraction(1, 5), Fraction(0), Fraction(0), Fraction(0))
    dmap = DiagonalMap(mu=mu)
    # independent solve: the four supports give residues 7/10, 1/10, 1/2, 1/2
    for nu in (Fraction(1, 7), Fraction(3, 7), Fraction(-15, 7)):
        count = len(period_values(T_hirz, dmap, nu))
        assert count == 3
        assert count >= T_hirz.min_chern
    assert len(period_values(T_hirz, DiagonalMap(mu=(Fraction(0),) * 4), Fraction(1, 7))) == 1
