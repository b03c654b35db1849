"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.  Run with `pytest -s` to see the
lines as they complete."""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tests.conftest import cp1xcp1, cpn_simplex, cube3, period_values, window_values
from tests.reference import at_window, monic, stable_verdict, verify_witness
from toricspec.cli import run
from toricspec.lattice import identity_matrix
from toricspec.laurent import (
    ZERO_RING,
    kernel_K0,
    membership,
    novikov_shift,
    restrict,
    _verdict,
)
from toricspec.minimal import (
    MinimalDegreeWitness,
    degree_floor_violations,
    find_minimal_degree_element,
)
from toricspec.memo import replace
from toricspec.oracle import DiagonalMap, feasible_supports
from toricspec.polys import Poly
from toricspec.polytope import is_cpn, toric_data
from toricspec.quadforms import (
    assemble_numeric_form,
    front_coordinates,
    numeric_negative_index,
    spectrum as quad_spectrum,
)

H = Fraction(1, 2)
POLY = Path(__file__).resolve().parent.parent / "polytopes"


class Budget:
    def __init__(self, number, seconds, label):
        self.number = number
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.1f}s / budget {self.seconds}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded budget"
        return False


def cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def test_criterion_1_projective_space_exclusion():
    with Budget(1, 1.0, "projective-space exclusion (n = 1, 2, 3)"):
        for n, name in ((1, "cp1.poly"), (2, "cp2.poly"), (3, "cp3.poly")):
            data = toric_data(cpn_simplex(n))
            assert data.k0.vectors == ()
            assert is_cpn(data)
            km = kernel_K0(data, H, 2)
            assert km.ring == "ZeroRing"
            assert restrict(Poly.constant(data.n, 1), km.subspace) is ZERO_RING
            code, out = cli("bound", str(POLY / name))
            assert code == 2
            assert any("error=" in line and "projective" in line for line in out.splitlines())


def test_criterion_2_nonmonotone_whole_ring():
    with Budget(2, 30.0, "p = (1,2): the constant is a member at every level"):
        data = toric_data(cp1xcp1((H, H, Fraction(1), Fraction(1))))
        one = Poly.constant(4, 1)
        for nu in (Fraction(0), H, Fraction(1)):
            km = kernel_K0(data, nu, 2)
            # backend="both" asserts the two backends agree internally
            assert membership(one, km, backend="both")


def test_criterion_3_monotone_witness():
    with Budget(3, 60.0, "monotone square: minimal-degree witness at nu = 1/2"):
        data = toric_data(cp1xcp1())
        assert data.min_chern == 2
        witness = find_minimal_degree_element(data, H)
        assert isinstance(witness, MinimalDegreeWitness)
        km = kernel_K0(data, H, 2)
        target = restrict(Poly.monomial((1, 0, 0, 0)), km.subspace)
        assert monic(witness.restriction.numerator) == monic(target.numerator)
        assert not any(witness.restriction.denom_exps)
        assert verify_witness(witness, km)  # n + 1 verdicts on the bounded-degree backend


def test_criterion_4_spectrum_negative_index():
    np = pytest.importorskip("numpy")
    with Budget(4, 60.0, "negative index and spectrum match numerics (n <= 3, N <= 6)"):
        rng = random.Random(40_40)
        denominators = (3, 4, 5, 7, 8, 16)
        for n in (1, 2, 3):
            for N in (1, 2, 3, 4, 5, 6):
                iota = identity_matrix(n)
                done = 0
                while done < 50:
                    lam = tuple(
                        Fraction(rng.randint(-4 * N + 1, 4 * N - 1), rng.choice(denominators))
                        for _ in range(n)
                    )
                    if not all(-N < c < N for c in lam) or front_coordinates(lam):
                        continue
                    done += 1
                    sp = quad_spectrum(N, lam, iota)
                    m = assemble_numeric_form(N, lam, iota)
                    got = np.linalg.eigvalsh(m)
                    assert numeric_negative_index(got, tol=1e-9) == sp.negative_index
                    want = np.sort([e.numeric() for e in sp.eigenvalues])
                    assert np.max(np.abs(got - want)) < 1e-9


def test_criterion_5_degree_floor():
    with Budget(5, 120.0, "no monomial below degree r*N_M enters the level module"):
        for maker, box in ((cp1xcp1, 2), (cube3, 1)):
            data = toric_data(maker())
            for r in (H, Fraction(1), Fraction(3, 2)):
                violations, checked = degree_floor_violations(data, r, window=4, box=box)
                assert violations == []
                assert checked > 0


def test_criterion_6_novikov_equivariance():
    with Budget(6, 60.0, "shift action preserves membership (50 random pairs)"):
        rng = random.Random(66)
        data = toric_data(cp1xcp1())
        km = kernel_K0(data, H, 2)
        for _ in range(50):
            q = Poly(
                4,
                {
                    tuple(rng.randint(-2, 2) for _ in range(4)): Fraction(rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 2))
                },
            )
            m = (rng.randint(-2, 2), rng.randint(-2, 2))
            before = membership(q, km)
            moved = q.term_mul(data.iota_apply(m))
            after = membership(moved, replace(km, module=novikov_shift(km.module, m)))
            assert before == after


def test_criterion_7_spectrum_oracle():
    with Budget(7, 10.0, "diagonal-map spectrum: count, periodicity, shift"):
        data = toric_data(cp1xcp1())
        mu = (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(0))
        dmap = DiagonalMap(mu=mu)
        rng = random.Random(77)
        for _ in range(10):
            nu = Fraction(rng.randint(-60, 60), 16) + Fraction(1, 32)
            assert len(period_values(data, dmap, nu)) == 2 == data.min_chern
        for _ in range(5):
            lo = Fraction(rng.randint(-10, 10), 4)
            hi = lo + rng.randint(1, 3)
            r1 = window_values(data, dmap, lo, hi)
            r2 = window_values(data, dmap, lo + 1, hi + 1)
            assert [v + 1 for v, _ in r1] == [v for v, _ in r2]
            # every class steps by 1: one (value, support) pair per vertex per period
            pairs = sum(len(supports) for _, supports in period_values(data, dmap, lo))
            assert pairs == len(feasible_supports(data))
        for _ in range(10):
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            shift = data.p_value(m)
            moved = tuple(a + Fraction(b) for a, b in zip(mu, data.iota_apply(m)))
            r_moved = window_values(data, DiagonalMap(mu=moved), -2, 2)
            r_base = window_values(data, dmap, -2 + shift, 2 + shift)
            assert [v for v, _ in r_moved] == [v - shift for v, _ in r_base]


def test_criterion_8_backend_agreement():
    with Budget(8, 300.0, ">= 100 randomized dual-backend membership queries"):
        rng = random.Random(88)
        fixtures = [
            (toric_data(cp1xcp1()), kernel_K0),
            (toric_data(cp1xcp1((H, H, Fraction(1), Fraction(1)))), kernel_K0),
            (toric_data(cpn_simplex(2)), None),  # K-side module, n = 3
        ]
        from toricspec.laurent import kernel_K

        count = 0
        for data, maker in fixtures:
            maker = maker or kernel_K
            for nu in (Fraction(0), H, Fraction(1), Fraction(3, 2)):
                km = maker(data, nu, 2)
                for _ in range(9):
                    q = Poly(
                        data.n,
                        {
                            tuple(rng.randint(-3, 3) for _ in range(data.n)): Fraction(
                                rng.randint(-5, 5)
                            )
                            for _ in range(rng.randint(1, 3))
                        },
                    )
                    # both full backends at every window, past the degree test;
                    # raises BackendMismatchError on any disagreement
                    verdict, _ = stable_verdict(
                        lambda w: _verdict(q, at_window(km, w), "both")[0], 2
                    )
                    assert membership(q, km, backend="both") == verdict
                    count += 1
        assert count >= 100
