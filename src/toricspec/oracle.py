"""Exact translated-spectrum oracle for diagonal torus maps with a sign twist.

The map z -> -exp(mu) z acts coordinatewise by the phase e^{i pi} e^{2 pi i
mu_j}.  A shift value s is realized exactly when some kernel-algebra element
lam satisfies the half-integer condition on a feasible support set (the
coordinates that can carry a ray meeting the momentum level) and p(lam) = -s.
Per support the solutions form an affine lattice, so the spectrum is a finite
union of arithmetic progressions of rationals, computed exactly: feasibility
by Fourier-Motzkin, the congruence by Hermite-form descent, the value group
by rational gcds.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm

from toricspec.lattice import integer_kernel, solve_integer, solve_rational, transpose
from toricspec.polytope import ToricData, ToricHypothesisError, rational_feasible, rationality_check


@dataclass(frozen=True)
class DiagonalMap:
    """z -> -exp(mu) z; `twisted=False` drops the global sign."""

    mu: tuple[Fraction, ...]
    twisted: bool = True


@dataclass(frozen=True)
class SpectrumClass:
    support: tuple[int, ...]          # 1-based coordinate indices
    base: Fraction                    # one realized shift value
    step: Fraction                    # generator of the value group (0 = isolated)
    witness_lambda: tuple[Fraction, ...]  # kernel-basis coordinates realizing base


@dataclass(frozen=True)
class SpectrumReport:
    window: tuple[Fraction, Fraction]
    values: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]
    classes: tuple[SpectrumClass, ...]
    period_check: bool
    boundary_hits: tuple[Fraction, ...] = field(default_factory=tuple)


def feasible_supports(toric: ToricData) -> list[tuple[int, ...]]:
    """Minimal coordinate sets S for which {x >= 0 on S, 0 off S, iota^T x = p}
    is solvable (exact rational feasibility)."""
    n, k = toric.n, toric.k
    found: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if any(set(prev).issubset(subset) for prev in found):
                continue
            eqs = []
            for i in range(k):
                coeffs = [Fraction(0)] * size
                for pos, j in enumerate(subset):
                    coeffs[pos] = Fraction(toric.iota[j][i])
                eqs.append((tuple(coeffs), -toric.p[i]))
            ineqs = [
                (tuple(Fraction(pos == t) for pos in range(size)), Fraction(0))
                for t in range(size)
            ]
            if rational_feasible(eqs, ineqs, size):
                found.append(subset)
    return sorted(tuple(j + 1 for j in subset) for subset in found)


def _fraction_gcd(values) -> Fraction:
    """Generator of the additive subgroup of Q spanned by the values."""
    nums = [v for v in values if v]
    if not nums:
        return Fraction(0)
    denom = 1
    for v in nums:
        denom = lcm(denom, v.denominator)
    g = 0
    for v in nums:
        g = gcd(g, int(v * denom))
    return Fraction(g, denom)


def _support_class(toric: ToricData, dmap: DiagonalMap, support) -> SpectrumClass | None:
    """Solve the phase congruence on one support; None when unsatisfiable."""
    k = toric.k
    idx = [j - 1 for j in support]
    rows = [toric.iota[j] for j in idx]  # |S| x k
    half = Fraction(1, 2) if dmap.twisted else Fraction(0)
    c = [half - dmap.mu[j] for j in idx]
    left_kernel = integer_kernel(transpose(tuple(rows))).vectors
    if left_kernel:
        d = []
        for b in left_kernel:
            val = -sum((Fraction(bi) * ci for bi, ci in zip(b, c)), Fraction(0))
            if val.denominator != 1:
                return None
            d.append(int(val))
        z0 = solve_integer(tuple(left_kernel), d)
        if z0 is None:
            return None
        lattice = integer_kernel(tuple(left_kernel)).vectors
    else:
        z0 = (0,) * len(idx)
        lattice = tuple(
            tuple(1 if t == s else 0 for t in range(len(idx))) for s in range(len(idx))
        )
    # any rational x with iota_S^T x = p computes the value of p on solutions
    a_rows = [[Fraction(rows[t][i]) for t in range(len(idx))] for i in range(k)]
    x = solve_rational(a_rows, list(toric.p))
    if x is None:
        return None
    y0 = [ci + zi for ci, zi in zip(c, z0)]
    base = -sum((xi * yi for xi, yi in zip(x, y0)), Fraction(0))
    step = _fraction_gcd(
        [sum((xi * Fraction(ki) for xi, ki in zip(x, kappa)), Fraction(0)) for kappa in lattice]
    )
    lam = solve_rational([[Fraction(r[i]) for i in range(k)] for r in rows], y0)
    if lam is None:
        return None
    return SpectrumClass(
        support=tuple(support), base=base, step=step, witness_lambda=tuple(lam)
    )


def _class_values_in(cls: SpectrumClass, lo: Fraction, hi: Fraction):
    if cls.step == 0:
        return [cls.base] if lo <= cls.base <= hi else []
    t0 = -floor((cls.base - lo) / cls.step)   # ceil((lo - base)/step)
    out = []
    t = t0
    while cls.base + t * cls.step <= hi:
        v = cls.base + t * cls.step
        if v >= lo:
            out.append(v)
        t += 1
    return out


def spectrum(toric: ToricData, dmap: DiagonalMap, window) -> SpectrumReport:
    """All realized shift values in the closed rational window, with the
    supports realizing each value."""
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    if len(dmap.mu) != toric.n:
        raise ValueError("mu length must match the facet count")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty (lo > hi)")
    classes = []
    for support in feasible_supports(toric):
        cls = _support_class(toric, dmap, support)
        if cls is not None:
            classes.append(cls)
    by_value: dict[Fraction, set] = {}
    for cls in classes:
        for v in _class_values_in(cls, lo, hi):
            by_value.setdefault(v, set()).add(cls.support)
    values = tuple(
        (v, tuple(sorted(by_value[v]))) for v in sorted(by_value)
    )
    period = all(cls.step != 0 and (Fraction(1) / cls.step).denominator == 1 for cls in classes)
    return SpectrumReport(
        window=(lo, hi),
        values=values,
        classes=tuple(classes),
        period_check=period,
    )


def count_in_period(toric: ToricData, dmap: DiagonalMap, nu) -> int:
    """|spectrum in [nu, nu + 1)| -- half-open, so a boundary hit at nu counts."""
    return len(count_report(toric, dmap, nu).values)


def count_report(toric: ToricData, dmap: DiagonalMap, nu) -> SpectrumReport:
    """Like count_in_period but returning the full report with boundary flags."""
    nu = Fraction(nu)
    report = spectrum(toric, dmap, (nu, nu + 1))
    boundary = tuple(v for v, _ in report.values if v == nu)
    values = tuple((v, s) for v, s in report.values if v < nu + 1)
    return SpectrumReport(
        window=report.window,
        values=values,
        classes=report.classes,
        period_check=report.period_check,
        boundary_hits=boundary,
    )
