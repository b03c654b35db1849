"""Exact translated-spectrum oracle for diagonal torus maps with a sign twist.

The map z -> -exp(mu) z acts coordinatewise by the phase e^{i pi} e^{2 pi i
mu_j}.  A shift value s is realized exactly when some kernel-algebra element
lam satisfies the half-integer condition on a feasible support set (the
coordinates that can carry a ray meeting the momentum level) and p(lam) = -s.
Per support the solutions form an affine lattice, so the spectrum is a finite
union of arithmetic progressions of rationals, computed exactly: the minimal
feasible supports are the complements of the vertices' facet sets, and each
support's class takes one inverse of a unimodular minor of iota, read from
its Hermite form, with the value group given by a rational gcd.

The work is in integers.  The phases 1/2 - mu_j are cleared once per map, to
numerators c_j over one denominator D, and each support's base is one integer
dot product with the minor's numerators of p.  A window or period is listed as
integer ranges over one common denominator, counted in closed form first and
refused above VALUE_LIMIT values; a `Fraction` is built only for each value
listed.
"""

from fractions import Fraction
from math import gcd, lcm

from toricspec.lattice import common_denominator, hermite_normal_form, identity_matrix
from toricspec.memo import Value, memo
from toricspec.polytope import ToricData, check_hypotheses

# A listing counts the values of every class, and a report prints two lines per
# distinct value: the square with mu = (1/4, 0, 0, 0) has four classes of step
# 1, and over the window 0:249999 its 999,998 class values give 499,999
# distinct ones, printed in 4.1 s at a peak RSS of 266 MB (one run on a shared
# 2-core machine).
VALUE_LIMIT = 1_000_000


class DiagonalMap(Value):
    """z -> -exp(mu) z; `twisted=False` drops the global sign."""

    mu: tuple[Fraction, ...]
    twisted: bool = True


class SpectrumClass(Value):
    support: tuple[int, ...]          # 1-based coordinate indices
    base: Fraction                    # one realized shift value
    step: Fraction                    # generator of the value group (0 = isolated)


class SpectrumReport(Value):
    window: tuple[Fraction, Fraction]
    values: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]
    classes: tuple[SpectrumClass, ...]
    period_check: bool
    boundary_hits: tuple[Fraction, ...] = ()


def feasible_supports(toric: ToricData) -> list[tuple[int, ...]]:
    """Minimal coordinate sets S for which {x >= 0 on S, 0 off S, iota^T x = p}
    is solvable.

    Since p = iota^T a and ker iota^T = im beta^T, the set {x >= 0, iota^T x = p}
    is the polytope embedded as x = a + beta^T y, and x_j vanishes exactly on
    the facets through y.  The minimal supports are therefore the complements
    of the vertices' active facet sets.
    """
    return sorted(
        tuple(j + 1 for j in range(toric.n) if j not in facets)
        for facets in toric.vertex_facets
    )


def _vertex_minor(toric: ToricData, support):
    """The mu-independent part of a support's class: iota_S^-1, the integer
    numerators of x = iota_S^-T p over the denominator of p, and the step.

    The inverse is the transform U of the column Hermite form H = iota_S U:
    H is the identity exactly when the minor is unimodular.  Built once per
    support (memo kind `vertex_minor`)."""
    def build():
        h, inv = hermite_normal_form(tuple(toric.iota[j - 1] for j in support))
        if h != identity_matrix(toric.k):
            raise ValueError("matrix is not unimodular")
        p_den, p_num = common_denominator(toric.p)
        x_num = tuple(sum(row[t] * pi for row, pi in zip(inv, p_num)) for t in range(toric.k))
        return inv, x_num, p_den, Fraction(gcd(*x_num), p_den)

    return memo("vertex_minor", (toric, support), build)


def _phases(dmap: DiagonalMap) -> tuple[int, list[int]]:
    """(D, c): the phases 1/2 - mu_j (-mu_j untwisted) as c_j / D, with D the
    lcm of 2 (1 untwisted) and the denominators of mu."""
    den = lcm(2 if dmap.twisted else 1, *(m.denominator for m in dmap.mu))
    half = den // 2 if dmap.twisted else 0
    return den, [half - m.numerator * (den // m.denominator) for m in dmap.mu]


def _support_class(toric: ToricData, support, den: int, c: list[int]) -> SpectrumClass:
    """Solve the phase congruence iota_S lam in c_S / D + Z^k on one support.

    The support is the complement of a Delzant vertex's facets, so the k x k
    minor iota_S is unimodular: the solutions are lam = iota_S^-1 (c_S / D + z)
    for z in Z^k, and their values -p(lam) = -x.(c_S / D + z), with
    x = iota_S^-T p, form base + step Z.  The base is one integer dot product
    over p_den * D.
    """
    _, x_num, p_den, step = _vertex_minor(toric, support)
    return SpectrumClass(support, Fraction(-sum(xi * c[j - 1] for xi, j in zip(x_num, support)), p_den * den), step)


def witness_lambda(toric: ToricData, dmap: DiagonalMap, support) -> tuple[Fraction, ...]:
    """Kernel-basis coordinates lam = iota_S^-1 c_S of an element realizing
    the base of the class of `support`, a vertex support of `toric`."""
    support = tuple(support)
    inv = _vertex_minor(toric, support)[0]
    den, c = _phases(dmap)
    return tuple(Fraction(sum(a * c[j - 1] for a, j in zip(row, support)), den) for row in inv)


def spectrum_classes(toric: ToricData, dmap: DiagonalMap) -> tuple[SpectrumClass, ...]:
    """One class per minimal feasible support: the values it realizes are
    base + step Z."""
    check_hypotheses(toric)
    if len(dmap.mu) != toric.n:
        raise ValueError("mu length must match the facet count")
    den, c = _phases(dmap)
    return tuple(_support_class(toric, support, den, c) for support in feasible_supports(toric))


def _listing(classes, lo: Fraction, hi: Fraction, closed: bool):
    """The classes' values in [lo, hi] (closed) or [lo, hi), each with the
    sorted supports realizing it.

    Over the lcm L of the ends' and the classes' denominators it is integer
    work: a class base + step Z with step s > 0 meets the range in the values
    from its first point at or above lo L up to the top by s, and a class with
    step 0 in its base alone, if that lies in the range.  Every class's count
    is taken in closed form before any value is listed, and more than
    VALUE_LIMIT in all raise ValueError.
    """
    scale, (lo_n, top, *nums) = common_denominator(
        [lo, hi, *(x for cls in classes for x in (cls.base, cls.step))]
    )
    if not closed:
        top -= 1  # the values are integers: v < hi L is v <= hi L - 1
    ranges = []
    for b, s in zip(nums[::2], nums[1::2]):
        if s:
            first = b - (b - lo_n) // s * s
            ranges.append((first, max(0, (top - first) // s + 1), s))
        else:
            ranges.append((b, int(lo_n <= b <= top), 1))
    count = sum(r[1] for r in ranges)
    if count > VALUE_LIMIT:
        raise ValueError(f"class value count {count} is above the limit {VALUE_LIMIT}")
    by_value: dict[int, set] = {}
    for cls, (first, size, s) in zip(classes, ranges):
        for v in range(first, first + size * s, s):
            by_value.setdefault(v, set()).add(cls.support)
    return tuple((Fraction(v, scale), tuple(sorted(by_value[v]))) for v in sorted(by_value))


def _period_check(classes) -> bool:
    return all(cls.step.numerator == 1 for cls in classes)


def window_report(classes, window) -> SpectrumReport:
    """The classes' values in the closed rational window, with the supports
    realizing each value."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty (lo > hi)")
    return SpectrumReport(
        window=(lo, hi),
        values=_listing(classes, lo, hi, closed=True),
        classes=tuple(classes),
        period_check=_period_check(classes),
    )


def period_report(classes, nu) -> SpectrumReport:
    """The classes' values in the half-open period [nu, nu + 1), with a value
    at nu flagged as a boundary hit."""
    nu = Fraction(nu)
    values = _listing(classes, nu, nu + 1, closed=False)
    return SpectrumReport(
        window=(nu, nu + 1),
        values=values,
        classes=tuple(classes),
        period_check=_period_check(classes),
        boundary_hits=tuple(v for v, _ in values[:1] if v == nu),
    )
