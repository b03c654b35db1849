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
"""

from fractions import Fraction
from math import gcd

from toricspec.lattice import common_denominator, hermite_normal_form, identity_matrix
from toricspec.memo import Value, memo
from toricspec.polytope import ToricData, check_hypotheses


class DiagonalMap(Value):
    """z -> -exp(mu) z; `twisted=False` drops the global sign."""

    mu: tuple[Fraction, ...]
    twisted: bool = True


class SpectrumClass(Value):
    support: tuple[int, ...]          # 1-based coordinate indices
    base: Fraction                    # one realized shift value
    step: Fraction                    # generator of the value group (0 = isolated)
    witness_lambda: tuple[Fraction, ...]  # kernel-basis coordinates realizing base


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
    H is the identity exactly when the minor is unimodular."""
    h, inv = hermite_normal_form(tuple(toric.iota[j - 1] for j in support))
    if h != identity_matrix(toric.k):
        raise ValueError("matrix is not unimodular")
    p_den, p_num = common_denominator(toric.p)
    x_num = tuple(sum(row[t] * pi for row, pi in zip(inv, p_num)) for t in range(toric.k))
    return inv, x_num, p_den, Fraction(gcd(*x_num), p_den)


def _support_class(toric: ToricData, dmap: DiagonalMap, support) -> SpectrumClass:
    """Solve the phase congruence iota_S lam in c + Z^k on one support.

    The support is the complement of a Delzant vertex's facets, so the k x k
    minor iota_S is unimodular: the solutions are lam = iota_S^-1 (c + z) for
    z in Z^k, and their values -p(lam) = -x.(c + z), with x = iota_S^-T p,
    form base + step Z.  The minor's part is built once per support (memo
    kind `vertex_minor`); both products with c run on integer numerators over
    a common denominator.
    """
    support = tuple(support)
    inv, x_num, p_den, step = memo("vertex_minor", (toric, support), lambda: _vertex_minor(toric, support))
    half = Fraction(1, 2) if dmap.twisted else Fraction(0)
    c_den, c_num = common_denominator([half - dmap.mu[j - 1] for j in support])
    return SpectrumClass(
        support=support,
        base=Fraction(-sum(xi * ci for xi, ci in zip(x_num, c_num)), p_den * c_den),
        step=step,
        witness_lambda=tuple(Fraction(sum(a * ci for a, ci in zip(row, c_num)), c_den) for row in inv),
    )


def spectrum_classes(toric: ToricData, dmap: DiagonalMap) -> tuple[SpectrumClass, ...]:
    """One class per minimal feasible support: the values it realizes are
    base + step Z."""
    check_hypotheses(toric)
    if len(dmap.mu) != toric.n:
        raise ValueError("mu length must match the facet count")
    return tuple(_support_class(toric, dmap, support) for support in feasible_supports(toric))


def window_report(classes, window) -> SpectrumReport:
    """The classes' values in the closed rational window, with the supports
    realizing each value.

    Over the lcm L of the window's and the classes' denominators it is
    integer work: a class base + step Z with step s > 0 meets [lo L, hi L] in
    the range from its first point at or above lo L up to hi L by s, and a
    class with step 0 in its base alone, if that lies in the window.
    """
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty (lo > hi)")
    scale, (lo_n, hi_n, *nums) = common_denominator(
        [lo, hi, *(x for cls in classes for x in (cls.base, cls.step))]
    )
    by_value: dict[int, set] = {}
    for cls, b, s in zip(classes, nums[::2], nums[1::2]):
        if s:
            values = range(b - (b - lo_n) // s * s, hi_n + 1, s)
        else:
            values = (b,) if lo_n <= b <= hi_n else ()
        for v in values:
            by_value.setdefault(v, set()).add(cls.support)
    return SpectrumReport(
        window=(lo, hi),
        values=tuple((Fraction(v, scale), tuple(sorted(by_value[v]))) for v in sorted(by_value)),
        classes=tuple(classes),
        period_check=all(cls.step.numerator == 1 for cls in classes),
    )


def period_report(classes, nu) -> SpectrumReport:
    """The classes' values in the half-open period [nu, nu + 1), with a value
    at nu flagged as a boundary hit."""
    nu = Fraction(nu)
    report = window_report(classes, (nu, nu + 1))
    boundary = tuple(v for v, _ in report.values if v == nu)
    values = tuple((v, s) for v, s in report.values if v < nu + 1)
    return SpectrumReport(
        window=report.window,
        values=values,
        classes=report.classes,
        period_check=report.period_check,
        boundary_hits=boundary,
    )
