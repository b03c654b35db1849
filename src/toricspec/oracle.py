"""Exact translated-spectrum oracle for diagonal torus maps with a sign twist.

The map z -> -exp(mu) z acts coordinatewise by the phase e^{i pi} e^{2 pi i
mu_j}.  A shift value s is realized exactly when some kernel-algebra element
lam satisfies the half-integer condition on a feasible support set (the
coordinates that can carry a ray meeting the momentum level) and p(lam) = -s.
Per support the solutions form an affine lattice, so the spectrum is a finite
union of arithmetic progressions of rationals, computed exactly: the minimal
feasible supports are the complements of the vertices' facet sets, and each
support's class takes one inverse of a unimodular minor of iota, read from
its Hermite form, with the value group given by an integer gcd.

The work is in integers.  The minors are one memo entry per polytope (kind
`vertex_minor`), and the phases 1/2 - mu_j are cleared once per map to c_j / D,
so a map's classes are one integer class set over L = p_den D.  A window or
period lists it as integer ranges over lcm(L, the ends' denominators), counted
in closed form first and refused above VALUE_LIMIT values.  `spectrum_classes`,
`window_report` and `period_report` are `Fraction` views of the same listing.
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
    return sorted(tuple(j + 1 for j in range(toric.n) if j not in facets) for facets in toric.vertex_facets)


def _vertex_minors(toric: ToricData):
    """(p_den, {support: (iota_S^-1, x_num, gcd of x_num)}) over the feasible supports
    in order, with x = iota_S^-T p = x_num / p_den.  The inverse is the transform U
    of the column Hermite form H = iota_S U, the identity exactly when the minor is
    unimodular.  Built once per polytope, its hypotheses checked first (memo kind `vertex_minor`)."""
    def build():
        check_hypotheses(toric)
        p_den, p_num = common_denominator(toric.p)
        minors = {}
        for support in feasible_supports(toric):
            h, inv = hermite_normal_form(tuple(toric.iota[j - 1] for j in support))
            if h != identity_matrix(toric.k):
                raise ValueError("matrix is not unimodular")
            x_num = tuple(sum(row[t] * pi for row, pi in zip(inv, p_num)) for t in range(toric.k))
            minors[support] = inv, x_num, gcd(*x_num)
        return p_den, minors

    return memo("vertex_minor", toric, build)


def _phases(dmap: DiagonalMap) -> tuple[int, list[int]]:
    """(D, c): the phases 1/2 - mu_j (-mu_j untwisted) as c_j / D, with D the
    lcm of 2 (1 untwisted) and the denominators of mu."""
    den = lcm(2 if dmap.twisted else 1, *(m.denominator for m in dmap.mu))
    half = den // 2 if dmap.twisted else 0
    return den, [half - m.numerator * (den // m.denominator) for m in dmap.mu]


def _support_class(minor, support, den: int, c: list[int]) -> tuple[int, int]:
    """Solve the phase congruence iota_S lam in c_S / D + Z^k on one support,
    with its `minor` from `_vertex_minors`.

    The support is the complement of a Delzant vertex's facets, so the k x k
    minor iota_S is unimodular: the solutions are lam = iota_S^-1 (c_S / D + z)
    for z in Z^k, and their values -p(lam) = -x.(c_S / D + z) form base + step Z,
    over p_den D one integer dot product and gcd(x_num) D."""
    _, x_num, step = minor
    return -sum(xi * c[j - 1] for xi, j in zip(x_num, support)), step * den


def witness_lambda(toric: ToricData, dmap: DiagonalMap, support) -> tuple[Fraction, ...]:
    """Kernel-basis coordinates lam = iota_S^-1 c_S of an element realizing
    the base of the class of `support`, a vertex support of `toric`."""
    inv = _vertex_minors(toric)[1][tuple(support)][0]
    den, c = _phases(dmap)
    return tuple(Fraction(sum(a * c[j - 1] for a, j in zip(row, support)), den) for row in inv)


def class_set(toric: ToricData, dmap: DiagonalMap):
    """(L, [(support, base, step)]): per minimal feasible support, the class of values (base + step Z) / L."""
    p_den, minors = _vertex_minors(toric)
    if len(dmap.mu) != toric.n:
        raise ValueError("mu length must match the facet count")
    den, c = _phases(dmap)
    return p_den * den, [(s, *_support_class(minor, s, den, c)) for s, minor in minors.items()]


def spectrum_classes(toric: ToricData, dmap: DiagonalMap) -> tuple[SpectrumClass, ...]:
    """One class per minimal feasible support: the values it realizes are base + step Z."""
    scale, classes = class_set(toric, dmap)
    return tuple(SpectrumClass(s, Fraction(b, scale), Fraction(step, scale)) for s, b, step in classes)


def listing(classes, lo: Fraction, hi: Fraction, closed: bool):
    """(scale, values): the values of the class set in [lo, hi] (closed) or
    [lo, hi), sorted integers over scale = lcm(L, the ends' denominators),
    each with the sorted supports realizing it.  A class of step s > 0 meets
    the range from its first value at or above lo up by s, one of step 0 in
    its base alone.  The count is taken in closed form first, and more than
    VALUE_LIMIT values raise ValueError."""
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty (lo > hi)")
    scale, classes = classes
    big = lcm(scale, lo.denominator, hi.denominator)
    m, lo_n = big // scale, lo.numerator * (big // lo.denominator)
    top = hi.numerator * (big // hi.denominator) - (not closed)  # v < hi is v <= hi - 1
    ranges = []
    for support, b, s in classes:
        b, s = b * m, s * m
        first = b - (b - lo_n) // s * s if s else b
        ranges.append((support, first, max(0, (top - first) // s + 1) if s else int(lo_n <= b <= top), s or 1))
    count = sum(r[2] for r in ranges)
    if count > VALUE_LIMIT:
        raise ValueError(f"class value count {count} is above the limit {VALUE_LIMIT}")
    by_value: dict[int, set] = {}
    for support, first, size, s in ranges:
        for v in range(first, first + size * s, s):
            by_value.setdefault(v, set()).add(support)
    return big, sorted((v, tuple(sorted(supports))) for v, supports in by_value.items())


def period_check(classes) -> bool:
    """Whether every class of the class set has a step 1/m, m an integer."""
    scale, classes = classes
    return all(s and scale % s == 0 for _, _, s in classes)


def _report(classes, lo: Fraction, hi: Fraction, closed: bool) -> SpectrumReport:
    """`listing` of the `SpectrumClass`es in Fractions; a period's value at lo is its boundary hit."""
    scale, nums = common_denominator([x for cls in classes for x in (cls.base, cls.step)])
    integers = scale, [(cls.support, b, s) for cls, b, s in zip(classes, nums[::2], nums[1::2])]
    scale, values = listing(integers, lo, hi, closed)
    values = tuple((Fraction(v, scale), s) for v, s in values)
    return SpectrumReport((lo, hi), values, tuple(classes), period_check(integers),
                          () if closed else tuple(v for v, _ in values[:1] if v == lo))


def window_report(classes, window) -> SpectrumReport:
    """The classes' values in the closed rational window, with the supports
    realizing each value."""
    return _report(classes, Fraction(window[0]), Fraction(window[1]), closed=True)


def period_report(classes, nu) -> SpectrumReport:
    """The classes' values in the half-open period [nu, nu + 1), with a value
    at nu flagged as a boundary hit."""
    return _report(classes, Fraction(nu), Fraction(nu) + 1, closed=False)
