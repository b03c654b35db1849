"""Exact translated-spectrum oracle for diagonal torus maps with a sign twist.

The map z -> -exp(mu) z acts coordinatewise by the phase e^{i pi} e^{2 pi i
mu_j}.  A shift value s is realized exactly when some kernel-algebra element
lam satisfies the half-integer condition on a feasible support set (the
coordinates that can carry a ray meeting the momentum level) and p(lam) = -s.
The minimal feasible supports are the complements of the vertices' facet
sets, so each support's k x k minor iota_S is unimodular, and the solutions
are lam = iota_S^-1 (c_S + z), z in Z^k, with values -x.(c_S + z) for
x = iota_S^-T p.  The hypothesis gate (`check_hypotheses`) makes p primitive
integral, so x, its image under a unimodular map, is a primitive integer
vector and x.Z^k = Z: each vertex support gives one progression base + Z of
difference 1, one value per period.

The work is in integers.  The minors, inverted by their Hermite forms, and
the vectors x are one memo entry per polytope (kind `vertex_minor`), and the
phases 1/2 - mu_j are cleared once per map to c_j / D, so a map's classes are
one integer base each over D.  A window or period lists them as integer
ranges over lcm(D, the ends' denominators), counted in closed form first and
refused above VALUE_LIMIT values.
"""

from fractions import Fraction
from math import lcm

from toricspec.lattice import hermite_normal_form, identity_matrix
from toricspec.memo import Value, memo
from toricspec.polytope import ToricData, check_hypotheses

# A listing counts the values of every class, and a report prints two lines per
# distinct value: the square with mu = (1/4, 0, 0, 0) has four classes, and
# over the window 0:249999 its 999,998 class values give 499,999 distinct
# ones, printed in 4.1 s at a peak RSS of 266 MB (one run on a shared 2-core
# machine).
VALUE_LIMIT = 1_000_000


class DiagonalMap(Value):
    """z -> -exp(mu) z; `twisted=False` drops the global sign."""

    mu: tuple[Fraction, ...]
    twisted: bool = True


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
    """{support: (iota_S^-1, x)} over the feasible supports in order, with the
    integer vector x = iota_S^-T p.  The inverse is the transform U of the
    column Hermite form H = iota_S U, the identity exactly when the minor is
    unimodular.  Built once per polytope, its hypotheses checked first (memo
    kind `vertex_minor`)."""
    def build():
        check_hypotheses(toric)
        minors = {}
        for support in feasible_supports(toric):
            h, inv = hermite_normal_form(tuple(toric.iota[j - 1] for j in support))
            if h != identity_matrix(toric.k):
                raise ValueError("matrix is not unimodular")
            # p is integral past the gate, so x is read in integers
            x = tuple(sum(row[t] * pi.numerator for row, pi in zip(inv, toric.p)) for t in range(toric.k))
            minors[support] = inv, x
        return minors

    return memo("vertex_minor", toric, build)


def _phases(dmap: DiagonalMap) -> tuple[int, list[int]]:
    """(D, c): the phases 1/2 - mu_j (-mu_j untwisted) as c_j / D, with D the
    lcm of 2 (1 untwisted) and the denominators of mu."""
    den = lcm(2 if dmap.twisted else 1, *(m.denominator for m in dmap.mu))
    half = den // 2 if dmap.twisted else 0
    return den, [half - m.numerator * (den // m.denominator) for m in dmap.mu]


def witness_lambda(toric: ToricData, dmap: DiagonalMap, support) -> tuple[Fraction, ...]:
    """Kernel-basis coordinates lam = iota_S^-1 c_S of an element realizing
    the base of the class of `support`, a vertex support of `toric`."""
    minor = _vertex_minors(toric).get(tuple(support))
    if minor is None:
        raise ValueError(f"support {tuple(support)} is not a vertex support")
    den, c = _phases(dmap)
    return tuple(Fraction(sum(a * c[j - 1] for a, j in zip(row, support)), den) for row in minor[0])


def class_set(toric: ToricData, dmap: DiagonalMap):
    """(D, [(support, base)]): per minimal feasible support, in order, the
    values (base + t D) / D for t in Z, base = -x.c_S one integer dot product."""
    minors = _vertex_minors(toric)
    if len(dmap.mu) != toric.n:
        raise ValueError("mu length must match the facet count")
    den, c = _phases(dmap)
    return den, [(s, -sum(xi * c[j - 1] for xi, j in zip(x, s))) for s, (_, x) in minors.items()]


def listing(classes, lo: Fraction, hi: Fraction, closed: bool):
    """(scale, values): the values of the class set in [lo, hi] (closed) or
    [lo, hi), sorted integers over scale = lcm(D, the ends' denominators),
    each with the sorted supports realizing it.  Over scale a class steps by
    scale itself, from its first value at or above lo.  The count is taken
    in closed form first, and more than VALUE_LIMIT values raise ValueError."""
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty (lo > hi)")
    den, classes = classes
    big = lcm(den, lo.denominator, hi.denominator)
    m, lo_n = big // den, lo.numerator * (big // lo.denominator)
    top = hi.numerator * (big // hi.denominator) - (not closed)  # v < hi is v <= hi - 1
    firsts = [(support, lo_n + (b * m - lo_n) % big) for support, b in classes]
    count = sum((top - first) // big + 1 for _, first in firsts)  # first < lo_n + big, top >= lo_n - 1: each term >= 0
    if count > VALUE_LIMIT:
        raise ValueError(f"class value count {count} is above the limit {VALUE_LIMIT}")
    by_value: dict[int, set] = {}
    for support, first in firsts:
        for v in range(first, top + 1, big):
            by_value.setdefault(v, set()).add(support)
    return big, sorted((v, tuple(sorted(supports))) for v, supports in by_value.items())
