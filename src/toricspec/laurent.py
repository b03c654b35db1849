"""Lattice-generated kernel modules of Laurent polynomials and their membership.

The objects: Laurent polynomials in u_1..u_n (`Poly` with signed exponents);
linear subspaces V of Q^n with their coordinate restriction u_i -> l_i(w);
monomial modules generated by the lattice points above a level, together with
the translation (shift) action; and a membership test with two independent
backends:

  * a Groebner route: multiply the generators by the least monomial u^T
    that clears their negative exponents, restrict these polynomials to V,
    and reduce the equally cleared query's restriction by a Groebner basis of
    theirs, in the coordinates w of V.  Restriction maps Q[u] onto Q[w] with
    the prime relation ideal of V as kernel, so this is membership in the
    cleared ideal plus the relation ideal.  A query with deeper denominators
    is cleared further and divided exactly by the extra monomial's
    restriction;
  * a graded linear-algebra route ("brute"): decide each graded slice of the
    same cleared query restriction by an exact span of the cleared generator
    restrictions times monomials of every degree.  It is complete at each
    window.

Every membership function takes one `KernelModule` (module, subspace, ring),
built once per input by `kernel_K`/`kernel_K0` and decided at its window:
`decision_module` builds, once per kernel module at W, the one at W + 2,
which keys everything built from it in the memo.
One function, `_verdict`, decides: on a zero ring every query is a member;
otherwise generators and query are cleared and restricted once (past
QUERY_LIMIT monomials of a cleared degree, or RESTRICTION_LIMIT summed over
the minimal generators of a module that is not m^D -> Inconclusive), the
query to integer coefficients.  Where the cleared generators generate m^D, D
their least degree, the verdict is a degree comparison, since a monomial ideal
holds a polynomial exactly when it holds each term.  That fact is read, once
per kernel module in the cleared-generator build, off the generators of
least degree alone: one rank mod p, restricting them only as it needs rows.
There a monomial query is decided from integer exponent sums and nothing is
restricted, since its restriction is a product of powers of linear forms.
Any other module, and every certificate, goes to the chosen backend, or to
both, which must agree (a disagreement raises).  `membership` first decides
a monomial query below the least generator degree a non-member in integers
alone; `membership_certified` asks the brute backend for its integer
relation.

A monomial ideal of Q[u] is the monomial module whose generators have no
negative exponents: it is cleared at floor 0 and restricted by the same map,
so its membership takes the same path.
"""

from bisect import bisect_right
from fractions import Fraction
from math import ceil, comb, gcd, lcm
from operator import add, ge

from toricspec.groebner import _reduce, groebner_divisors, maximal_ideal_power
from toricspec.lattice import IntMat, IntVec, common_denominator
from toricspec.memo import Value, memo, replace
from toricspec.polys import Poly, linear_form_product, monomials_of_degree
from toricspec.polytope import ToricData, check_hypotheses


class InconclusiveError(Exception):
    """A stated limit stopped the work before a verdict: a window, exponent or
    degree cap, the size of a window box (BOX_LIMIT), of one degree of the
    cleared generators or of a cleared query (QUERY_LIMIT) or of all the
    restrictions of minimal cleared generators (RESTRICTION_LIMIT)."""


class BackendMismatchError(Exception):
    """The Groebner and brute (graded linear-algebra) membership backends disagreed."""


WINDOW_CAP = 16
# The most window-box points, (2W+1)^k, a module enumerates.  The hexagon's
# box at WINDOW_CAP, 33^4 (about 1.19 M), fits; the largest box tier-1 and the
# benchmark build is the cube's at W = 6, 13^3 = 2,197.
BOX_LIMIT = 2_000_000
# The most monomials of one degree in the k coordinates of a subspace that the
# cleared generators or a cleared query may reach, C(D + k - 1, k - 1) at D.
QUERY_LIMIT = 100_000
# The most monomials of their cleared degrees, summed over the minimal
# generators of a module that is not m^D, in the k coordinates of a subspace:
# the dense size of their restrictions.  Hexagon's K ring at W = 2 reaches
# 7,786,569, hexagon x CP^1's K0 ring 99,997,825.
RESTRICTION_LIMIT = 20_000_000


# --- linear subspaces and restriction ---------------------------------------


# What `restrict` returns, and the ring a kernel module reports, when the
# restriction target collapses: some coordinate vanishes on V.
ZERO_RING = "ZeroRing"


class LinearSubspace(Value):
    """Saturated integer column span V of Q^n; coordinates w_1..w_k on V."""

    basis: IntMat  # n rows, k columns

    @property
    def nvars(self) -> int:
        return len(self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis[0]) if self.basis and self.nvars else 0

    def names(self):
        return tuple(f"w{i+1}" for i in range(self.dim))

    def coordinate_form(self, i: int) -> Poly:
        """The linear form l_i = (row i of basis) . w."""
        return Poly.linear_form(self.basis[i])

    def form_product(self, exps) -> Poly:
        """prod l_i ** exps[i] for nonnegative exponents, as one packed
        integer product."""
        return linear_form_product(self.basis, exps)

    def image(self, q: Poly) -> Poly:
        """sum c * prod l_i ** e_i over the terms c u^e of a polynomial q."""
        total = Poly.zero(self.dim)
        for e, c in q.terms.items():
            total = total + self.form_product(e) * c
        return total

    def is_zero_ring(self) -> bool:
        return self.dim == 0 or not all(map(any, self.basis))


class RestrictedElement(Value):
    """numerator / prod l_i^{denom_exps[i]} as a function on V."""

    numerator: Poly
    denom_exps: IntVec
    subspace: LinearSubspace

    def reduced(self):
        """Cancel coordinate linear forms that divide the numerator exactly."""
        num = self.numerator
        exps = list(self.denom_exps)
        for i in range(len(exps)):
            if exps[i] == 0:
                continue
            form = self.subspace.coordinate_form(i)
            while exps[i] > 0:
                q = num.exact_divide(form)
                if q is None:
                    break
                num = q
                exps[i] -= 1
        return RestrictedElement(num, tuple(exps), self.subspace)

    def render(self):
        names = self.subspace.names()
        num = self.numerator.render(names)
        dens = []
        for i, e in enumerate(self.denom_exps):
            if e:
                form = self.subspace.coordinate_form(i).render(names)
                dens.append(f"({form})^{e}" if e > 1 else f"({form})")
        if not dens:
            return num
        return f"({num}) / ({'*'.join(dens)})"

    __repr__ = render


def restrict(q: Poly, subspace: LinearSubspace):
    """Substitute u_i -> l_i(w); negative exponents become denominator factors.

    Returns ZERO_RING when some coordinate vanishes identically on V.
    """
    if subspace.is_zero_ring():
        return ZERO_RING
    denom = tuple(max(0, -m) for m in q.min_exponents())
    return RestrictedElement(subspace.image(q.term_mul(denom)), denom, subspace).reduced()


# --- monomial modules --------------------------------------------------------


class MonomialModule(Value):
    """Module generated by the lattice monomials at or above a level.

    Generators: u^{iota(m)} for m in the kernel lattice with p(m) >= threshold
    and ||m - center||_inf <= window.  `center` tracks translations so the
    shift action is an exact bijection on generator sets at finite window.
    threshold None is the "no bound" sentinel.
    """

    toric: ToricData
    threshold: Fraction | None
    window: int
    center: IntVec = None  # type: ignore[assignment]
    degree_shift: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.center is None:
            object.__setattr__(self, "center", (0,) * self.toric.k)

    def generators(self):
        """Exponent vectors iota(m), sorted by (total degree, lex); the tuple
        is built once per module and returned itself."""
        return memo("generators", self, self._enumerate)

    def _enumerate(self):
        """The window box tested in integers: with D the lcm of the
        denominators of p, keep m when sum (D p_i) m_i >= ceil(D threshold).
        iota(m) is summed from precomputed column multiples over the outer
        coordinates; the last coordinate's range is solved from the level
        inequality, and its column is added once per step along it.  A box
        of more than BOX_LIMIT points raises InconclusiveError at once."""
        toric, w = self.toric, self.window
        box = (2 * w + 1) ** toric.k
        if box > BOX_LIMIT:
            raise InconclusiveError(f"window {w} box has {box} points, above the limit {BOX_LIMIT}")
        scale, weights = common_denominator(toric.p)
        floor = None if self.threshold is None else ceil(self.threshold * scale)
        cols = list(zip(*toric.iota))
        multiples = [
            [(tuple(m * x for x in col), m * wt) for m in range(c - w, c + w + 1)]
            for col, wt, c in zip(cols, weights, self.center[:-1])
        ]
        last, weight, center = cols[-1], weights[-1], self.center[-1]
        gens = []

        def descend(j, vec, level):
            if j < len(multiples):
                for step, rise in multiples[j]:
                    descend(j + 1, tuple(map(add, vec, step)), level + rise)
                return
            lo, hi = center - w, center + w
            if floor is not None:
                need = floor - level  # weight * m >= need
                if weight > 0:
                    lo = max(lo, -(-need // weight))
                elif weight < 0:
                    hi = min(hi, need // weight)
                elif need > 0:
                    return
            vec = tuple(a + lo * b for a, b in zip(vec, last))
            for _ in range(lo, hi + 1):
                gens.append(vec)
                vec = tuple(map(add, vec, last))

        descend(0, (0,) * toric.n, 0)
        return tuple(sorted(gens, key=lambda g: (sum(g), g)))


def novikov_shift(module: MonomialModule, m) -> MonomialModule:
    """Translate by the lattice vector m: threshold moves by p(m), the
    generator window translates with it, and the bookkeeping degree moves by
    2 c(m)."""
    m = tuple(m)
    new_threshold = None if module.threshold is None else module.threshold + module.toric.p_value(m)
    return replace(
        module,
        threshold=new_threshold,
        center=tuple(a + b for a, b in zip(module.center, m)),
        degree_shift=module.degree_shift + 2 * module.toric.chern_value(m),
    )


class KernelModule(Value):
    module: MonomialModule
    subspace: LinearSubspace
    ring: str  # "R" | "R0" | ZERO_RING


def _kernel_module(toric: ToricData, threshold, window: int, ring: str) -> KernelModule:
    """One kernel module per (toric, threshold, window, ring) in the process
    (memo kind `kernel_module`), so `decision_module` and every later memo
    key hit by identity.  The hypotheses are checked in the build, and a
    build that raises is not kept: it raises again on every call."""
    return memo("kernel_module", (toric, threshold, window, ring),
                lambda: _build_kernel_module(toric, threshold, window, ring))


def _build_kernel_module(toric: ToricData, threshold, window: int, ring: str) -> KernelModule:
    check_hypotheses(toric)
    if ring == "R":
        basis = toric.iota
    else:
        cols = [toric.iota_apply(v) for v in toric.k0.vectors]
        basis = tuple(tuple(col[i] for col in cols) for i in range(toric.n))
    subspace = LinearSubspace(basis=basis)
    return KernelModule(
        module=MonomialModule(toric=toric, threshold=threshold, window=window),
        subspace=subspace,
        ring=ZERO_RING if subspace.is_zero_ring() else ring,
    )


def kernel_K(toric: ToricData, threshold, window: int) -> KernelModule:
    """The level module restricted to the full kernel subspace."""
    return _kernel_module(toric, threshold, window, "R")


def kernel_K0(toric: ToricData, threshold, window: int) -> KernelModule:
    """The level module restricted to the p-kernel subspace."""
    return _kernel_module(toric, threshold, window, "R0")


# --- membership: the cleared restriction -------------------------------------


def _minimal_monomials(exps_list):
    """Minimal elements under componentwise <= (monomial ideal generators),
    one copy of each, sorted by (total degree, lex).

    Per coordinate i and value v, a bitset holds the distinct vectors with
    i-th entry at most v; a vector is minimal exactly when the AND of its
    entries' bitsets holds it alone."""
    exps = sorted(set(exps_list), key=lambda g: (sum(g), g))
    at_most = []
    for i in range(len(exps[0]) if exps else 0):
        bits = {}
        for n, e in enumerate(exps):
            bits[e[i]] = bits.get(e[i], 0) | 1 << n
        running = 0
        for v in sorted(bits):
            running = bits[v] = running | bits[v]
        at_most.append(bits)
    out = []
    for n, e in enumerate(exps):
        below = -1
        for bits, v in zip(at_most, e):
            below &= bits[v]
        if below == 1 << n:
            out.append(e)
    return out


def _check_query_limit(what, degree, k):
    """Inconclusive when `degree` has more than QUERY_LIMIT monomials in k coordinates."""
    if comb(degree + k - 1, k - 1) > QUERY_LIMIT:
        raise InconclusiveError(f"{what} degree {degree} has more than {QUERY_LIMIT} monomials in {k} coordinates")


def _restrictions(gens, made, floor, subspace: LinearSubspace):
    """The restrictions prod l_i^(g_i + T_i) of `gens` in order: those already
    in the list `made`, then each one made as it is reached and appended."""
    for n, g in enumerate(gens):
        if n == len(made):
            made.append(subspace.form_product(tuple(map(add, g, floor))))
        yield made[n]


def _cleared_generators(km: KernelModule):
    """(gens, made, T, D) for the module at its window, built once per kernel
    module.  T, the generator floor, is the componentwise minimum: the least
    exponents with g + T >= 0 for every generator g.  The generators are
    sorted by degree, so those of least degree are a prefix, all minimal;
    their cleared degree D is checked against QUERY_LIMIT before anything is
    restricted.  Their restrictions prod l_i^(g_i + T_i) generate m^D when
    they span the degree-D monomials, which `groebner.maximal_ideal_power`
    decides by a rank mod p (full mod p is full over Q), restricting one
    generator per row it pulls.  On m^D, gens are the least-degree
    generators and `made` the restrictions made so far (`_restrictions`
    makes the rest on demand).  Otherwise D is None, gens are the minimal
    generators (every other generator is a u-multiple of one), their largest
    cleared degree is checked against QUERY_LIMIT and the monomials of their
    cleared degrees, summed, against RESTRICTION_LIMIT, before any past the
    rank test's is restricted, and `made` holds every restriction, the rank
    test's reused."""

    def build():
        module, subspace = km.module, km.subspace
        every = module.generators()
        if not every:
            return every, [], (0,) * module.toric.n, None
        floor = tuple(max(0, -min(column)) for column in zip(*every))
        least = every[:bisect_right(every, sum(every[0]), key=sum)]
        degree, k = sum(least[0]) + sum(floor), subspace.dim
        _check_query_limit("cleared generator", degree, k)
        made = []
        if len(least) >= comb(degree + k - 1, k - 1):
            power = maximal_ideal_power(_restrictions(least, made, floor, subspace))
            if power is not None:
                return least, made, floor, power
        gens = _minimal_monomials(every)
        _check_query_limit("cleared generator", sum(gens[-1]) + sum(floor), k)
        size = sum(comb(sum(g) + sum(floor) + k - 1, k - 1) for g in gens)
        if size > RESTRICTION_LIMIT:
            raise InconclusiveError(f"{len(gens)} cleared generators have {size} monomials of their degrees "
                                    f"in {k} coordinates, above the limit {RESTRICTION_LIMIT}")
        return gens, list(_restrictions(gens, made, floor, subspace)), floor, None

    return memo("cleared_generators", km, build)


def _cleared(q: Poly, floor, subspace: LinearSubspace):
    """The restriction of q * u^floor to V times the least common denominator
    of its coefficients, an integer polynomial; None when it is no polynomial
    on V (then q is no member).  Where q's denominator d exceeds the floor, q
    is cleared at d and divided exactly by the restriction of u^(d - floor):
    the generators cleared at d are the floor-cleared ones times that
    restriction, and the coordinate ring of V is a domain.  A cleared degree
    with more than QUERY_LIMIT monomials in the k coordinates of V raises
    InconclusiveError before anything is restricted."""
    depth = tuple(max(t, -m) for t, m in zip(floor, q.min_exponents()))
    cleared = q.term_mul(depth)
    _check_query_limit("cleared query", max(cleared.total_degree(), 0), subspace.dim)
    num = subspace.image(cleared)
    if depth != floor:
        num = num.exact_divide(subspace.form_product(tuple(d - t for d, t in zip(depth, floor))))
        if num is None:
            return None
    den, numerators = common_denominator(num.terms.values())
    return num if den == 1 else Poly(subspace.dim, dict(zip(num.terms, numerators)))


# --- membership: Groebner backend -------------------------------------------


def _groebner_member(cleared: Poly, km: KernelModule) -> bool:
    """Is the integer cleared query restriction in the ideal of the cleared
    generator restrictions?  Their reduced Groebner basis is built once per
    kernel module and kept as primitive integer divisors; the division stops
    at the first term that no leading monomial divides, a term of the
    remainder."""
    basis = memo("groebner", km, lambda: groebner_divisors(_cleared_generators(km)[1]))
    return not _reduce(cleared.terms, basis, False)


# --- membership: brute (graded linear-algebra) backend -------------------------


def _direction_groups(basis):
    """Per coordinate, the index of its (sign-normalized primitive) restriction
    direction among the distinct directions, and the number of directions."""
    directions: dict = {}
    groups = []
    for row in basis:
        g = gcd(*row)
        key = tuple(x // g for x in row) if g else tuple(row)
        neg = tuple(-x for x in key)
        if key not in directions and neg in directions:
            key = neg
        groups.append(directions.setdefault(key, len(directions)))
    return tuple(groups), len(directions)


def restriction_groups(subspace: LinearSubspace):
    """(groups, count) of `_direction_groups` for the subspace basis, built
    once per subspace: group ids are numbered by first appearance."""
    return memo("restriction_groups", subspace, lambda: _direction_groups(subspace.basis))


def restriction_class_key(subspace: LinearSubspace, exps):
    """Monomials with equal keys restrict to scalar multiples of each other:
    group the coordinates by restriction direction and sum the exponents
    within each group."""
    groups, count = restriction_groups(subspace)
    sums = [0] * count
    for group, e in zip(groups, exps):
        sums[group] += e
    return tuple(sums)


def _axpy(target: dict, f, vec: dict):
    """target += f * vec in place, dropping zero entries."""
    for e, c in vec.items():
        s = target.get(e, 0) + f * c
        if s:
            target[e] = s
        else:
            target.pop(e, None)


class _Span:
    """Incremental row-echelon span of coefficient vectors keyed by exponent,
    kept fraction-free: a pivot is an integer vector keyed by its leading
    exponent and stored with its leading coefficient, made positive; it has
    no content (with tracking, none in common with its label combination).

    With `track`, each pivot also carries the integer combination of the
    labels of the inserted vectors that equals it, so a vector that reduces
    to zero comes with its expression in them."""

    def __init__(self, track=False):
        self.track = track
        self.pivots = {}  # leading exponent -> (vector, leading coefficient, label combination)

    def reduce(self, vec, scale=1, combo=None):
        """Eliminate the pivot exponents from `vec`; returns (residual, scale,
        combo), the residual empty exactly when `vec` lies in the span.

        `vec` has integer entries, and a pivot with leading coefficient p
        removes an entry f as vec <- (p/g) vec - (f/g) pivot, g = gcd(f, p),
        after which the content is divided out.  With a label combination `combo`
        (tracking), scale and combo follow along, keeping
        scale * query = residual + sum combo[label] * column when that held
        for the given `vec`."""
        vec, scale, combo = _primitive({e: c for e, c in vec.items() if c}, scale, combo)
        pivots = self.pivots
        while True:
            hits = [e for e in vec if e in pivots]
            if not hits:
                return vec, scale, combo
            lead = max(hits)
            f = vec[lead]
            pivot, p, labels = pivots[lead]
            g = gcd(f, p)
            a, b = p // g, f // g
            if a != 1:
                for e in vec:
                    vec[e] *= a
            _axpy(vec, -b, pivot)
            if combo is not None:
                if a != 1:
                    scale *= a
                    for lab in combo:
                        combo[lab] *= a
                _axpy(combo, b, labels)
            vec, scale, combo = _primitive(vec, scale, combo)

    def add(self, vec, label=None) -> bool:
        """Insert after reduction; returns True when the span grew."""
        red, scale, combo = self.reduce(vec, 1, {} if self.track else None)
        if not red:
            return False
        lead = max(red)
        labels = None
        if self.track:
            # scale * vec = red + sum combo * column, with no common content
            labels = {lab: -c for lab, c in combo.items()}
            labels[label] = scale
        if red[lead] < 0:
            red = {e: -c for e, c in red.items()}
            if labels is not None:
                labels = {lab: -c for lab, c in labels.items()}
        self.pivots[lead] = (red, red[lead], labels)
        return True


def _primitive(vec, scale, combo):
    """`vec`, and with a label combination also `scale` and `combo`, divided
    by their common content."""
    content = gcd(*vec.values(), *(() if combo is None else (scale, *combo.values())))
    if content <= 1:
        return vec, scale, combo
    vec = {e: c // content for e, c in vec.items()}
    if combo is not None:
        scale //= content
        combo = {lab: c // content for lab, c in combo.items()}
    return vec, scale, combo


class _GradedSlice:
    """The degree-D part of the cleared module: the span of g * w^a over the
    cleared generators g and every monomial w^a of degree D - deg(g) >= 0,
    pulled into the span lazily and kept for later queries."""

    def __init__(self, gens, restrictions, degree, k, track):
        self.span = _Span(track)
        self.columns = self._columns(gens, restrictions, degree, k)

    @staticmethod
    def _columns(gens, restrictions, degree, k):
        """(label, column) pairs in generator order; a restriction is pulled
        from the iterable `restrictions` only when its columns are reached,
        and the first one above `degree` ends them, the generators being
        sorted by degree."""
        for g, rg in zip(gens, restrictions):
            rest = degree - rg.total_degree()
            if rest < 0:
                return
            for mono in monomials_of_degree(k, rest):
                yield (g, mono), rg.term_mul(mono)

    def residual(self, vec):
        """`vec` reduced against the span, pulling columns while it is nonzero:
        (residual, scale, combo) as in `_Span.reduce`, the residual empty
        exactly when `vec` lies in the slice."""
        vec, scale, combo = self.span.reduce(vec, 1, {} if self.span.track else None)
        while vec:
            column = next(self.columns, None)
            if column is None:
                break
            label, col = column
            if self.span.add(col.terms, label):
                vec, scale, combo = self.span.reduce(vec, scale, combo)
        return vec, scale, combo


def _brute_member(cleared: Poly, km: KernelModule, want_certificate=False):
    """Exact linear algebra in the subspace coordinates, graded slice by slice;
    complete at the module's window, since every multiplier degree is
    admitted.

    Returns (verdict, certificate); a member's certificate, on request, is
    one integer relation (scale, {(g, a): c}): scale * cleared = sum c *
    (u^(g + T))|_V * w^a over the generators g of the cleared-generator
    entry (on an m^D module those of least degree, whose multiples span
    every degree from D up; below D a slice is empty), with `cleared` the
    integer cleared query restriction of `_cleared`, merged from the
    components over the lcm of their scales (a label fixes its degree)."""
    gens, made, floor, _ = _cleared_generators(km)
    subspace = km.subspace
    parts = []
    for degree, component in cleared.homogeneous_components().items():
        graded = memo("graded_slice", (km, degree, want_certificate),
                      lambda: _GradedSlice(gens, _restrictions(gens, made, floor, subspace), degree,
                                           subspace.dim, want_certificate))
        residual, scale, combo = graded.residual(component.terms)
        if residual:
            return False, None
        parts.append((scale, combo))
    if not want_certificate:
        return True, None
    common = lcm(*(scale for scale, _ in parts))
    return True, (common, {lab: c * (common // scale) for scale, combo in parts for lab, c in combo.items()})


def verify_certificate(q, km: KernelModule, certificate) -> bool:
    """Check a brute-backend certificate in integers at the window W + 2 that
    membership decides at: scale is a positive int, each label g is a
    u-multiple of a window generator (g need not be minimal, nor of the
    least degree) and a a monomial in w,
    and the relation holds against the integer cleared query restriction of
    `_cleared`, with each (u^(g + T))|_V built anew once."""
    _check_query(q, km)
    scale, relation = certificate
    if type(scale) is not int or scale < 1:
        return False
    if km.ring == ZERO_RING:
        return True
    km = decision_module(km)
    subspace = km.subspace
    floor = _cleared_generators(km)[2]
    gens = km.module.generators()
    cleared = _cleared(q, floor, subspace)
    if cleared is None or not all(
        len(g) == len(floor) and any(all(map(ge, g, m)) for m in gens) and len(a) == subspace.dim and min(a) >= 0
        for g, a in relation
    ):
        return False
    forms = {g: subspace.form_product(tuple(map(add, g, floor))) for g in {g for g, _ in relation}}
    total = {}
    for (g, a), c in relation.items():
        _axpy(total, c, forms[g].term_mul(a).terms)
    return total == {e: scale * c for e, c in cleared.terms.items()}


# --- membership: public entry -------------------------------------------------


def _check_query(q: Poly, km: KernelModule):
    """A query must be a polynomial in the n variables u of the module."""
    n = km.module.toric.n
    if q.nvars != n:
        raise ValueError(f"variable count mismatch: query {q.nvars}, module {n}")


def _below_generator_degree(q: Poly, km: KernelModule) -> bool:
    """The degree test: a monomial of total degree below the least generator
    degree of the module is no member, since every module element then
    restricts to V with homogeneous components of at least that degree, and
    a monomial restricts to one nonzero component of its own degree unless V
    is a zero ring.  The generators are sorted by total degree, so this costs
    one memo lookup."""
    gens = km.module.generators()
    return (bool(gens) and len(q.terms) == 1 and km.ring != ZERO_RING
            and sum(next(iter(q.terms))) < sum(gens[0]))


def _monomial_verdict(e, floor, power, subspace: LinearSubspace) -> bool:
    """Is u^e in the m^D module, D = `power`, of generator floor T?  The
    restriction of u^(e + T) is a scalar times prod_j L_j^(s_j), s_j the
    group sums of e + T over the restriction directions L_j
    (`restriction_class_key`), which are pairwise non-proportional linear
    forms.  By unique factorization it is a polynomial, so `_cleared`'s exact
    division succeeds, exactly when every s_j >= 0, and then it is
    homogeneous of degree |e| + |T|.  The QUERY_LIMIT check is `_cleared`'s."""
    depth = sum(max(t, -m) for t, m in zip(floor, e))
    _check_query_limit("cleared query", max(sum(e) + depth, 0), subspace.dim)
    return (min(restriction_class_key(subspace, map(add, e, floor))) >= 0
            and sum(e) + sum(floor) >= power)


def _verdict(q, km: KernelModule, backend, want_certificate=False):
    """The verdict at the module's window, as (verdict, certificate); the
    query is cleared and restricted once.  On an m^D module the verdict
    without a certificate is whether every term of the cleared query has
    degree at least D, which for a monomial `_monomial_verdict` reads off its
    exponents, restricting nothing (a polynomial's terms can cancel, so it
    is restricted); otherwise it is the chosen backend's, or both's, which
    must agree.  A certificate, on request, comes from the brute backend as
    in `_brute_member`; on the zero ring (1, {}) certifies every q."""
    if km.ring == ZERO_RING:
        return True, ((1, {}) if want_certificate else None)
    _, _, floor, power = _cleared_generators(km)
    if power is not None and not want_certificate and len(q.terms) == 1:
        return _monomial_verdict(next(iter(q.terms)), floor, power, km.subspace), None
    cleared = _cleared(q, floor, km.subspace)
    if cleared is None:
        return False, None
    if power is not None and not want_certificate:
        return all(sum(e) >= power for e in cleared.terms), None
    gb = None if backend == "brute" else _groebner_member(cleared, km)
    if backend == "groebner":
        return gb, None
    verdict, certificate = _brute_member(cleared, km, want_certificate)
    if gb is not None and gb != verdict:
        raise BackendMismatchError(
            f"groebner={gb} brute={verdict} at window {km.module.window} for {q.render()}"
        )
    return verdict, certificate


def check_start_window(window: int):
    """Membership at start window W is decided at W + 2, which must not pass
    WINDOW_CAP; a start window without that room is inconclusive."""
    if window + 2 > WINDOW_CAP:
        raise InconclusiveError(
            f"start window {window} leaves no room to widen below the cap {WINDOW_CAP}"
        )


def decision_module(km: KernelModule) -> KernelModule:
    """The kernel module at window W + 2, where its membership questions are
    decided, for the module window W (past the cap 16 -> Inconclusive); built
    once per kernel module, so every later memo key holds the same object."""
    check_start_window(km.module.window)
    return memo("decision_module", km, lambda: replace(km, module=replace(km.module, window=km.module.window + 2)))


def membership(q: Poly, km: KernelModule, backend: str = "both") -> bool:
    """Is q in the module plus the relation ideal of the subspace?

    Decided by the module at window W + 2, `decision_module`, for the module
    window W.  The generator box at W lies inside the box at W + 2, and
    each backend decides the module of its window exactly, so the verdict
    can only turn from False to True as the window widens: widening until
    two consecutive verdicts agree returns the verdict at W + 2.  A query
    in other than the module's n variables raises ValueError."""
    _check_query(q, km)
    km = decision_module(km)
    if _below_generator_degree(q, km):
        return False
    return _verdict(q, km, backend)[0]


def membership_certified(q: Poly, km: KernelModule):
    """(verdict, certificate) at window W + 2 from one tracked brute pass."""
    _check_query(q, km)
    return _verdict(q, decision_module(km), "brute", want_certificate=True)
