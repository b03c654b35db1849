"""Lattice-generated kernel modules of Laurent polynomials and their membership.

The objects: Laurent polynomials in u_1..u_n (`Poly` with signed exponents);
linear subspaces V of Q^n with their coordinate restriction u_i -> l_i(w);
monomial modules generated by the lattice points above a level, together with
the translation (shift) action; and a membership test with two independent
backends:

  * a Groebner route: clear all denominators by a uniform monomial shift,
    which turns the module into a polynomial ideal, add the linear relation
    ideal of V, and reduce.  The relation ideal is the ideal of a linear
    subspace, hence prime, so it needs no saturation by u_1...u_n: its
    reduced basis is the row echelon form of the annihilator of V;
  * a bounded-degree route: restrict to the subspace coordinates, clear
    denominators, and solve an exact linear system for multiplier
    polynomials of degree at most D (complete for witnesses within D).

The two backends must agree; a disagreement raises.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from toricspec.groebner import buchberger, normal_form
from toricspec.lattice import (
    IntMat,
    IntVec,
    identity_matrix,
    integer_kernel,
    rref,
    solve_rational,
    transpose,
    vec_gcd,
)
from toricspec.polys import Poly, monomials_of_degree
from toricspec.polytope import ToricData, ToricHypothesisError, rationality_check


class InconclusiveError(Exception):
    """The window-stability protocol hit its cap without two agreeing verdicts."""


class BackendMismatchError(Exception):
    """The Groebner and bounded-degree membership backends disagreed."""


WINDOW_CAP = 16


# --- linear subspaces and restriction ---------------------------------------


class ZeroRing:
    """The restriction target collapses: some coordinate vanishes on V."""

    def __repr__(self):
        return "ZeroRing"

    def __eq__(self, other):
        return isinstance(other, ZeroRing)

    def __hash__(self):
        return hash("ZeroRing")


ZERO_RING = ZeroRing()


@dataclass(frozen=True)
class LinearSubspace:
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
        return Poly.linear_form(tuple(Fraction(x) for x in self.basis[i]))

    def is_zero_ring(self) -> bool:
        if self.dim == 0:
            return True
        return any(all(x == 0 for x in row) for row in self.basis)

    def annihilator(self) -> tuple[IntVec, ...]:
        """Integer basis of the linear forms on Q^n vanishing on V."""
        if self.dim == 0:
            return tuple(tuple(row) for row in identity_matrix(self.nvars))
        return integer_kernel(transpose(self.basis)).vectors


@dataclass
class RestrictedElement:
    """numerator / prod l_i^{denom_exps[i]} as a function on V."""

    numerator: Poly
    denom_exps: IntVec
    subspace: LinearSubspace

    def is_zero(self):
        return self.numerator.is_zero()

    def degree(self):
        """Homogeneity degree; meaningful when the numerator is homogeneous."""
        if self.numerator.is_zero():
            return None
        return self.numerator.total_degree() - sum(self.denom_exps)

    def _denom_poly(self) -> Poly:
        out = Poly.constant(self.subspace.dim, 1)
        for i, e in enumerate(self.denom_exps):
            if e:
                out = out * self.subspace.coordinate_form(i) ** e
        return out

    def __mul__(self, other):
        return RestrictedElement(
            numerator=self.numerator * other.numerator,
            denom_exps=tuple(a + b for a, b in zip(self.denom_exps, other.denom_exps)),
            subspace=self.subspace,
        ).reduced()

    def __eq__(self, other):
        if not isinstance(other, RestrictedElement):
            return NotImplemented
        return (self.numerator * other._denom_poly()) == (other.numerator * self._denom_poly())

    def is_scalar_multiple_of(self, other) -> Fraction | None:
        """The scalar c with self = c * other, if one exists."""
        left = self.numerator * other._denom_poly()
        right = other.numerator * self._denom_poly()
        if right.is_zero():
            return Fraction(0) if left.is_zero() else None
        e, c = right.leading()
        lc = left.terms.get(e)
        if lc is None:
            return None
        scale = lc / c
        return scale if left == right * scale else None

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
    n = q.nvars
    forms = [subspace.coordinate_form(i) for i in range(n)]
    denom = tuple(max(0, max((-e[i] for e in q.terms), default=0)) for i in range(n))
    total = Poly.zero(subspace.dim)
    for e, c in q.terms.items():
        piece = Poly.constant(subspace.dim, c)
        for i, p in enumerate(e):
            piece = piece * forms[i] ** (p + denom[i])
        total = total + piece
    return RestrictedElement(total, denom, subspace).reduced()


# --- monomial modules --------------------------------------------------------


@dataclass(frozen=True)
class MonomialModule:
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

    def lattice_points(self, window=None):
        w = self.window if window is None else window
        for m in product(*(range(c - w, c + w + 1) for c in self.center)):
            if self.threshold is None or self.toric.p_value(m) >= self.threshold:
                yield m

    def generators(self, window=None):
        """Exponent vectors iota(m), sorted by (total degree, lex)."""
        gens = [self.toric.iota_apply(m) for m in self.lattice_points(window)]
        return sorted(gens, key=lambda g: (sum(g), g))


def module_generators(toric: ToricData, threshold, window: int):
    return MonomialModule(toric=toric, threshold=threshold, window=window).generators()


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


@dataclass(frozen=True)
class KernelModule:
    module: MonomialModule
    subspace: LinearSubspace
    ring: str  # "R" | "R0" | "ZeroRing"


def kernel_K(toric: ToricData, threshold, window: int) -> KernelModule:
    """The level module restricted to the full kernel subspace."""
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    subspace = LinearSubspace(basis=toric.iota)
    ring = "ZeroRing" if subspace.is_zero_ring() else "R"
    return KernelModule(
        module=MonomialModule(toric=toric, threshold=threshold, window=window),
        subspace=subspace,
        ring=ring,
    )


def kernel_K0(toric: ToricData, threshold, window: int) -> KernelModule:
    """The level module restricted to the p-kernel subspace."""
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    cols = [toric.iota_apply(v) for v in toric.k0.vectors]
    basis = tuple(tuple(col[i] for col in cols) for i in range(toric.n))
    if not cols:
        basis = tuple(() for _ in range(toric.n))
    subspace = LinearSubspace(basis=basis)
    ring = "ZeroRing" if subspace.is_zero_ring() else "R0"
    return KernelModule(
        module=MonomialModule(toric=toric, threshold=threshold, window=window),
        subspace=subspace,
        ring=ring,
    )


# --- membership: Groebner backend -------------------------------------------

_GB_CACHE: dict = {}


def _linear_relations(subspace: LinearSubspace) -> list[Poly]:
    """Reduced Groebner basis of the relation ideal of V: the monic row echelon
    form of the annihilator, sorted by leading exponent; [1] on a zero ring."""
    if subspace.is_zero_ring():
        return [Poly.constant(subspace.nvars, 1)]
    red, pivots = rref(subspace.annihilator())
    forms = [Poly.linear_form(row) for row in red[: len(pivots)]]
    return sorted(forms, key=lambda g: g.leading()[0])


def _minimal_monomials(exps_list):
    """Minimal elements under componentwise <= (monomial ideal generators)."""
    out = []
    for e in sorted(exps_list, key=lambda g: (sum(g), g)):
        if not any(all(a >= b for a, b in zip(e, f)) for f in out):
            out.append(e)
    return out


def _reduced_ideal_gb(monomial_exps, subspace: LinearSubspace):
    """Groebner basis of <monomials> + relation ideal, computed through the
    linear quotient: reducing by the relation basis substitutes away the
    leading variables, so Buchberger runs on supports of the subspace
    dimension only.  Membership: reduce by the relation basis, then by this."""
    rel = _linear_relations(subspace)
    reduced = []
    seen = set()
    for e in _minimal_monomials(monomial_exps):
        g = normal_form(Poly.monomial(e), rel)
        if g.is_zero():
            continue
        gm = g.monic()
        key = frozenset(gm.terms.items())
        if key not in seen:
            seen.add(key)
            reduced.append(gm)
    return buchberger(reduced), rel


def reduce_modulo(q_poly: Poly, gb, rel):
    return normal_form(normal_form(q_poly, rel), gb)


def _module_groebner(module: MonomialModule, subspace: LinearSubspace, window: int, shift=None):
    gens = module.generators(window)
    n = module.toric.n
    base = tuple(max(0, -min((g[i] for g in gens), default=0)) for i in range(n))
    if shift is not None:
        base = tuple(max(a, b) for a, b in zip(base, shift))
    key = (module, subspace.basis, window, base)
    if key not in _GB_CACHE:
        shifted = [tuple(a + b for a, b in zip(g, base)) for g in gens]
        _GB_CACHE[key] = (_reduced_ideal_gb(shifted, subspace), base)
    return _GB_CACHE[key]


def _groebner_verdict(q: Poly, module: MonomialModule, subspace: LinearSubspace, window: int) -> bool:
    if q.is_zero():
        return True
    q_clear = tuple(max(0, -m) for m in q.min_exponents())
    (gb, rel), shift = _module_groebner(module, subspace, window, shift=q_clear)
    if not gb and not rel:
        return False
    cleared = q.term_mul(shift)
    if min(cleared.min_exponents(), default=0) < 0:
        raise ValueError("shift does not clear negative exponents")
    return reduce_modulo(cleared, gb, rel).is_zero()


# --- membership: bounded-degree backend --------------------------------------

_RESTRICT_CACHE: dict = {}


def restriction_class_key(subspace: LinearSubspace, exps):
    """Monomials with equal keys restrict to scalar multiples of each other:
    group the coordinates by (sign-normalized primitive) restriction direction
    and sum the exponents within each group."""
    directions: dict = {}
    sums: list = []
    for i, row in enumerate(subspace.basis):
        g = vec_gcd(row)
        key = tuple(x // g for x in row) if g else tuple(row)
        neg = tuple(-x for x in key)
        if key not in directions and neg in directions:
            key = neg
        if key not in directions:
            directions[key] = len(sums)
            sums.append(0)
        sums[directions[key]] += exps[i]
    return tuple(sums)


def _generator_restrictions(module, subspace, window):
    """Cached restrictions of the window generators with a common denominator."""
    key = (module, subspace.basis, window)
    if key not in _RESTRICT_CACHE:
        gens = module.generators(window)
        rgens = [restrict(Poly.monomial(g), subspace) for g in gens]
        gden = tuple(
            max((r.denom_exps[i] for r in rgens), default=0)
            for i in range(subspace.nvars)
        )
        cleared = [_clear_to(r, gden, subspace) for r in rgens]
        _RESTRICT_CACHE[key] = (gens, rgens, gden, cleared)
    return _RESTRICT_CACHE[key]


def _clear_to(r: RestrictedElement, target, subspace: LinearSubspace) -> Poly:
    out = r.numerator
    for i, e in enumerate(target):
        extra = e - r.denom_exps[i]
        if extra:
            out = out * subspace.coordinate_form(i) ** extra
    return out


def _solve_exact(columns, rhs_terms):
    """Solve sum c_j * column_j = rhs over Q; returns coefficient list or None."""
    rows = sorted({e for col in columns for e in col.terms} | set(rhs_terms))
    index = {e: i for i, e in enumerate(rows)}
    a = [[Fraction(0)] * len(columns) for _ in rows]
    for j, col in enumerate(columns):
        for e, c in col.terms.items():
            a[index[e]][j] = c
    b = [Fraction(0)] * len(rows)
    for e, c in rhs_terms.items():
        b[index[e]] = c
    return solve_rational(a, b)


class _Span:
    """Incremental row-echelon span of coefficient vectors keyed by exponent."""

    def __init__(self):
        self.pivots = {}  # leading exponent -> monic reduced vector

    def reduce(self, vec):
        vec = {e: c for e, c in vec.items() if c}
        while True:
            hits = [e for e in vec if e in self.pivots]
            if not hits:
                return vec
            lead = max(hits)
            f = vec[lead]
            for e, c in self.pivots[lead].items():
                s = vec.get(e, 0) - f * c
                if s:
                    vec[e] = s
                else:
                    vec.pop(e, None)

    def add(self, vec) -> bool:
        """Insert after reduction; returns True when the span grew."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = max(red)
        inv = 1 / red[lead]
        self.pivots[lead] = {e: c * inv for e, c in red.items()}
        return True


def _candidate_columns(cleared_gens_with_labels, degree, k, degree_bound):
    for g, rg in cleared_gens_with_labels:
        if rg.is_zero():
            continue
        delta = degree - rg.total_degree()
        if delta < 0 or delta > degree_bound:
            continue
        for mono in monomials_of_degree(k, delta):
            yield (g, mono), rg.term_mul(mono)


def _brute_verdict(q, module, subspace, window, degree_bound, want_certificate=False):
    """Exact linear algebra in the subspace coordinates, graded slice by slice.

    Returns (verdict, certificate); the certificate maps generator exponents
    to multiplier polynomials (in restricted coordinates) for each graded
    component of the cleared restriction, and is only assembled on request.
    """
    rq = restrict(q, subspace)
    if rq is ZERO_RING:
        return True, {}
    gens, rgens, gden, cleared_base = _generator_restrictions(module, subspace, window)
    target = tuple(max(a, b) for a, b in zip(gden, rq.denom_exps))
    if target == gden:
        cleared_gens = cleared_base
    else:
        cleared_gens = [_clear_to(r, target, subspace) for r in rgens]
    cleared_q = _clear_to(rq, target, subspace)
    if cleared_q.is_zero():
        return True, {}
    k = subspace.dim
    labeled = list(zip(gens, cleared_gens))
    certificate = {}
    for degree, component in cleared_q.homogeneous_components().items():
        if want_certificate:
            labels, columns = [], []
            for label, col in _candidate_columns(labeled, degree, k, degree_bound):
                labels.append(label)
                columns.append(col)
            sol = _solve_exact(columns, component.terms) if columns else None
            if sol is None:
                return False, None
            comp_cert = {}
            for (g, mono), c in zip(labels, sol):
                if c:
                    comp_cert.setdefault(g, {})[mono] = c
            certificate[degree] = {g: Poly(k, t) for g, t in comp_cert.items()}
        else:
            span = _Span()
            full_rank = 1  # dim of the degree slice in k variables
            for i in range(k - 1):
                full_rank = full_rank * (degree + 1 + i) // (i + 1)
            residual = span.reduce(component.terms)
            for _, col in _candidate_columns(labeled, degree, k, degree_bound):
                if not residual:
                    break
                if span.add(col.terms):
                    residual = span.reduce(residual)
                    if len(span.pivots) >= full_rank:
                        residual = {}
            if residual:
                return False, None
    return True, certificate


def verify_certificate(q, module, subspace, certificate, window=None) -> bool:
    """Re-expand a bounded-degree certificate and compare exactly."""
    rq = restrict(q, subspace)
    if rq is ZERO_RING:
        return True
    gens, rgens, gden, cleared_base = _generator_restrictions(
        module, subspace, window if window is not None else module.window
    )
    target = tuple(max(a, b) for a, b in zip(gden, rq.denom_exps))
    cleared_gens = cleared_base if target == gden else [_clear_to(r, target, subspace) for r in rgens]
    cleared_q = _clear_to(rq, target, subspace)
    by_exps = dict(zip(gens, cleared_gens))
    total = Poly.zero(subspace.dim)
    for comp in certificate.values():
        for g, mult in comp.items():
            total = total + by_exps[g] * mult
    return total == cleared_q


# --- membership: public entry -------------------------------------------------


def _verdict_at_window(q, module, subspace, window, backend, degree_bound):
    if subspace.is_zero_ring():
        return True
    if backend == "groebner":
        return _groebner_verdict(q, module, subspace, window)
    if backend == "brute":
        return _brute_verdict(q, module, subspace, window, degree_bound)[0]
    gb = _groebner_verdict(q, module, subspace, window)
    br = _brute_verdict(q, module, subspace, window, degree_bound)[0]
    if gb != br:
        raise BackendMismatchError(
            f"groebner={gb} brute={br} at window {window} for {q.render()}"
        )
    return gb


def stable_verdict(verdict_at, window):
    """Window-stability loop: evaluate `verdict_at` at `window` and widen by 2
    until two consecutive verdicts agree; returns (verdict, window at which it
    stabilized).  Raises InconclusiveError past WINDOW_CAP."""
    prev = verdict_at(window)
    while window + 2 <= WINDOW_CAP:
        window += 2
        cur = verdict_at(window)
        if cur == prev:
            return cur, window
        prev = cur
    raise InconclusiveError(f"window protocol failed to stabilize below {WINDOW_CAP}")


def membership(
    q: Poly,
    module: MonomialModule,
    subspace: LinearSubspace,
    backend: str = "both",
    degree_bound: int = 8,
) -> bool:
    """Is q in the module plus the relation ideal of the subspace?

    Window-stability protocol: evaluate at the module window W and W+2 and
    widen by 2 until two consecutive verdicts agree (cap 16 -> Inconclusive).
    """
    verdict, _ = stable_verdict(
        lambda w: _verdict_at_window(q, module, subspace, w, backend, degree_bound), module.window
    )
    return verdict


def membership_certified(
    q: Poly,
    module: MonomialModule,
    subspace: LinearSubspace,
    degree_bound: int = 8,
):
    """Both-backend verdict plus, for members, the bounded-degree certificate
    extracted at the stabilized window.  Returns (verdict, certificate, window)."""
    verdict, window = stable_verdict(
        lambda w: _verdict_at_window(q, module, subspace, w, "both", degree_bound), module.window
    )
    if not verdict:
        return False, None, window
    _, cert = _brute_verdict(q, module, subspace, window, degree_bound, want_certificate=True)
    return True, cert, window


def kernel_membership(q: Poly, km: KernelModule, backend: str = "both", degree_bound: int = 8) -> bool:
    return membership(q, km.module, km.subspace, backend=backend, degree_bound=degree_bound)
