"""Bounding modules, Nullstellensatz exponents, and minimal-degree witnesses.

In the proportional (monotone) case every module element has homogeneity
degree at least threshold * min_chern, the polynomial part of the module plus
the relation ideal is zero-dimensional away from the origin, and some
monomial class q escapes the module while all its coordinate successors u_i*q
fall in.  Only the restriction class of q matters: monomials whose exponent
sums agree over each group of coordinates with one restriction direction
restrict to scalar multiples of each other.  The witness search shifts the
level up by a positive lattice direction s*b until the constant 1 escapes,
walks the restriction classes by total degree and then by the lex order of
their lex-least monomials, and translates back.  The shift acts on generators
as multiplication by u^iota(s*b), so u^a lies in the shifted module exactly
when u^(a - iota(s*b)) lies in the level module, and the search asks the
level module once per class, at its lex-least monomial translated back.  The
resulting point count lower bound is min_chern per unit period.

The polynomial part of the module is the monomial ideal of its generators'
positive parts, a monomial module of its own (`PolynomialPart`): its
Nullstellensatz exponents, which cap the witness search, are decided on the
module membership path, Groebner backend.
"""

from fractions import Fraction
from itertools import product
from math import ceil

from toricspec.lattice import IntVec
from toricspec.laurent import (
    InconclusiveError,
    KernelModule,
    MonomialModule,
    RestrictedElement,
    _verdict,
    decision_module,
    kernel_K0,
    membership,
    membership_certified,
    restrict,
    restriction_class_key,
    restriction_groups,
    verify_certificate,
)
from toricspec.memo import Value, replace
from toricspec.polys import Poly, monomials_of_degree
from toricspec.polytope import ToricData, ToricHypothesisError, check_hypotheses


class BoundingData(Value):
    nu: Fraction
    c_minus: Fraction
    c_plus: Fraction
    r_minus: Fraction
    r_plus: Fraction
    lower: KernelModule   # projection of the level-r_minus module (outer bound)
    upper: KernelModule   # projection of the level-r_plus module (inner bound)


class MinimalDegreeWitness(Value):
    monomial: IntVec                 # exponents of q, possibly negative
    restriction: RestrictedElement
    nu: Fraction
    shift: IntVec                    # lattice translation used to normalize degrees
    shifted_monomial: IntVec         # the class walk's hit (lex-least in its class), before translating back
    successor_certificates: dict     # i -> relation (scale, {(g, a): c}) certifying u_i * q


class NoMinimalElement(Value):
    """The projected module is the whole ring; no witness exists."""

    nu: Fraction
    reason: str = "module is the whole ring"


def min_degree_bound(r, min_chern: int) -> Fraction:
    """Every element of the level-r module has homogeneity degree >= r * min_chern."""
    return Fraction(r) * min_chern


def bounding_modules(toric: ToricData, nu, c_minus, c_plus, window: int = 2) -> BoundingData:
    """Sandwich the level-nu kernel module between explicit lattice modules at
    levels nu + c_minus and nu + c_plus, verifying the inclusion on generators."""
    c_minus, c_plus = Fraction(c_minus), Fraction(c_plus)
    if not c_minus < c_plus:
        raise ValueError("need c_minus < c_plus")
    check_hypotheses(toric, monotone=True)
    nu = Fraction(nu)
    r_minus, r_plus = nu + c_minus, nu + c_plus
    lower = kernel_K0(toric, r_minus, window)
    upper = kernel_K0(toric, r_plus, window)
    for g in upper.module.generators():
        if not membership(Poly.monomial(g), lower):
            raise InconclusiveError("bounding inclusion failed on a generator")
    return BoundingData(
        nu=nu, c_minus=c_minus, c_plus=c_plus, r_minus=r_minus, r_plus=r_plus,
        lower=lower, upper=upper,
    )


# --- the polynomial-part ideal ------------------------------------------------


class PolynomialPart(MonomialModule):
    """The polynomial part of the module at the same level: the monomial
    ideal generated by the componentwise-positive parts of its generators.
    As a monomial module with no negative exponents it is cleared at floor 0,
    and its sorted generators put the least positive-part degree first."""

    def _enumerate(self):
        """The distinct positive parts of the module's memoized generators,
        sorted by (total degree, lex)."""
        module = MonomialModule(self.toric, self.threshold, self.window, self.center)
        positive = {tuple(max(x, 0) for x in g) for g in module.generators()}
        return tuple(sorted(positive, key=lambda g: (sum(g), g)))


def nullstellensatz_exponents(toric: ToricData, r, window: int, cap: int = 32) -> tuple[int, ...]:
    """Per coordinate, the least exponent with u_i^m in the polynomial-part
    ideal of the level-r module plus the relation ideal.  Coordinates with one
    restriction direction restrict to scalar multiples of each other and share
    their exponent, so only the first coordinate of each group is scanned."""
    check_hypotheses(toric, monotone=True, exclude_cpn=True)
    km = kernel_K0(toric, Fraction(r), window)
    part = replace(km, module=PolynomialPart(toric, km.module.threshold, window))
    n = toric.n
    groups, _ = restriction_groups(km.subspace)
    if membership(Poly.monomial((0,) * n), part, backend="groebner"):
        return (0,) * n
    found: dict = {}
    for i, g in enumerate(groups):
        if g in found:
            continue
        for m in range(1, cap + 1):
            if membership(Poly.monomial(tuple(m if j == i else 0 for j in range(n))), part, backend="groebner"):
                found[g] = m
                break
        else:
            raise InconclusiveError(f"no exponent below cap {cap} for coordinate {i + 1}")
    return tuple(found[g] for g in groups)


# --- the witness search ---------------------------------------------------------


def _scaled_shift(toric: ToricData, nu: Fraction) -> IntVec:
    """Smallest positive multiple s*b with (nu + p(s*b)) * min_chern >= 1, so
    the shifted module sits strictly above degree zero."""
    r0 = toric.p_value(toric.b)  # positive, since b is strictly positive
    s = max(1, ceil((Fraction(1, toric.min_chern) - nu) / r0))
    return tuple(s * x for x in toric.b)


def find_minimal_degree_element(toric: ToricData, nu, window: int = 2):
    """A monomial class q outside the level-nu kernel module whose coordinate
    successors u_i * q all fall in; or NoMinimalElement when the module is the
    whole ring.

    Search: translate the level up along a strictly positive lattice direction
    until degree 0 is excluded, then walk the restriction classes, keyed by
    their exponent sums per direction group (the compositions of each total
    degree), in the lex order of their lex-least monomials, which hold each
    group's sum on its last coordinate.  A class qualifies when it is no
    member and adding one to any group makes it a member; the first one gives
    the witness, the same monomial a walk over every monomial by (total
    degree, lex) would stop at.  Each class is asked once, of the level
    module at its lex-least monomial translated back; the witness's n
    coordinate successors are then certified in integers.
    """
    nu = Fraction(nu)
    check_hypotheses(toric, exclude_cpn=True)
    km = kernel_K0(toric, nu, window)
    n = toric.n
    if toric.min_chern is None:
        # without proportionality the module can swallow the whole ring; probe
        # the constant at the given level
        if membership(Poly.constant(n, 1), km):
            return NoMinimalElement(nu=nu)
        raise ToricHypothesisError("not monotone")
    shift = _scaled_shift(toric, nu)
    iota_shift = toric.iota_apply(shift)

    def back(a):
        return tuple(x - y for x, y in zip(a, iota_shift))

    if membership(Poly.monomial(back((0,) * n)), km):
        raise InconclusiveError("degree normalization failed to exclude the constant")
    exps = nullstellensatz_exponents(toric, nu + toric.p_value(shift), window)
    cap = sum(exps) + 2
    groups, count = restriction_groups(km.subspace)
    last = {g: i for i, g in enumerate(groups)}  # each group's last coordinate
    rank = {g: j for j, g in enumerate(sorted(last, key=last.get))}
    verdicts = {(0,) * count: False}  # the constant, asked above

    def lex_least(key):
        a = [0] * n
        for g, e in enumerate(key):
            a[last[g]] = e
        return tuple(a)

    def is_member(key):
        if key not in verdicts:
            verdicts[key] = membership(Poly.monomial(back(lex_least(key))), km)
        return verdicts[key]

    for degree in range(cap + 1):
        # ascending lex over the sums in last-coordinate order: the reverse of
        # the descending enumeration
        for sums in reversed(list(monomials_of_degree(count, degree))):
            key = tuple(sums[rank[g]] for g in range(count))
            if is_member(key):
                continue
            # groups in id order, numbered by first appearance: the order in
            # which the coordinate successors reach them
            if all(is_member(key[:g] + (key[g] + 1,) + key[g + 1:]) for g in range(count)):
                a = lex_least(key)
                q_exps = back(a)
                certs = {}
                successors = [a[:i] + (a[i] + 1,) + a[i + 1:] for i in range(n)]
                for i, s in enumerate(successors):
                    succ = Poly.monomial(back(s))
                    ok, certs[i] = membership_certified(succ, km)
                    if not ok:
                        raise InconclusiveError("successor failed re-check on the original module")
                    if not verify_certificate(succ, km, certs[i]):
                        raise InconclusiveError("successor certificate failed re-verification")
                return MinimalDegreeWitness(
                    monomial=q_exps,
                    restriction=restrict(Poly.monomial(q_exps), km.subspace),
                    nu=nu,
                    shift=shift,
                    shifted_monomial=a,
                    successor_certificates=certs,
                )
    raise InconclusiveError("no witness below the degree cap")


def degree_floor_violations(toric: ToricData, r, window: int, box: int = 2):
    """Exhaustive scan: monomial classes of homogeneity degree below
    r * min_chern must stay outside the projected module.  Returns the list of
    violating exponent vectors (empty = pass) and the number of classes checked."""
    check_hypotheses(toric, monotone=True)
    bound = min_degree_bound(r, toric.min_chern)
    km = decision_module(kernel_K0(toric, Fraction(r), window))
    n = toric.n
    seen = set()
    violations = []
    checked = 0
    for a in product(range(-box, box + 1), repeat=n):
        if Fraction(sum(a)) >= bound:
            continue
        key = restriction_class_key(km.subspace, a)
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        # the verdict at W + 2 as membership decides it (the m^D decision,
        # else both backends), but not the degree test: this scan checks it
        if _verdict(Poly.monomial(a), km, "both")[0]:
            violations.append(a)
    return violations, checked


def translated_point_bound(toric: ToricData, nu=Fraction(1, 2), window: int = 2):
    """Lower bound for the number of translated points per period, with its
    witness chain.  Returns (min_chern, witness); monotone data never yields
    NoMinimalElement."""
    check_hypotheses(toric, monotone=True, exclude_cpn=True)
    return toric.min_chern, find_minimal_degree_element(toric, nu, window)
