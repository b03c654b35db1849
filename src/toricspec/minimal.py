"""Bounding modules, Nullstellensatz exponents, and minimal-degree witnesses.

In the proportional (monotone) case every module element has homogeneity
degree at least threshold * min_chern, the polynomial part of the module plus
the relation ideal is zero-dimensional away from the origin, and some
monomial class q escapes the module while all its coordinate successors u_i*q
fall in.  The witness search shifts the level up by a positive lattice
direction s*b until the constant 1 escapes, walks monomials breadth-first by
(total degree, lex), and translates back.  The shift acts on generators as
multiplication by u^iota(s*b), so u^a lies in the shifted module exactly when
u^(a - iota(s*b)) lies in the level module, and the search asks the level
module at translated monomials.  The resulting point count lower bound is
min_chern per unit period.

The polynomial part of the module is the monomial ideal of its generators'
positive parts, a monomial module of its own (`PolynomialPart`): its
Nullstellensatz exponents, which cap the witness search, are decided on the
module membership path, Groebner backend.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil

from toricspec.lattice import IntVec
from toricspec.laurent import (
    InconclusiveError,
    KernelModule,
    MonomialModule,
    RestrictedElement,
    _backend_verdict,
    check_start_window,
    kernel_K0,
    membership,
    membership_certified,
    restrict,
    restriction_class_key,
    verify_certificate,
)
from toricspec.polys import Poly, monomials_of_degree
from toricspec.polytope import ToricData, ToricHypothesisError, is_cpn, rationality_check


@dataclass(frozen=True)
class BoundingData:
    nu: Fraction
    c_minus: Fraction
    c_plus: Fraction
    r_minus: Fraction
    r_plus: Fraction
    lower: KernelModule   # projection of the level-r_minus module (outer bound)
    upper: KernelModule   # projection of the level-r_plus module (inner bound)


@dataclass
class MinimalDegreeWitness:
    monomial: IntVec                 # exponents of q, possibly negative
    restriction: RestrictedElement
    nu: Fraction
    shift: IntVec                    # lattice translation used to normalize degrees
    shifted_monomial: IntVec         # the breadth-first hit, before translating back
    successor_certificates: dict     # i -> brute-backend certificate for u_i * q

    def laurent(self) -> Poly:
        return Poly.monomial(self.monomial)

    def verify(self, km: KernelModule) -> bool:
        """Re-check all n + 1 verdicts on the brute backend alone."""
        if membership(self.laurent(), km.module, km.subspace, backend="brute"):
            return False
        n = km.module.toric.n
        for i in range(n):
            succ = list(self.monomial)
            succ[i] += 1
            q = Poly.monomial(tuple(succ))
            if not membership(q, km.module, km.subspace, backend="brute"):
                return False
            cert = self.successor_certificates.get(i)
            if cert is not None and not verify_certificate(q, km.module, km.subspace, cert):
                return False
        return True


@dataclass(frozen=True)
class NoMinimalElement:
    """The projected module is the whole ring; no witness exists."""

    nu: Fraction
    reason: str = "module is the whole ring"


def min_degree_bound(r, min_chern: int) -> Fraction:
    """Every element of the level-r module has homogeneity degree >= r * min_chern."""
    return Fraction(r) * min_chern


def check_generator_degree_floor(toric: ToricData, r, window: int) -> bool:
    if toric.min_chern is None:
        raise ToricHypothesisError("not monotone")
    bound = min_degree_bound(r, toric.min_chern)
    module = MonomialModule(toric=toric, threshold=Fraction(r), window=window)
    return all(Fraction(sum(g)) >= bound for g in module.generators())


def bounding_modules(toric: ToricData, nu, c_minus, c_plus, window: int = 2) -> BoundingData:
    """Sandwich the level-nu kernel module between explicit lattice modules at
    levels nu + c_minus and nu + c_plus, verifying the inclusion on generators."""
    c_minus, c_plus = Fraction(c_minus), Fraction(c_plus)
    if not c_minus < c_plus:
        raise ValueError("need c_minus < c_plus")
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    if toric.min_chern is None:
        raise ToricHypothesisError("not monotone")
    nu = Fraction(nu)
    r_minus, r_plus = nu + c_minus, nu + c_plus
    lower = kernel_K0(toric, r_minus, window)
    upper = kernel_K0(toric, r_plus, window)
    for g in upper.module.generators():
        if not membership(Poly.monomial(g), lower.module, lower.subspace):
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

    def _enumerate(self, w):
        """The distinct positive parts of the module's memoized window
        generators, sorted by (total degree, lex)."""
        module = MonomialModule(self.toric, self.threshold, self.window, self.center)
        positive = {tuple(max(x, 0) for x in g) for g in module.generators(w)}
        return tuple(sorted(positive, key=lambda g: (sum(g), g)))


def nullstellensatz_exponents(toric: ToricData, r, window: int, cap: int = 32) -> tuple[int, ...]:
    """Per coordinate, the least exponent with u_i^m in the polynomial-part
    ideal of the level-r module plus the relation ideal."""
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    if toric.min_chern is None:
        raise ToricHypothesisError("not monotone")
    if is_cpn(toric):
        raise ToricHypothesisError("projective-space type excluded")
    km = kernel_K0(toric, Fraction(r), window)
    part = PolynomialPart(toric, km.module.threshold, window)
    n = toric.n
    out = []
    for i in range(n):
        found = None
        for m in range(cap + 1):
            q = Poly.monomial(tuple(m if j == i else 0 for j in range(n)))
            if membership(q, part, km.subspace, backend="groebner"):
                found = m
                break
        if found is None:
            raise InconclusiveError(f"no exponent below cap {cap} for coordinate {i + 1}")
        out.append(found)
    return tuple(out)


def monomial_ideal_member(toric: ToricData, r, window: int, exps) -> bool:
    """Membership of a polynomial monomial in the polynomial-part ideal."""
    km = kernel_K0(toric, Fraction(r), window)
    part = PolynomialPart(toric, km.module.threshold, window)
    return membership(Poly.monomial(tuple(exps)), part, km.subspace, backend="groebner")


# --- the witness search ---------------------------------------------------------


def _scaled_shift(toric: ToricData, nu: Fraction) -> IntVec:
    """Smallest positive multiple s*b with (nu + p(s*b)) * min_chern >= 1, so
    the shifted module sits strictly above degree zero."""
    r0 = toric.p_value(toric.b)  # positive, since b is strictly positive
    n_m = toric.min_chern if toric.min_chern is not None else 1
    s = max(1, ceil((Fraction(1, n_m) - nu) / r0))
    return tuple(s * x for x in toric.b)


def find_minimal_degree_element(toric: ToricData, nu, window: int = 2):
    """A monomial class q outside the level-nu kernel module whose coordinate
    successors u_i * q all fall in; or NoMinimalElement when the module is the
    whole ring.

    Search: translate the level up along a strictly positive lattice direction
    until degree 0 is excluded, walk monomials breadth-first ordered by total
    degree then lex, and stop at the first monomial all of whose successors
    are members.  Each question is asked of the level module at the monomial
    translated back, where each successor's certificate is also re-verified.
    """
    nu = Fraction(nu)
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    if is_cpn(toric):
        raise ToricHypothesisError("projective-space type excluded")
    km = kernel_K0(toric, nu, window)
    n = toric.n
    if toric.min_chern is None:
        # without proportionality the module can swallow the whole ring; probe
        # the constant at the given level
        if membership(Poly.constant(n, 1), km.module, km.subspace):
            return NoMinimalElement(nu=nu)
        raise ToricHypothesisError("not monotone")
    shift = _scaled_shift(toric, nu)
    iota_shift = toric.iota_apply(shift)

    def back(a):
        return tuple(x - y for x, y in zip(a, iota_shift))

    if membership(Poly.monomial(back((0,) * n)), km.module, km.subspace):
        raise InconclusiveError("degree normalization failed to exclude the constant")
    exps = nullstellensatz_exponents(toric, nu + toric.p_value(shift), window)
    cap = sum(exps) + 2
    member_cache: dict = {}

    def is_member(a):
        # verdicts only depend on the restriction class of the monomial
        key = restriction_class_key(km.subspace, a)
        if key not in member_cache:
            member_cache[key] = membership(Poly.monomial(back(a)), km.module, km.subspace)
        return member_cache[key]

    for degree in range(cap + 1):
        # ascending lex: the reverse of the descending enumeration
        for a in reversed(list(monomials_of_degree(n, degree))):
            if is_member(a):
                continue
            successors = [a[:i] + (a[i] + 1,) + a[i + 1:] for i in range(n)]
            if all(is_member(s) for s in successors):
                q_exps = back(a)
                certs = {}
                for i, s in enumerate(successors):
                    succ = Poly.monomial(back(s))
                    ok, cert = membership_certified(succ, km.module, km.subspace)
                    if not ok:
                        raise InconclusiveError("successor failed re-check on the original module")
                    if not verify_certificate(succ, km.module, km.subspace, cert):
                        raise InconclusiveError("successor certificate failed re-verification")
                    certs[i] = cert
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
    if toric.min_chern is None:
        raise ToricHypothesisError("not monotone")
    bound = min_degree_bound(r, toric.min_chern)
    km = kernel_K0(toric, Fraction(r), window)
    check_start_window(window)
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
        # both full backends at W + 2, as membership decides, but not the
        # degree test: this scan is what checks it
        if _backend_verdict(Poly.monomial(a), km.module, km.subspace, window + 2, "both"):
            violations.append(a)
    return violations, checked


def translated_point_bound(toric: ToricData, nu=Fraction(1, 2), window: int = 2):
    """Lower bound for the number of translated points per period, with its
    witness chain.  Returns (min_chern, witness)."""
    if not rationality_check(toric):
        raise ToricHypothesisError("p is not primitive integral")
    if toric.min_chern is None:
        raise ToricHypothesisError("not monotone")
    if is_cpn(toric):
        raise ToricHypothesisError("projective-space type excluded")
    witness = find_minimal_degree_element(toric, nu, window)
    if isinstance(witness, NoMinimalElement):
        raise ToricHypothesisError("kernel module is the whole ring")
    return toric.min_chern, witness
