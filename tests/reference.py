"""Test-only references: Fraction elimination (RREF, integer spans,
inverses), determinants by the Leibniz expansion and the
maximal-minors basis test, powers, monic scaling and restriction degrees
that the library never needs, the Fraction Groebner engine, the relation ideal
of a linear subspace, module membership by its definition in Q[u_1..u_n],
the window-stability loop that membership at W + 2 replaced, the witness
search over every monomial that the walk over restriction classes replaced,
a witness's verdicts re-checked on the brute backend, Fourier-Motzkin feasibility,
the Fraction eigenvalue sign that the integer `quadforms.eigen_sign` replaced,
the Fraction spectrum classes and listings that the integer class set replaced,
the `parse_fraction` before its int() path for p/q, and
the argparse command line that the command table replaced."""

import argparse
import heapq
from fractions import Fraction
from itertools import combinations, permutations
from math import floor, gcd, lcm
from operator import add, ge, sub
from typing import NamedTuple

from toricspec.cli import (
    cmd_bound,
    cmd_data,
    cmd_kernel,
    cmd_min_degree,
    cmd_spectrum,
    cmd_spectrum_quadform,
    cmd_validate,
)
from toricspec.lattice import identity_matrix, integer_kernel
from toricspec.laurent import (
    WINDOW_CAP,
    InconclusiveError,
    _below_generator_degree,
    _verdict,
    check_start_window,
    kernel_K0,
    membership,
    membership_certified,
    restrict,
    restriction_class_key,
    verify_certificate,
)
from toricspec.memo import replace
from toricspec.minimal import MinimalDegreeWitness, PolynomialPart, _scaled_shift
from toricspec.polys import Poly, exact_div, grevlex_key, monomials_of_degree
from toricspec.polytope import check_hypotheses


# --- small polynomial helpers ---------------------------------------------------------


def poly_pow(f, k: int):
    """f ** k by repeated multiplication."""
    out = Poly.constant(f.nvars, 1)
    for _ in range(k):
        out = out * f
    return out


def monic(f):
    """f scaled to leading coefficient 1 (the zero polynomial stays zero)."""
    return f * exact_div(1, f.leading()[1]) if f.terms else f


def restriction_degree(r) -> int:
    """Homogeneity degree of a restricted element with a nonzero homogeneous
    numerator."""
    return r.numerator.total_degree() - sum(r.denom_exps)


# --- Fraction elimination -----------------------------------------------------------
#
# The library eliminates in integers only, with the Hermite form; these are
# the rational references it is checked against.


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot column indices)."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def in_integer_span(columns, x) -> bool:
    """x is an integer combination of the linearly independent integer
    `columns`: the Fraction solve of sum c_j columns[j] = x is consistent and
    its solution, unique by independence, is integral."""
    if not columns:
        return not any(x)
    r = len(columns)
    red, pivots = rref([[col[i] for col in columns] + [x[i]] for i in range(len(x))])
    return r not in pivots and all(red[i][r].denominator == 1 for i in range(len(pivots)))


def fraction_unimodular_inverse(m):
    """Reference: RREF of [M | I] over Q, with integral output required."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)) or any(x.denominator != 1 for row in red for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x.numerator for x in row[n:]) for row in red)


def leibniz_det(m) -> int:
    """Determinant by its definition: the signed sum over all n! permutations
    of the products of one entry per row and column."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = -1 if sum(perm[i] > perm[j] for i, j in combinations(range(n), 2)) % 2 else 1
        for row, col in zip(m, perm):
            term *= row[col]
        total += term
    return total


def minors_gcd_oracle(vectors, dim):
    """Independent basis-extension oracle: gcd of all maximal minors is 1."""
    s = len(vectors)
    if s == 0:
        return True
    if s > dim:
        return False
    colmat = tuple(tuple(v[i] for v in vectors) for i in range(dim))
    g = 0
    for rows in combinations(range(dim), s):
        sub = tuple(colmat[r] for r in rows)
        g = gcd(g, abs(leibniz_det(sub)))
    return g == 1


# --- the reference engine ----------------------------------------------------------
#
# Division, interreduction and Buchberger's algorithm as the Fraction engine
# computed them before the integer engine replaced it: monic bases, a chain
# test over processed pairs, and interreduction repeated until a pass changes
# nothing.  The integer engine must give the same results.


def _reference_heap_key(exps):
    return (-sum(exps), exps[::-1])


def _reference_normal_form(f, basis):
    if not basis:
        return f
    divisors = [(g.leading(), g.terms) for g in basis]
    work = dict(f.terms)
    heap = [(_reference_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    rem_terms = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        for (lead, gc), terms in divisors:
            if all(map(ge, e, lead)):
                diff = tuple(map(sub, e, lead))
                factor = c if gc == 1 else exact_div(c, gc)
                for te, tc in terms.items():
                    if te == lead:
                        continue
                    t = tuple(map(add, te, diff))
                    d = factor * tc
                    old = work.get(t)
                    if old is None:
                        work[t] = -d
                        heapq.heappush(heap, (_reference_heap_key(t), t))
                    elif old != d:
                        work[t] = old - d
                    else:
                        del work[t]
                break
        else:
            rem_terms[e] = c
    return Poly(f.nvars, rem_terms)


def _reference_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _reference_s_polynomial(f, g):
    fe, fc = f.leading()
    ge_, gc = g.leading()
    l = _reference_lcm(fe, ge_)
    return f.term_mul(tuple(a - b for a, b in zip(l, fe)), exact_div(1, fc)) - g.term_mul(
        tuple(a - b for a, b in zip(l, ge_)), exact_div(1, gc)
    )


def _reference_interreduce(basis):
    work = [monic(g) for g in basis if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(work):
            r = _reference_normal_form(work[i], work[:i] + work[i + 1:])
            if r.terms != work[i].terms:
                changed = True
                if r.is_zero():
                    del work[i]
                    continue
                work[i] = monic(r)
            i += 1
    return sorted(work, key=lambda g: g.leading()[0])


def _reference_buchberger(gens):
    basis = _reference_interreduce(gens)
    if not basis:
        return []
    leads = [g.leading()[0] for g in basis]
    pair_key = {}

    def add_pairs(new):
        for t in range(new):
            pair_key[new, t] = grevlex_key(_reference_lcm(leads[new], leads[t]))

    for i in range(len(basis)):
        add_pairs(i)
    pairs = set(pair_key)
    processed = set()
    while pairs:
        i, j = min(pairs, key=pair_key.__getitem__)
        pairs.remove((i, j))
        processed.add((i, j))
        ei, ej = leads[i], leads[j]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        l = _reference_lcm(ei, ej)
        skip = False
        for k, ek in enumerate(leads):
            if k in (i, j):
                continue
            if all(a >= b for a, b in zip(l, ek)):
                p1 = (max(i, k), min(i, k))
                p2 = (max(j, k), min(j, k))
                if p1 in processed and p2 in processed:
                    skip = True
                    break
        if skip:
            continue
        h = _reference_normal_form(_reference_s_polynomial(basis[i], basis[j]), basis)
        if h.is_zero():
            continue
        basis.append(monic(h))
        leads.append(basis[-1].leading()[0])
        new = len(basis) - 1
        add_pairs(new)
        pairs.update((new, t) for t in range(new))
    return _reference_interreduce(basis)


# --- the relation ideal --------------------------------------------------------------
#
# The library restricts to V instead: u_i -> l_i(w) maps Q[u] onto Q[w] with
# this ideal as its kernel.


def annihilator(subspace):
    """Integer basis of the linear forms on Q^n vanishing on V."""
    if subspace.dim == 0:
        return tuple(tuple(row) for row in identity_matrix(subspace.nvars))
    return integer_kernel(tuple(zip(*subspace.basis))).vectors


def _linear_relations(subspace):
    """Reduced Groebner basis of the relation ideal of V: the monic row echelon
    form of the annihilator, sorted by leading exponent; [1] on a zero ring,
    where the ideal holds a coordinate, a unit of the Laurent ring."""
    if subspace.is_zero_ring():
        return [Poly.constant(subspace.nvars, 1)]
    red, pivots = rref(annihilator(subspace))
    forms = [Poly.linear_form(row) for row in red[: len(pivots)]]
    return sorted(forms, key=lambda g: g.leading()[0])


def reference_module_ideal(gens, depth, subspace):
    """The reference engine's reduced basis of the ideal of Q[u] generated by
    the u^(g + depth) over the generators g and by the relation ideal of V.
    By definition, a query q with q * u^depth a polynomial lies in the module
    plus the relation ideal when q * u^depth reduces to zero by it."""
    monomials = [Poly.monomial(tuple(map(add, g, depth))) for g in gens]
    return _reference_buchberger(monomials + _linear_relations(subspace))


# --- the window-stability loop ------------------------------------------------------
#
# Membership decided this way before it was decided at W + 2 alone.  The
# module at W lies inside the module at W + 2, so the verdicts can only go
# from False to True, and the loop returns the verdict at W + 2.


def at_window(km, window):
    """The kernel module `km` with its module at window `window`."""
    return replace(km, module=replace(km.module, window=window))


def verdict_at_window(q, km, window, backend):
    """What `membership` decides at W + 2, asked of the kernel module at any
    window: the degree test, then `_verdict`."""
    km = at_window(km, window)
    return not _below_generator_degree(q, km) and _verdict(q, km, backend)[0]


def stable_verdict(verdict_at, window):
    """Window-stability loop: evaluate `verdict_at` at `window` and widen by 2
    until two consecutive verdicts agree; returns (verdict, window at which it
    stabilized).  Raises InconclusiveError past WINDOW_CAP, before evaluating
    anything when the start window is already too close to it."""
    check_start_window(window)
    prev = verdict_at(window)
    while window + 2 <= WINDOW_CAP:
        window += 2
        cur = verdict_at(window)
        if cur == prev:
            return cur, window
        prev = cur
    raise InconclusiveError(f"window protocol failed to stabilize below {WINDOW_CAP}")


# --- the witness search, monomial by monomial -----------------------------------------
#
# The search before it walked restriction classes: every coordinate scanned
# for its Nullstellensatz exponent, and every monomial of N^n listed by (total
# degree, lex), each verdict cached by the monomial's restriction class.


def reference_nullstellensatz_exponents(toric, r, window: int, cap: int = 32):
    """Per coordinate, the least m <= cap with u_i^m in the polynomial part of
    the level-r module, each coordinate scanned from m = 0."""
    check_hypotheses(toric, monotone=True, exclude_cpn=True)
    km = kernel_K0(toric, Fraction(r), window)
    part = replace(km, module=PolynomialPart(toric, km.module.threshold, window))
    n = toric.n
    out = []
    for i in range(n):
        for m in range(cap + 1):
            if membership(Poly.monomial(tuple(m if j == i else 0 for j in range(n))), part, backend="groebner"):
                out.append(m)
                break
        else:
            raise InconclusiveError(f"no exponent below cap {cap} for coordinate {i + 1}")
    return tuple(out)


def reference_minimal_degree_element(toric, nu, window: int = 2):
    """The first monomial a of the shifted level, by (total degree, lex),
    outside the module with every coordinate successor inside, as a
    `MinimalDegreeWitness` with its successors certified; monotone data only."""
    nu = Fraction(nu)
    check_hypotheses(toric, monotone=True, exclude_cpn=True)
    km = kernel_K0(toric, nu, window)
    n = toric.n
    shift = _scaled_shift(toric, nu)
    iota_shift = toric.iota_apply(shift)

    def back(a):
        return tuple(map(sub, a, iota_shift))

    if membership(Poly.monomial(back((0,) * n)), km):
        raise InconclusiveError("degree normalization failed to exclude the constant")
    cap = sum(reference_nullstellensatz_exponents(toric, nu + toric.p_value(shift), window)) + 2
    cache = {}

    def is_member(a):
        key = restriction_class_key(km.subspace, a)
        if key not in cache:
            cache[key] = membership(Poly.monomial(back(a)), km)
        return cache[key]

    for degree in range(cap + 1):
        for a in reversed(list(monomials_of_degree(n, degree))):
            successors = [a[:i] + (a[i] + 1,) + a[i + 1:] for i in range(n)]
            if is_member(a) or not all(map(is_member, successors)):
                continue
            certs = {}
            for i, s in enumerate(successors):
                ok, certs[i] = membership_certified(Poly.monomial(back(s)), km)
                assert ok and verify_certificate(Poly.monomial(back(s)), km, certs[i])
            return MinimalDegreeWitness(
                monomial=back(a),
                restriction=restrict(Poly.monomial(back(a)), km.subspace),
                nu=nu,
                shift=shift,
                shifted_monomial=a,
                successor_certificates=certs,
            )
    raise InconclusiveError("no witness below the degree cap")


# --- the witness re-check -------------------------------------------------------------


def verify_witness(witness, km) -> bool:
    """Re-check a witness's n + 1 verdicts on the brute backend alone, and
    the certificate that each successor must carry."""
    if membership(Poly.monomial(witness.monomial), km, backend="brute"):
        return False
    n = km.module.toric.n
    for i in range(n):
        succ = list(witness.monomial)
        succ[i] += 1
        q = Poly.monomial(tuple(succ))
        if not membership(q, km, backend="brute"):
            return False
        cert = witness.successor_certificates.get(i)
        if cert is None or not verify_certificate(q, km, cert):
            return False
    return True


# --- exact feasibility (Fourier-Motzkin) ---------------------------------------------
#
# Every offset of a Delzant polytope is positive, so `validate` never needs to
# tell an empty input apart; the tests use this as an independent feasibility
# test (compactness probes, minimal supports).


def fraction_eigen_sign(lam, k: int) -> int:
    """The sign of the quadratic-form eigenvalue at (lam, k), that of
    (k + 1/2) - lam, in Fraction arithmetic."""
    diff = Fraction(2 * k + 1, 2) - Fraction(lam)
    return (diff > 0) - (diff < 0)


# --- the Fraction spectrum ------------------------------------------------------------


class FractionClass(NamedTuple):
    support: tuple[int, ...]          # 1-based coordinate indices
    base: Fraction                    # one realized shift value
    step: Fraction                    # generator of the value group (0 = isolated)


class FractionReport(NamedTuple):
    window: tuple[Fraction, Fraction]
    values: tuple[tuple[Fraction, tuple[tuple[int, ...], ...]], ...]
    period_check: bool                # every step is 1/m, m an integer
    boundary_hits: tuple[Fraction, ...] = ()


def fraction_support_class(toric, dmap, support):
    """The class of one support and its witness lambda, in Fraction
    arithmetic throughout."""
    inv = fraction_unimodular_inverse(tuple(toric.iota[j - 1] for j in support))
    half = Fraction(1, 2) if dmap.twisted else Fraction(0)
    c = [half - dmap.mu[j - 1] for j in support]
    x = [sum((row[t] * pi for row, pi in zip(inv, toric.p)), Fraction(0)) for t in range(toric.k)]
    nums = [v for v in x if v]
    denom = lcm(*(v.denominator for v in nums))
    g = 0
    for v in nums:
        g = gcd(g, int(v * denom))
    cls = FractionClass(
        support=tuple(support),
        base=-sum((xi * ci for xi, ci in zip(x, c)), Fraction(0)),
        step=Fraction(g, denom),
    )
    return cls, tuple(sum((a * ci for a, ci in zip(row, c)), Fraction(0)) for row in inv)


def _fraction_class_values_in(cls, lo, hi):
    """One class's values in [lo, hi], stepped in Fraction arithmetic."""
    if cls.step == 0:
        return [cls.base] if lo <= cls.base <= hi else []
    t = -floor((cls.base - lo) / cls.step)   # ceil((lo - base)/step)
    out = []
    while cls.base + t * cls.step <= hi:
        v = cls.base + t * cls.step
        if v >= lo:
            out.append(v)
        t += 1
    return out


def fraction_window_report(classes, window):
    """The classes' values in the closed window, each with the sorted supports
    realizing it, stepped in Fraction arithmetic."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty (lo > hi)")
    by_value = {}
    for cls in classes:
        for v in _fraction_class_values_in(cls, lo, hi):
            by_value.setdefault(v, set()).add(cls.support)
    return FractionReport(
        window=(lo, hi),
        values=tuple((v, tuple(sorted(by_value[v]))) for v in sorted(by_value)),
        period_check=all(cls.step != 0 and (1 / cls.step).denominator == 1 for cls in classes),
    )


def fraction_period_report(classes, nu):
    """The classes' values in the period [nu, nu + 1): the closed window
    [nu, nu + 1] without its top value, a value at nu a boundary hit."""
    report = fraction_window_report(classes, (nu, nu + 1))
    return FractionReport(
        window=report.window,
        values=tuple((v, s) for v, s in report.values if v < nu + 1),
        period_check=report.period_check,
        boundary_hits=tuple(v for v, _ in report.values if v == nu),
    )


def reference_parse_fraction(text: str) -> Fraction:
    """`polytope.parse_fraction` as it was before p/q took the int() path:
    every literal but a plain decimal integer goes through `Fraction(str)`."""
    text = text.strip()
    if (text[1:] if text[:1] in "+-" else text).isdecimal():
        return Fraction(int(text))
    if any(ch in text for ch in ".eE"):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "_" in text:  # Fraction reads them from Python 3.11 on
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def _normalize_ineq(coeffs, const):
    scale = None
    for c in list(coeffs) + [const]:
        if c != 0:
            scale = abs(c)
            break
    if scale is None:
        return tuple(Fraction(0) for _ in coeffs), Fraction(0)
    return tuple(Fraction(c) / scale for c in coeffs), Fraction(const) / scale


def fourier_motzkin_feasible(ineqs, nvars: int) -> bool:
    """Feasibility of {x : sum c_i x_i + const >= 0 for each (c, const)} over Q."""
    system = {(_normalize_ineq(c, k)) for c, k in ineqs}
    for var in range(nvars):
        pos, neg, zero = [], [], []
        for coeffs, const in system:
            cv = coeffs[var]
            if cv > 0:
                pos.append((coeffs, const))
            elif cv < 0:
                neg.append((coeffs, const))
            else:
                zero.append((coeffs, const))
        new = set(zero)
        for cp, kp in pos:
            for cn, kn in neg:
                a, b = cp[var], -cn[var]
                coeffs = tuple(b * x + a * y for x, y in zip(cp, cn))
                new.add(_normalize_ineq(coeffs, b * kp + a * kn))
        system = new
    return all(const >= 0 for _, const in system)


def rational_feasible(eqs, ineqs, nvars: int) -> bool:
    """Feasibility of {A x = b (eqs), C x + k >= 0 (ineqs)}: eliminate the
    equalities by exact substitution, then Fourier-Motzkin the rest."""
    if eqs:
        aug = [[Fraction(c) for c in coeffs] + [Fraction(-const)] for coeffs, const in eqs]
        red, pivots = rref(aug)
        for row in red:
            if all(x == 0 for x in row[:-1]) and row[-1] != 0:
                return False
        free = [c for c in range(nvars) if c not in pivots]
        # x_pivot = rhs - sum(free coeff * x_free)
        subs = {}
        for r, pc in enumerate(pivots):
            if pc == nvars:
                return False
            subs[pc] = (red[r][-1], {fc: -red[r][fc] for fc in free})
        reduced = []
        for coeffs, const in ineqs:
            new_const = Fraction(const)
            new_coeffs = [Fraction(0)] * len(free)
            for i, c in enumerate(coeffs):
                if c == 0:
                    continue
                if i in subs:
                    rhs, fdep = subs[i]
                    new_const += c * rhs
                    for fi, fc in enumerate(free):
                        new_coeffs[fi] += c * fdep.get(fc, Fraction(0))
                else:
                    new_coeffs[free.index(i)] += Fraction(c)
            reduced.append((tuple(new_coeffs), new_const))
        return fourier_motzkin_feasible(reduced, len(free))
    return fourier_motzkin_feasible(ineqs, nvars)


# --- the argparse command line ---------------------------------------------------------
#
# The parser `toricspec.cli` ran before its command table, kept verbatim: the
# table's scanner must give the same namespace on every valid command line and
# reject every line this parser rejects.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricspec",
        description="Exact toric reduction data, kernel modules, and translated spectra.",
    )
    parser.add_argument("--format", choices=("human", "machine"), default="machine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="compactness/smoothness and vertices")
    p.add_argument("polytope")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("data", help="full reduction data")
    p.add_argument("polytope")
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("spectrum-quadform", help="exact quadratic-form spectrum")
    p.add_argument("polytope")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lam", required=True, help="rational vector in the kernel basis, e.g. 1/2,0")
    p.add_argument("--numeric", action="store_true", help="append a floating cross-check block")
    p.set_defaults(func=cmd_spectrum_quadform)

    p = sub.add_parser("kernel", help="level module generators and membership")
    p.add_argument("polytope")
    p.add_argument("--nu", default=None)
    p.add_argument("--W", type=int, default=2)
    p.add_argument("--ring", choices=("K0", "K"), default="K0")
    p.add_argument("--member", default=None, help="integer exponent vector, e.g. 1,0,0,0")
    p.add_argument("--backend", choices=("groebner", "brute", "both"), default="both")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("min-degree", help="minimal-degree witness search")
    p.add_argument("polytope")
    p.add_argument("--nu", required=True)
    p.add_argument("--W", type=int, default=2)
    p.set_defaults(func=cmd_min_degree)

    p = sub.add_parser("bound", help="translated-point lower bound with witness chain")
    p.add_argument("polytope")
    p.add_argument("--nu", default="1/2")
    p.add_argument("--W", type=int, default=2)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("spectrum", help="translated spectrum of a diagonal map")
    p.add_argument("polytope")
    p.add_argument("--mu", required=True)
    p.add_argument("--window", default=None, help="rational interval lo:hi")
    p.add_argument("--nu", default=None, help="count values in [nu, nu+1)")
    p.add_argument("--untwisted", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    return parser


VALUE_OPTIONS = ("--member", "--mu", "--lam", "--nu", "--window")


def _attach_negative_values(argv):
    """argparse reads `--nu -1/2` as two options; pass it on as `--nu=-1/2`."""
    out = []
    for tok in argv:
        if out and out[-1] in VALUE_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out
