"""Buchberger's algorithm over Q in graded reverse lexicographic order, run in
integers.

Polynomials come in and go out as `Poly` with exact coefficients; inside, a
polynomial is a dict of integer coefficients keyed by exponent.  Division is
fraction-free: the dividend's denominators are cleared first, and a divisor
with leading coefficient p removes a term c by scaling the work and the
remainder by p/g and subtracting (c/g) times a multiple of the divisor,
g = gcd(c, p); the common content is then divided out.  The accumulated
scale is divided out once at the end, which gives the exact remainder.

Buchberger's algorithm keeps its basis primitive (integer, content 1,
positive lead), builds S-polynomials by cross-multiplying the leads, and
takes its pairs from the Gebauer-Moeller update (criteria B, M, F and the
product criterion; Gebauer and Moeller, JSC 1988; Becker and Weispfenning,
*Groebner Bases*, 1993, section 5.5), in a heap ordered by the lcm of the
leading monomials (the normal strategy).  Generators and S-pair remainders
enter the basis by one path, reduced by the basis so far and passed to the
update: the generators first, in ascending grevlex order of lead, with only
the lead reduced, and S-polynomials in full.  So no basis lead ever divides
another, which the final interreduction (`_reduced_basis`) relies on.

The membership algebra brings its ideals here already restricted to a linear
subspace V, in the coordinates of V: restriction maps the polynomial ring onto
the coordinate ring of V with the relation ideal of V as kernel, so no
relation ideal enters, and none needs saturating.

Many of those ideals are powers m^D of the maximal ideal: homogeneous
generators of least degree D whose degree-D parts span all C(D+k-1, k-1)
monomials of degree D in k variables.  `maximal_ideal_power` is the one test
for that, by the rank over GF(p) (`polys.rank_mod_p`) of the degree-D block,
which it takes as an iterable and pulls from only until the rank is full;
it returns D.  A monomial ideal contains a polynomial
exactly when it contains each of its terms, so membership in m^D is a degree
comparison, which the membership algebra makes itself (`laurent._verdict`)
and hands no m^D module to `buchberger`.
A prime can only ever prove this: a minor of the integer coefficient matrix
that is nonzero mod p is nonzero, so a rank mod p is at most the rank over Q,
and a full one is full over Q, while the generators of degree above D lie in
m^D anyway.  Any other module, and an unlucky prime that drops the rank,
goes to `buchberger`, which does not repeat the test.

The membership algebra keeps a basis as `groebner_divisors` returns it, the
reduced basis as primitive integer divisors, and reduces its integer queries
by them with `_reduce`; `buchberger` is the same basis made monic.
"""

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, ge, sub

from toricspec.lattice import common_denominator
from toricspec.polys import Poly, exact_div, grevlex_key, monomials_of_degree, rank_mod_p


# --- integer polynomials ---------------------------------------------------------
#
# A divisor is the tuple (lead, degree, p, terms): its leading exponent, the
# total degree of that exponent, its leading coefficient p and its terms, an
# integer dict holding the lead under the very tuple object `lead`.


def _integral(terms):
    """(`terms` times den, den) for the least common denominator den of the
    coefficients; the dict is a new one."""
    if all(type(c) is int for c in terms.values()):
        return dict(terms), 1
    den, numerators = common_denominator(terms.values())
    return dict(zip(terms, numerators)), den


def _divisor(terms):
    """The divisor tuple of a nonzero integer dict divided by its content and
    made to have a positive lead."""
    lead = max(terms, key=grevlex_key)
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {e: c // content for e, c in terms.items()}
    return lead, sum(lead), terms[lead], terms


def _primitive_divisors(polys):
    return [_divisor(_integral(g.terms)[0]) for g in polys if g.terms]


def _heap_key(exps):
    """Ascending order of this key is descending grevlex order."""
    return (-sum(exps), exps[::-1])


def _divide(work: dict, divisors, full=True):
    """Divide the integer dict `work` (consumed) by `divisors`, in order: the
    largest remaining term is divided by the first divisor whose leading
    monomial divides it, or else moved to the remainder; without `full`, the
    first term moved ends the division and the rest of `work` goes with it.
    Returns (remainder, scale): an integer dict and the rational number by
    which it is the remainder of the given `work`.  After each step that
    scales, the common content of work and remainder is divided out."""
    heap = [(_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    scale = 1
    rem = {}
    while heap:
        key, e = heapq.heappop(heap)
        c = work.pop(e, None)
        if c is None:
            continue  # a stale heap entry: the term cancelled earlier
        degree = -key[0]
        for lead, ld, p, terms in divisors:
            # divisibility implies lower degree and lower lex order, both cheap
            if ld <= degree and lead <= e and all(map(ge, e, lead)):
                g = gcd(c, p)
                a, b = p // g, c // g
                if a != 1:
                    scale *= a
                    for t in work:
                        work[t] *= a
                    for t in rem:
                        rem[t] *= a
                diff = tuple(map(sub, e, lead))
                for te, tc in terms.items():
                    if te is lead:
                        continue  # the leading term cancels exactly
                    t = tuple(map(add, te, diff))
                    d = b * tc
                    old = work.get(t)
                    if old is None:
                        work[t] = -d
                        heapq.heappush(heap, (_heap_key(t), t))
                    elif old != d:
                        work[t] = old - d
                    else:
                        del work[t]
                if a != 1:
                    content = gcd(*work.values(), *rem.values())
                    if content > 1:
                        scale = Fraction(scale, content)
                        for t in work:
                            work[t] //= content
                        for t in rem:
                            rem[t] //= content
                break
        else:
            rem[e] = c
            if not full:
                rem.update(work)
                break
    return rem, scale


def _reduce(terms: dict, divisors, full=True) -> dict:
    """An integer multiple of the remainder of `terms` under `divisors`; of its
    leading term alone, without `full`."""
    return _divide(dict(terms), divisors, full)[0]


def _monic(d) -> Poly:
    lead, _, p, terms = d
    return Poly(len(lead), {e: exact_div(c, p) for e, c in terms.items()})


# --- division --------------------------------------------------------------------


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under multivariate division by the polynomials `basis`:
    the largest remaining term is divided by the first nonzero basis element
    whose leading monomial divides it, or else moved to the remainder."""
    if any(g.nvars != f.nvars for g in basis):
        raise ValueError("basis and polynomial have different variable counts")
    divisors = _primitive_divisors(basis)
    if not divisors or not f.terms:
        return f
    work, den = _integral(f.terms)
    rem, scale = _divide(work, divisors)
    return Poly(f.nvars, {e: exact_div(c, scale * den) for e, c in rem.items()})


def _lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _divides(e1, e2):
    return all(map(ge, e2, e1))


def _disjoint(e1, e2):
    return not any(map(min, e1, e2))


# --- Buchberger ----------------------------------------------------------------------


def _reduced_basis(divisors):
    """Primitive divisors, sorted by leading exponent, from divisors with
    pairwise non-dividing leads: each element's tail is reduced once by the
    others, which leaves its lead in place."""
    out = [_divisor(_reduce(d[3], divisors[:n] + divisors[n + 1:])) for n, d in enumerate(divisors)]
    return sorted(out, key=lambda d: d[0])


def _s_poly(d1, d2, l):
    """p2/g * u^(l - lead1) * f1 - p1/g * u^(l - lead2) * f2, g = gcd(p1, p2):
    the integer S-polynomial, without the cancelled term u^l."""
    (lead1, _, p1, t1), (lead2, _, p2, t2) = d1, d2
    g = gcd(p1, p2)
    a, b = p2 // g, p1 // g
    out = {}
    for lead, terms, f in ((lead1, t1, a), (lead2, t2, -b)):
        diff = tuple(map(sub, l, lead))
        for e, c in terms.items():
            if e is lead:
                continue
            t = tuple(map(add, e, diff))
            s = out.get(t, 0) + f * c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
    return out


def maximal_ideal_power(block):
    """D when `block`, an iterable of nonzero homogeneous polynomials of one
    degree D in k >= 1 variables, has full rank mod p, which proves that it
    spans the C(D+k-1, k-1) monomials of degree D and so generates m^D; else
    None.  The polynomials are pulled one at a time as the rank needs rows,
    and none is pulled past full rank; a term of another degree than the
    first polynomial's ends the scan short of full rank, with None."""
    block = iter(block)
    first = next(block, None)
    if first is None or not first.terms or not first.nvars:
        return None
    degree = first.total_degree()
    monomials = list(monomials_of_degree(first.nvars, degree))
    column = {e: j for j, e in enumerate(monomials)}

    def rows():
        for g in chain((first,), block):
            row = [0] * len(monomials)
            for e, c in _integral(g.terms)[0].items():
                if sum(e) != degree:
                    return
                row[column[e]] = c
            yield row

    return degree if rank_mod_p(rows(), len(monomials)) == len(monomials) else None


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by `gens`: monic, sorted
    by leading exponent."""
    return [_monic(d) for d in groebner_divisors(gens)]


def groebner_divisors(gens):
    """The reduced Groebner basis of the ideal generated by `gens` as a tuple
    of primitive divisors, sorted by leading exponent."""
    polys = []  # every primitive divisor made, indexed by pair entries
    basis = []  # indices into polys of the current basis, in insertion order
    heap = []   # (grevlex key of lcm, i, j, lcm) for each pending pair

    def update(h):
        """Gebauer-Moeller: add polys[h] to the basis, the pairs it needs to
        the heap, and drop the pairs and basis elements it makes redundant."""
        nonlocal basis, heap
        lh = polys[h][0]
        new = [(g, _lcm(lh, polys[g][0])) for g in basis]
        kept = []
        for n, (g, l) in enumerate(new):
            # criteria M and F: another new pair whose lcm divides this one's,
            # not yet dropped, makes it redundant (of equal lcms the last stays)
            if _disjoint(lh, polys[g][0]) or not (
                any(_divides(l2, l) for _, l2 in new[n + 1:]) or any(_divides(l2, l) for _, l2 in kept)
            ):
                kept.append((g, l))
        # criterion B: drop a pending pair (i, j) when lead(h) divides its lcm
        # and that lcm differs from lcm(i, h) and from lcm(j, h)
        pending = [
            entry for entry in heap
            if not (_divides(lh, entry[3]) and _lcm(polys[entry[1]][0], lh) != entry[3]
                    and _lcm(polys[entry[2]][0], lh) != entry[3])
        ]
        # the product criterion: coprime leads give a zero S-polynomial
        pending += [(grevlex_key(l), g, h, l) for g, l in kept if not _disjoint(lh, polys[g][0])]
        heapq.heapify(pending)
        heap = pending
        basis = [g for g in basis if not _divides(lh, polys[g][0])] + [h]

    def insert(terms, full):
        """Reduce `terms` by the basis (its lead alone without `full`) and
        add a nonzero remainder, whose lead no basis lead divides."""
        r = _reduce(terms, [polys[g] for g in basis], full)
        if r:
            polys.append(_divisor(r))
            update(len(polys) - 1)

    for d in sorted(_primitive_divisors(gens), key=lambda d: grevlex_key(d[0])):
        insert(d[3], False)
    while heap:
        _, i, j, l = heapq.heappop(heap)
        insert(_s_poly(polys[i], polys[j], l), True)
    return tuple(_reduced_basis([polys[g] for g in basis]))
