"""Buchberger's algorithm over Q in graded reverse lexicographic order.

Coefficients stay exact (`int | Fraction`).  The bases are monic, so a
division step scales a basis element by a dividend coefficient and divides by
nothing.

The membership algebra needs no saturation: its relation ideals are generated
by linear forms, so each is the ideal of a linear subspace and hence prime.
Saturating it by the product of the coordinates changes it only when it
contains a coordinate, and then the saturation is the unit ideal.
"""

import heapq
from operator import add, ge, sub

from toricspec.polys import Poly, exact_div, grevlex_key


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under multivariate division by `basis`: the largest
    remaining term is divided by the first basis element whose leading
    monomial divides it, or else moved to the remainder.  The remaining terms
    sit in a dict with a heap of their exponents, so a division step costs the
    size of the divisor, not of the dividend."""
    if any(g.nvars != f.nvars for g in basis):
        raise ValueError("basis and polynomial have different variable counts")
    if not basis:
        return f
    divisors = [(g.leading(), g.terms) for g in basis]
    work = dict(f.terms)
    heap = [(_heap_key(e), e) for e in work]
    heapq.heapify(heap)
    rem_terms = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue  # a stale heap entry: the term cancelled earlier
        for (lead, gc), terms in divisors:
            if all(map(ge, e, lead)):
                diff = tuple(map(sub, e, lead))
                factor = c if gc == 1 else exact_div(c, gc)
                for te, tc in terms.items():
                    if te == lead:
                        continue  # the leading term cancels exactly
                    t = tuple(map(add, te, diff))
                    d = factor * tc
                    old = work.get(t)
                    if old is None:
                        work[t] = -d
                        heapq.heappush(heap, (_heap_key(t), t))
                    elif old != d:
                        work[t] = old - d
                    else:
                        del work[t]
                break
        else:
            rem_terms[e] = c
    return Poly(f.nvars, rem_terms)


def _heap_key(exps):
    """Ascending order of this key is descending grevlex order."""
    return (-sum(exps), exps[::-1])


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _disjoint(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    l = _lcm(fe, ge)
    return f.term_mul(tuple(a - b for a, b in zip(l, fe)), exact_div(1, fc)) - g.term_mul(
        tuple(a - b for a, b in zip(l, ge)), exact_div(1, gc)
    )


def interreduce(basis):
    """Reduce each element against the others; drop zeros; monic output.

    Each pass replaces every element by its normal form modulo the rest in
    place; passes repeat until one changes nothing."""
    work = [g.monic() for g in basis if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(work):
            r = normal_form(work[i], work[:i] + work[i + 1:])
            if r.terms != work[i].terms:
                changed = True
                if r.is_zero():
                    del work[i]
                    continue
                work[i] = r.monic()
            i += 1
    return sorted(work, key=lambda g: g.leading()[0])


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by `gens`."""
    basis = interreduce(gens)
    if not basis:
        return []
    leads = [g.leading()[0] for g in basis]
    pair_key = {}  # pair -> grevlex key of the lcm of its leading exponents

    def add_pairs(new):
        for t in range(new):
            pair_key[new, t] = grevlex_key(_lcm(leads[new], leads[t]))

    for i in range(len(basis)):
        add_pairs(i)
    pairs = set(pair_key)
    processed = set()
    while pairs:
        # normal strategy: smallest lcm first
        i, j = min(pairs, key=pair_key.__getitem__)
        pairs.remove((i, j))
        processed.add((i, j))
        ei, ej = leads[i], leads[j]
        if _disjoint(ei, ej):
            continue
        l = _lcm(ei, ej)
        # chain criterion
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
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if h.is_zero():
            continue
        basis.append(h.monic())
        leads.append(basis[-1].leading()[0])
        new = len(basis) - 1
        add_pairs(new)
        pairs.update((new, t) for t in range(new))
    return interreduce(basis)


def ideal_member(f: Poly, groebner_basis) -> bool:
    return normal_form(f, groebner_basis).is_zero()
