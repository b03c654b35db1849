"""Buchberger's algorithm over Q in graded reverse lexicographic order.

The membership algebra needs no saturation: its relation ideals are generated
by linear forms, so each is the ideal of a linear subspace and hence prime.
Saturating it by the product of the coordinates changes it only when it
contains a coordinate, and then the saturation is the unit ideal.
"""

from toricspec.polys import Poly, grevlex_key


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under multivariate division by `basis`."""
    if not basis:
        return f
    leads = [g.leading() for g in basis]
    rem_terms = {}
    work = f
    while work.terms:
        e, c = work.leading()
        reduced = False
        for g, (ge, gc) in zip(basis, leads):
            diff = tuple(a - b for a, b in zip(e, ge))
            if all(x >= 0 for x in diff):
                work = work - g.term_mul(diff, c / gc)
                reduced = True
                break
        if not reduced:
            rem_terms[e] = c
            work = Poly(work.nvars, {k: v for k, v in work.terms.items() if k != e})
    return Poly(f.nvars, rem_terms)


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _disjoint(e1, e2):
    return all(a == 0 or b == 0 for a, b in zip(e1, e2))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    l = _lcm(fe, ge)
    return f.term_mul(tuple(a - b for a, b in zip(l, fe)), 1 / fc) - g.term_mul(
        tuple(a - b for a, b in zip(l, ge)), 1 / gc
    )


def interreduce(basis):
    """Reduce each element against the others; drop zeros; monic output."""
    work = [g.monic() for g in basis if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            others = work[:i] + work[i + 1:]
            r = normal_form(work[i], others)
            if r.terms != work[i].terms:
                changed = True
                if r.is_zero():
                    work = others
                else:
                    work = others + [r.monic()]
                break
    return sorted(work, key=lambda g: g.leading()[0])


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by `gens`."""
    basis = interreduce(gens)
    if not basis:
        return []
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    processed = set()
    while pairs:
        # normal strategy: smallest lcm first
        i, j = min(
            pairs,
            key=lambda ij: grevlex_key(_lcm(basis[ij[0]].leading()[0], basis[ij[1]].leading()[0])),
        )
        pairs.remove((i, j))
        processed.add((i, j))
        fi, fj = basis[i], basis[j]
        ei, ej = fi.leading()[0], fj.leading()[0]
        if _disjoint(ei, ej):
            continue
        l = _lcm(ei, ej)
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            ek = basis[k].leading()[0]
            if all(a >= b for a, b in zip(l, ek)):
                p1 = (max(i, k), min(i, k))
                p2 = (max(j, k), min(j, k))
                if p1 in processed and p2 in processed:
                    skip = True
                    break
        if skip:
            continue
        h = normal_form(s_polynomial(fi, fj), basis)
        if h.is_zero():
            continue
        basis.append(h.monic())
        new = len(basis) - 1
        pairs.update((new, t) for t in range(new))
    return interreduce(basis)


def ideal_member(f: Poly, groebner_basis) -> bool:
    return normal_form(f, groebner_basis).is_zero()
