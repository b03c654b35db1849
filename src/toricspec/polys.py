"""Multivariate Laurent polynomials over Q with tuple exponents.

One type serves the module elements (signed exponents in u_1..u_n), the
restriction machinery (numerators in the subspace coordinates) and the
Groebner engine (nonnegative exponents, graded reverse lexicographic order).

Coefficients are exact and canonical: an `int` when integral, a `Fraction`
otherwise.  The coordinate forms have integer coefficients, so most of the
membership algebra runs in integers; coefficients are divided only through
`exact_div`, since `int / int` would give a float.  Products of powers of
integer linear forms, which make up the restrictions of monomials, are one
big-integer product each (`linear_form_product`).  Rows of integer matrices
are packed into ints the same way for their rank over a prime field
(`rank_mod_p`), which can only ever prove a rank over Q full.
"""

import struct
from fractions import Fraction
from operator import add, mul


def exact_coefficient(c):
    """c as a canonical coefficient: an int when integral, else a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"polynomial coefficient must be an int or a Fraction, not {type(c).__name__}")


def exact_div(a, b):
    """The exact quotient a / b of two coefficients: an int when integral."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return exact_coefficient(Fraction(a, b))


def grevlex_key(exps):
    """Sort key realizing graded reverse lexicographic order (max = leading)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomials_of_degree(nvars, degree):
    """Exponent vectors of total degree `degree`, in descending lex order."""
    if degree < 0:
        return
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


class Poly:
    """Polynomial in `nvars` variables with exact coefficients (`int` when
    integral, else `Fraction`); exponents may be negative."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    c = exact_coefficient(c)
                if c:
                    self.terms[tuple(exps)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def linear_form(cls, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_nvars(self, other):
        if other.nvars != self.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} and {other.nvars}")

    def __add__(self, other):
        self._check_nvars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_nvars(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def term_mul(self, exps, coeff=1):
        if len(exps) != self.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} and {len(exps)}")
        return Poly(
            self.nvars,
            {tuple(map(add, e, exps)): c * coeff for e, c in self.terms.items()},
        )

    def min_exponents(self):
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_components(self):
        comps = {}
        for e, c in self.terms.items():
            comps.setdefault(sum(e), {})[e] = c
        return {d: Poly(self.nvars, t) for d, t in sorted(comps.items())}

    def leading(self):
        """(exponents, coefficient) of the grevlex-largest term."""
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def exact_divide(self, divisor):
        """Quotient if divisor divides exactly, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError
        rem = self
        q = {}
        de, dc = divisor.leading()
        while rem.terms:
            e, c = rem.leading()
            diff = tuple(a - b for a, b in zip(e, de))
            if any(x < 0 for x in diff):
                return None
            q[diff] = f = exact_div(c, dc)
            rem = rem - divisor.term_mul(diff, f)
        return Poly(self.nvars, q)

    def render(self, names=None):
        """Canonical display with named variables (default u1..un),
        graded-lex term order."""
        if not self.terms:
            return "0"
        names = names or [f"u{i+1}" for i in range(self.nvars)]
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{names[i]}^{p}" if p != 1 else names[i] for i, p in enumerate(e) if p
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = render


def linear_form_product(rows, exps) -> Poly:
    """prod_i (rows[i] . w) ** exps[i] for integer rows of a common length
    k >= 1 and nonnegative exponents, by Kronecker substitution.

    The product is homogeneous of degree D = sum(exps), so w_k = 1 loses
    nothing, and w_j -> X^((D+1)^(j-1)) keeps the remaining exponent vectors
    apart.  With X = 2^B, B whole bytes above the coefficient bound
    prod (sum |c|)^e plus a sign bit, the forms become Python ints, one
    big-integer product multiplies them, and the coefficients are read back
    from the bytes as balanced digits: a half slot is added to every slot
    before `to_bytes` and subtracted from each digit after."""
    k = len(rows[0])
    factors = [(row, e) for row, e in zip(rows, exps) if e]
    degree = sum(e for _, e in factors)
    if k == 1:
        c = 1
        for (a,), e in factors:
            c *= a ** e
        return Poly(1, {(degree,): c})
    bound = 1
    for row, e in factors:
        bound *= sum(map(abs, row)) ** e
    width = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    base = degree + 1
    shifts = [8 * width * base ** j for j in range(k - 1)]
    packed = 1
    for row, e in factors:
        packed *= (row[-1] + sum(c << s for c, s in zip(row, shifts))) ** e
    slots = base ** (k - 1)
    zero = b"\0" * (width - 1) + b"\x80"
    half = 1 << (8 * width - 1)
    digits = (packed + int.from_bytes(zero * slots, "little")).to_bytes(width * slots, "little")
    offsets = [width * base ** j for j in range(1, k - 1)]
    terms = {}
    # the exponents of w_2..w_{k-1} pick a run of slots, one per exponent of w_1
    for *rest, slack in monomials_of_degree(k - 1, degree):
        at = sum(map(mul, rest, offsets))
        rest = tuple(rest)
        for a in range(slack + 1):
            digit = digits[at:at + width]
            if digit != zero:
                terms[(a, *rest, slack - a)] = int.from_bytes(digit, "little") - half
            at += width
    return Poly(k, terms)


RANK_PRIME = 1_048_573  # the largest prime below 2^20


def rank_mod_p(rows, ncols: int) -> int:
    """Rank over GF(RANK_PRIME) of integer rows of length `ncols`, below 2^24;
    the scan stops once the rank is `ncols`.

    A minor that is nonzero mod p is nonzero, so the rank mod p is at most
    the rank over Q: a full rank here proves the rank over Q full, and a
    lower one proves nothing.  Each row is one Python int with a 64-bit slot
    per column.  Pivot rows are kept reduced into [0, p) with pivot 1, and a
    row r is cleared at a pivot's column by r += (p - v) * pivot, where v is
    r's slot there mod p.  As p < 2^20, a step adds less than 2^40 to a slot,
    and a row takes fewer steps than there are columns, so below 2^24 columns
    no slot carries into the next, and a row is reduced mod p once, after its
    last step."""
    if ncols >= 1 << 24:
        raise ValueError(f"rank_mod_p takes fewer than 2^24 columns, not {ncols}")
    p, mask = RANK_PRIME, (1 << 64) - 1
    slots = struct.Struct(f"<{ncols}Q")
    pivots = []  # (bit offset of the pivot's slot, pivot row)
    for row in rows:
        r = int.from_bytes(slots.pack(*(c % p for c in row)), "little")
        for shift, pivot in pivots:
            v = (r >> shift & mask) % p
            if v:
                r += (p - v) * pivot
        reduced = [v % p for v in slots.unpack(r.to_bytes(slots.size, "little"))]
        col = next((j for j, v in enumerate(reduced) if v), None)
        if col is None:
            continue
        inv = pow(reduced[col], -1, p)
        pivots.append((64 * col, int.from_bytes(slots.pack(*(v * inv % p for v in reduced)), "little")))
        if len(pivots) == ncols:
            break
    return len(pivots)
