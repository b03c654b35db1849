"""Exact integer linear algebra.

The column Hermite normal form is the one elimination: saturated integer
kernels, canonical lattice bases and integer ranks are read from it, and a
unimodular matrix's inverse is its transform U, since the form of such a
matrix is the identity.  Besides it: primitivity, determinants (closed forms
through 3 x 3, fraction-free Bareiss elimination above), matrix-vector
products and rationals over their common denominator.  Everything here is
arbitrary-precision and allocation-light: vectors are tuples of ints,
matrices are row-major tuples of tuples.
"""

from math import gcd, lcm

from toricspec.memo import Value

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a: IntMat, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def common_denominator(values) -> tuple[int, list[int]]:
    """(D, numerators) with values[i] = numerators[i] / D, D the lcm of the
    denominators of the ints and Fractions in `values`."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def det(m: IntMat) -> int:
    """Determinant of a square int matrix: the cofactor expansion through
    3 x 3, fraction-free Bareiss elimination above; exact either way."""
    n = len(m)
    if n <= 3:
        if n == 0:
            return 1
        if n == 1:
            return m[0][0]
        if n == 2:
            (a, b), (c, d) = m
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_normal_form(m: IntMat) -> tuple[IntMat, IntMat]:
    """Column-style Hermite form: returns (H, U) with H = M*U, |det U| = 1.

    Convention: zero columns rightmost, pivot rows strictly increasing, pivots
    positive, entries in a pivot row left of the pivot reduced into [0, pivot).
    All downstream lattice canonicalization relies on this exact convention.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(row) for row in m]
    u = [list(row) for row in identity_matrix(cols)]

    def col_swap(i, j):
        for mat in (h, u):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def col_addmul(dst, src, q):
        # col_dst -= q * col_src
        for mat in (h, u):
            for row in mat:
                row[dst] -= q * row[src]

    def col_negate(i):
        for mat in (h, u):
            for row in mat:
                row[i] = -row[i]

    c = 0
    for r in range(rows):
        if c >= cols:
            break
        nonzero = [j for j in range(c, cols) if h[r][j] != 0]
        if not nonzero:
            continue
        # gcd-collapse row r into column c
        while True:
            nonzero = [j for j in range(c, cols) if h[r][j] != 0]
            jmin = min(nonzero, key=lambda j: abs(h[r][j]))
            if jmin != c:
                col_swap(c, jmin)
            if h[r][c] < 0:
                col_negate(c)
            done = True
            for j in range(c + 1, cols):
                if h[r][j] != 0:
                    q = h[r][j] // h[r][c]
                    col_addmul(j, c, q)
                    if h[r][j] != 0:
                        done = False
            if done:
                break
        for j in range(c):
            q = h[r][j] // h[r][c]
            if q:
                col_addmul(j, c, q)
        c += 1
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


class LatticeBasis(Value):
    """Basis of a saturated sublattice of Z^ambient_dim (vectors independent over Q)."""

    ambient_dim: int
    vectors: tuple[IntVec, ...]

    def __len__(self):
        return len(self.vectors)

    def matrix(self) -> IntMat:
        """ambient_dim x len(self) matrix whose columns are the basis vectors."""
        return tuple(tuple(v[i] for v in self.vectors) for i in range(self.ambient_dim))


def canonical_lattice_basis(vectors, ambient_dim: int) -> LatticeBasis:
    """Canonicalize a generating set via column HNF of the column matrix."""
    vecs = [tuple(v) for v in vectors if any(v)]
    if not vecs:
        return LatticeBasis(ambient_dim, ())
    colmat = tuple(tuple(v[i] for v in vecs) for i in range(ambient_dim))
    h, _ = hermite_normal_form(colmat)
    out = []
    for j in range(len(vecs)):
        col = tuple(h[i][j] for i in range(ambient_dim))
        if any(col):
            out.append(col)
    return LatticeBasis(ambient_dim, tuple(out))


def integer_kernel(m: IntMat) -> LatticeBasis:
    """Saturated basis of {x in Z^cols : M x = 0}.

    Columns of the HNF transform U over the zero columns of H form a basis of
    a direct summand, hence saturated; the result is HNF-canonicalized so the
    ordering is reproducible.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return canonical_lattice_basis(identity_matrix(cols), cols)
    h, u = hermite_normal_form(m)
    kernel = []
    for j in range(cols):
        if all(h[i][j] == 0 for i in range(rows)):
            kernel.append(tuple(u[i][j] for i in range(cols)))
    return canonical_lattice_basis(kernel, cols)


def is_primitive(v) -> bool:
    """gcd of the entries equals 1; undefined (raises) on the zero vector."""
    if not any(v):
        raise ValueError("primitivity is undefined for the zero vector")
    return gcd(*v) == 1
