"""Exact integer and rational linear algebra.

Hermite/Smith normal forms, saturated integer kernels, primitivity and
basis-extension tests, fraction-free determinants and unimodular inverses,
plus the small amount of exact rational elimination (RREF, solving,
nullspaces) the rest of the package is built on.  Everything here is
arbitrary-precision and allocation-light: vectors are tuples of ints,
matrices are row-major tuples of tuples.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: IntMat) -> IntMat:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: IntMat, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def det(m: IntMat) -> int:
    """Determinant by fraction-free Bareiss elimination; exact for int entries."""
    n = len(m)
    if n == 0:
        return 1
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


@dataclass(frozen=True)
class LatticeBasis:
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
    return vec_gcd(v) == 1


def smith_invariants(m: IntMat) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    invariants = []
    top = 0
    while top < min(rows, cols):
        # locate a minimal nonzero entry in the active block
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        # clear row/column of the pivot, re-selecting while remainders appear
        while True:
            dirty = False
            for i in range(top + 1, rows):
                if a[i][top] % a[top][top] != 0:
                    q = a[i][top] // a[top][top]
                    for j in range(top, cols):
                        a[i][j] -= q * a[top][j]
                    a[top], a[i] = a[i], a[top]
                    dirty = True
            for j in range(top + 1, cols):
                if a[top][j] % a[top][top] != 0:
                    q = a[top][j] // a[top][top]
                    for i in range(top, rows):
                        a[i][j] -= q * a[i][top]
                    for i in range(top, rows):
                        a[i][top], a[i][j] = a[i][j], a[i][top]
                    dirty = True
            if not dirty:
                break
        for i in range(top + 1, rows):
            q = a[i][top] // a[top][top]
            for j in range(top, cols):
                a[i][j] -= q * a[top][j]
        for j in range(top + 1, cols):
            q = a[top][j] // a[top][top]
            for i in range(top, rows):
                a[i][j] -= q * a[i][top]
        # pivot must divide the remaining block
        fixed = False
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % a[top][top] != 0:
                    for jj in range(top, cols):
                        a[top][jj] += a[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        invariants.append(abs(a[top][top]))
        top += 1
    return tuple(invariants)


def extends_to_lattice_basis(vectors, ambient_dim: int) -> bool:
    """True iff the vectors extend to a Z-basis of Z^ambient_dim.

    Criterion: the Smith form of the column matrix has all invariant factors
    equal to 1 (which subsumes Q-linear independence).
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return True
    if len(vecs) > ambient_dim:
        return False
    colmat = tuple(tuple(v[i] for v in vecs) for i in range(ambient_dim))
    inv = smith_invariants(colmat)
    return len(inv) == len(vecs) and all(x == 1 for x in inv)


# --- exact rational elimination -------------------------------------------


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


def solve_rational(a_rows, b) -> list[Fraction] | None:
    """One exact solution of A x = b over Q, or None if inconsistent."""
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a_rows, b)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][-1]
    return x


def unimodular_inverse(m: IntMat) -> IntMat:
    """Integer inverse of a square integer matrix with determinant +-1.

    Fraction-free Gauss-Jordan on [M | I]: every division by the previous
    pivot is exact, and the left block ends as D I with D = +-det M, the
    right block as D M^-1.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if a[i][k]), None)
        if pr is None:
            raise ValueError("matrix is not unimodular")
        a[k], a[pr] = a[pr], a[k]
        pivot = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = pivot
    if abs(prev) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(prev * x for x in row[n:]) for row in a)


def nullspace_rational(a_rows, ncols: int) -> list[list[Fraction]]:
    """Basis of {x in Q^ncols : A x = 0}."""
    if not a_rows:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref([list(row) for row in a_rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis
