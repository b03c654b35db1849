"""Closed-form spectral data of the twisted-shift quadratic forms.

The cyclic shift with a sign twist on 2N blocks has an associated Hermitian
form C = i(Id - A)(Id + A)^{-1}; composing with a diagonal torus rotation
subtracts tan(pi*lam_j / 2N) on the j-th coordinate block.  Eigenvalues come
in closed form tan(pi(2k+1)/4N) - tan(pi*lam_j/2N), so the negative index and
the degenerate locus (half-integer coordinates) are exact rational data.
They depend on N alone, the total factor count, not on how the 2N blocks
split into isotopy and torus factors.  Each (j, k) sign is one integer
comparison on the numerator and denominator of lam_j (`eigen_sign`), so the
exact spectrum keeps only the coordinates and the negative index and lists
its 2nN signs without building a descriptor for each.  Floating point appears
only in the cross-validation helpers, which import numpy on first use (the
optional `numeric` extra).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from toricspec.lattice import IntMat, common_denominator
from toricspec.memo import Value

# The exact spectrum lists 2nN eigenvalue signs, one report line each: N = 10^5
# on the square (n = 4) lists 800,000 in 0.7 s and peaks at 116 MB RSS (one
# run on a shared 2-core machine), most of it the report lines.
EIGEN_LIMIT = 1_000_000
# The numeric cross-check builds dense complex matrices of dimension 2nN, 16 MB
# each at 1,000: one eigvalsh there takes 0.3-2 s on a shared 2-core machine,
# at 2,000 it takes 1.8-11 s, and the report runs one.
NUMERIC_LIMIT = 1_000


class EigenDescriptor(Value):
    """Symbolic eigenvalue tan(pi(2k+1)/4N) - tan(pi*lam/2N) of complex multiplicity 1
    (real multiplicity 2) on the j-th coordinate block."""

    j: int
    k: int
    N: int
    lam: Fraction

    multiplicity = 2

    def numeric(self) -> float:
        return math.tan(math.pi * (2 * self.k + 1) / (4 * self.N)) - math.tan(
            math.pi * self.lam / (2 * self.N)
        )

    def sign(self) -> int:
        """The sign of `numeric()` in exact arithmetic, `eigen_sign(lam, k)`."""
        return eigen_sign(self.lam, self.k)


def eigen_sign(lam, k: int) -> int:
    """The sign of the eigenvalue tan(pi(2k+1)/4N) - tan(pi*lam/2N).  Both
    angles lie in (-pi/2, pi/2), where tan increases, so it is the sign of
    (k + 1/2) - lam, taken in integers as sign((2k+1)b - 2a) for lam = a/b:
    -1 iff k < lam - 1/2, 0 iff lam = k + 1/2 (the front)."""
    diff = (2 * k + 1) * lam.denominator - 2 * lam.numerator
    return (diff > 0) - (diff < 0)


class GenFormSpectrum(Value):
    N: int                             # total factor count: the form lives on 2N blocks
    lam: tuple[Fraction, ...]          # in the kernel-lattice basis
    coords: tuple[Fraction, ...]       # image in Q^n
    negative_index: int                # real dimension of the eigenvalues of sign -1 or 0 (the front)

    @property
    def eigenvalues(self) -> tuple[EigenDescriptor, ...]:
        """The 2nN descriptors, coordinate-major, built on each access."""
        N = self.N
        return tuple(EigenDescriptor(j, k, N, c) for j, c in enumerate(self.coords, 1) for k in range(-N, N))

    def signs(self):
        """(j, k, eigen_sign(lam_j, k)) in the order of `eigenvalues`, without
        building a descriptor."""
        N = self.N
        for j, c in enumerate(self.coords, 1):
            for k in range(-N, N):
                yield j, k, eigen_sign(c, k)


def shift_matrix(N: int) -> IntMat:
    """2N x 2N twisted cyclic shift: 1 on the superdiagonal, -1 bottom-left."""
    if N < 1:
        raise ValueError("N >= 1 required")
    size = 2 * N
    rows = []
    for i in range(size):
        row = [0] * size
        if i + 1 < size:
            row[i + 1] = 1
        rows.append(row)
    rows[size - 1][0] = -1
    return tuple(tuple(r) for r in rows)


def quad_form_matrix(N: int) -> np.ndarray:
    """C = i(Id - A)(Id + A)^{-1}, Hermitian; on `eigen_vector(N, j, k)` it has
    the eigenvalue +tan(pi(2k+1)/4N), k = -N..N-1 (a set closed under sign)."""
    import numpy as np

    a = np.array(shift_matrix(N), dtype=complex)
    ident = np.eye(2 * N, dtype=complex)
    return 1j * (ident - a) @ np.linalg.inv(ident + a)


def eigen_vector(N: int, j: int, k: int, n: int | None = None) -> np.ndarray:
    """Block eigenvector (e_j, e^{i*t} e_j, ..., e^{i(2N-1)t} e_j), t = (2k+1)pi/2N.

    Satisfies i(A - Id)X = -tan((2k+1)pi/4N)(A + Id)X for the block shift on
    (C^n)^{2N}.  Returned flat, block-major, length 2nN.
    """
    if not (-N <= k <= N - 1):
        raise ValueError("k out of range [-N, N-1]")
    if n is None:
        n = j
    if not (1 <= j <= n):
        raise ValueError("coordinate index out of range")
    import numpy as np

    theta = (2 * k + 1) * math.pi / (2 * N)
    out = np.zeros(2 * n * N, dtype=complex)
    for block in range(2 * N):
        out[block * n + (j - 1)] = np.exp(1j * theta * block)
    return out


def _check_size(N: int, iota: IntMat, size: str, limit: int):
    """2nN, the `size` about to be built, must not pass `limit`."""
    if 2 * len(iota) * N > limit:
        raise ValueError(f"{size} 2nN = {2 * len(iota) * N} is above the limit {limit}")


def _checked_coords(N: int, lam, iota: IntMat) -> tuple[Fraction, ...]:
    """The coordinates iota(lam) in Q^n of a kernel-basis vector lam, for
    N >= 1 and lam of the kernel rank, each required inside (-N, N).  Each
    is one integer dot product over lam's common denominator."""
    if N < 1:
        raise ValueError("N >= 1 required")
    if len(lam) != len(iota[0]):
        raise ValueError("lambda length must match the kernel rank")
    den, nums = common_denominator(tuple(map(Fraction, lam)))
    coords = tuple(Fraction(sum(map(mul, row, nums)), den) for row in iota)
    for c in coords:
        if not (-N < c < N):
            raise ValueError(f"coordinate {c} outside (-{N}, {N})")
    return coords


def floor_half_shift(x: Fraction) -> int:
    """floor(x + 1/2) of a rational x = a/b, in integers: (2a + b) // 2b."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def spectrum(N: int, lam, iota: IntMat) -> GenFormSpectrum:
    """Exact spectrum and negative index of the torus-generated quadratic form
    on 2N blocks at lam (given in the kernel basis); at most EIGEN_LIMIT
    eigenvalues 2nN.  The descriptors and their signs are read from the
    coordinates on demand."""
    _check_size(N, iota, "eigenvalue count", EIGEN_LIMIT)
    coords = _checked_coords(N, lam, iota)
    return GenFormSpectrum(
        N=N,
        lam=tuple(Fraction(x) for x in lam),
        coords=coords,
        negative_index=sum(2 * (N + floor_half_shift(c)) for c in coords),
    )


def front_coordinates(coords) -> set[int]:
    """Indices j (1-based) whose coordinate is a half-integer: these produce a
    zero eigenvalue, i.e. lie on the degenerate front."""
    out = set()
    for j, c in enumerate(coords, start=1):
        c = Fraction(c)
        if (c - Fraction(1, 2)).denominator == 1:
            out.add(j)
    return out


def front_membership(N: int, lam, iota: IntMat) -> set[int]:
    """The front coordinates of iota(lam), which must lie inside (-N, N)."""
    return front_coordinates(_checked_coords(N, lam, iota))


def t_lambda_value(lam_coords, N2: int, x) -> float:
    """Torus-factor generating term on 2*N2 blocks: sum of tan(pi*lam_k/2N2)|x_k|^2.

    `x` is a flat complex vector whose length is a multiple of n = len(lam_coords).
    """
    n = len(lam_coords)
    if n == 0 or len(x) % n:
        raise ValueError("x must split into blocks of length n")
    for c in lam_coords:
        if not (-N2 < Fraction(c) < N2):
            raise ValueError("coordinate at or beyond the tangent pole")
    tans = [math.tan(math.pi * Fraction(c) / (2 * N2)) for c in lam_coords]
    total = 0.0
    for i, z in enumerate(x):
        total += tans[i % n] * abs(complex(z)) ** 2
    return total


# --- numeric cross-validation ----------------------------------------------


def assemble_numeric_form(N: int, lam, iota: IntMat) -> np.ndarray:
    """2nN x 2nN Hermitian matrix of the full quadratic form, block-major
    layout; 2nN at most NUMERIC_LIMIT."""
    import numpy as np

    _check_size(N, iota, "numeric matrix dimension", NUMERIC_LIMIT)
    coords = _checked_coords(N, lam, iota)
    n = len(coords)
    c_small = quad_form_matrix(N)
    c_full = np.kron(c_small, np.eye(n))
    d_full = np.kron(np.eye(2 * N), np.diag([math.tan(math.pi * c / (2 * N)) for c in coords]))
    return c_full - d_full


def numeric_negative_index(eigenvalues: np.ndarray, tol: float = 1e-9) -> int:
    """Real dimension (twice the complex count) of the negative eigenspace,
    from the eigenvalues (`numpy.linalg.eigvalsh`) of the numeric form."""
    return 2 * int((eigenvalues < -tol).sum())


def numeric_zero_index(eigenvalues: np.ndarray, tol: float = 1e-9) -> int:
    """Real dimension of the numeric form's kernel, the eigenvalues within
    `tol` of zero: the front, which the exact negative index counts too."""
    return 2 * int((abs(eigenvalues) <= tol).sum())
