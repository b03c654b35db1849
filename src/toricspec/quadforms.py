"""Closed-form spectral data of the twisted-shift quadratic forms.

The cyclic shift with a sign twist on 2N blocks has an associated Hermitian
form C = i(Id - A)(Id + A)^{-1}; composing with a diagonal torus rotation
subtracts tan(pi*lam_j / 2N) on the j-th coordinate block.  Eigenvalues come
in closed form tan(pi(2k+1)/4N) - tan(pi*lam_j/2N), so the negative index and
the degenerate locus (half-integer coordinates) are exact rational data.
Floating point appears only in the cross-validation helpers, which import
numpy on first use (the optional `numeric` extra).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from toricspec.lattice import IntMat


@dataclass(frozen=True)
class DecompositionParams:
    """2*N1 isotopy factors plus 2*N2 torus factors, N = N1 + N2."""

    N1: int
    N2: int

    def __post_init__(self):
        if self.N1 < 0 or self.N2 < 1:
            raise ValueError("need N1 >= 0 and N2 >= 1")

    @property
    def N(self) -> int:
        return self.N1 + self.N2


@dataclass(frozen=True)
class EigenDescriptor:
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
        """Exact sign: negative iff k < lam - 1/2, zero iff lam = k + 1/2."""
        diff = Fraction(self.lam) - Fraction(2 * self.k + 1, 2)
        return (diff > 0) - (diff < 0)


@dataclass(frozen=True)
class GenFormSpectrum:
    params: DecompositionParams
    lam: tuple[Fraction, ...]          # in the kernel-lattice basis
    coords: tuple[Fraction, ...]       # image in Q^n
    eigenvalues: tuple[EigenDescriptor, ...]
    negative_index: int


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
    """C = i(Id - A)(Id + A)^{-1}, Hermitian with spectrum -tan(pi(2k+1)/4N)."""
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


def apply_iota(iota: IntMat, lam) -> tuple[Fraction, ...]:
    """Coordinates in Q^n of a kernel-basis vector given by rational coefficients."""
    n = len(iota)
    k = len(iota[0]) if n else 0
    if len(lam) != k:
        raise ValueError("lambda length must match the kernel rank")
    return tuple(
        sum((Fraction(iota[jj][i]) * Fraction(lam[i]) for i in range(k)), Fraction(0))
        for jj in range(n)
    )


def _checked_coords(params: DecompositionParams, lam, iota: IntMat) -> tuple[Fraction, ...]:
    """`apply_iota`, with every coordinate required inside (-N, N)."""
    coords, N = apply_iota(iota, lam), params.N
    for c in coords:
        if not (-N < c < N):
            raise ValueError(f"coordinate {c} outside (-{N}, {N})")
    return coords


def floor_half_shift(x: Fraction) -> int:
    return math.floor(Fraction(x) + Fraction(1, 2))


def spectrum(params: DecompositionParams, lam, iota: IntMat) -> GenFormSpectrum:
    """Exact eigenvalue descriptors and negative index for the torus-generated
    quadratic form at lam (given in the kernel basis)."""
    N = params.N
    coords = _checked_coords(params, lam, iota)
    n = len(coords)
    eig = tuple(
        EigenDescriptor(j=j, k=k, N=N, lam=coords[j - 1])
        for j in range(1, n + 1)
        for k in range(-N, N)
    )
    negative_index = sum(2 * (N + floor_half_shift(c)) for c in coords)
    return GenFormSpectrum(
        params=params,
        lam=tuple(Fraction(x) for x in lam),
        coords=coords,
        eigenvalues=eig,
        negative_index=negative_index,
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


def front_membership(params: DecompositionParams, lam, iota: IntMat) -> set[int]:
    return front_coordinates(_checked_coords(params, lam, iota))


def t_lambda_value(lam_coords, N2: int, x) -> float:
    """Torus-factor generating term: sum over blocks of tan(pi*lam_k/2N2)|x_k|^2.

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


def assemble_numeric_form(params: DecompositionParams, lam, iota: IntMat) -> np.ndarray:
    """2nN x 2nN Hermitian matrix of the full quadratic form, block-major layout."""
    import numpy as np

    N = params.N
    coords = _checked_coords(params, lam, iota)
    n = len(coords)
    c_small = quad_form_matrix(N)
    c_full = np.kron(c_small, np.eye(n))
    d_full = np.kron(np.eye(2 * N), np.diag([math.tan(math.pi * c / (2 * N)) for c in coords]))
    return c_full - d_full


def numeric_negative_index(matrix: np.ndarray, tol: float = 1e-9) -> int:
    """Real dimension (twice the complex count) of the negative eigenspace."""
    import numpy as np

    vals = np.linalg.eigvalsh(matrix)
    return 2 * int((vals < -tol).sum())
