"""Delzant polytopes and the reduction data attached to them.

A polytope is given by primitive integer facet conormals v_j and positive
rational offsets a_j, cutting out {x : <x, v_j> + a_j >= 0}.  From it we
compute the conormal map, the kernel lattice with its inclusion into Z^n,
the induced rational covector p and integral covector c, the minimal
proportionality factor between them, the p-kernel sublattice, and a strictly
positive lattice direction b.  Validation works in integers: vertices by
Cramer's rule over every facet d-subset, smoothness from the same
determinants, compactness from the extreme rays of the recession cone, and
redundant facets from the integer rank of the tight vertices' spans.
Every offset is positive, so 0 is an interior point and no input is empty.
The vertices' active facet sets are kept on the reduction data, where they
give the translated spectrum's minimal supports.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from toricspec.lattice import (
    IntMat,
    IntVec,
    LatticeBasis,
    canonical_lattice_basis,
    common_denominator,
    det,
    integer_kernel,
    is_primitive,
    mat_vec,
)
from toricspec.memo import Value, memo


class ToricHypothesisError(Exception):
    """A hypothesis of the pipeline fails (non-compact, non-smooth, nonmonotone...)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _check_facet(conormal, offset):
    """A facet needs a primitive conormal and a positive offset."""
    if not is_primitive(conormal):
        raise ValueError(f"conormal {conormal} is not primitive")
    if offset <= 0:
        raise ValueError("offsets must be positive")


class DelzantPolytope(Value):
    d: int
    facets: tuple[tuple[IntVec, Fraction], ...]  # (conormal v_j, offset a_j)

    def __post_init__(self):
        if len(self.facets) < self.d + 1:
            raise ValueError("need at least d+1 facets")
        for v, a in self.facets:
            if len(v) != self.d:
                raise ValueError("conormal length mismatch")
            _check_facet(v, a)

    @property
    def n(self) -> int:
        return len(self.facets)

    def conormal_matrix(self) -> IntMat:
        """d x n matrix whose columns are the conormals."""
        return tuple(tuple(v[i] for v, _ in self.facets) for i in range(self.d))

    def offsets(self) -> tuple[Fraction, ...]:
        return tuple(a for _, a in self.facets)


class ValidationReport(Value):
    compact: bool
    smooth: bool
    vertices: tuple[tuple[Fraction, ...], ...]
    vertex_facets: tuple[frozenset[int], ...]  # 0-based active facets, per vertex


class ToricData(Value):
    n: int
    d: int
    beta: IntMat                      # d x n, columns are the conormals
    kappa: LatticeBasis               # kernel lattice of beta, inside Z^n
    iota: IntMat                      # n x k inclusion, columns = kappa vectors
    p: tuple[Fraction, ...]           # iota^*(a), in the dual kappa basis
    chern: tuple[int, ...]            # c(m) = sum of iota(m) coordinates
    min_chern: int | None             # N with chern == N * p, if any
    k0: LatticeBasis                  # ker(p) inside the kappa lattice
    b: IntVec                         # strictly positive lattice direction
    hbar: Fraction | None             # 1 exactly when p is primitive integral
    polytope: DelzantPolytope
    vertex_facets: tuple[frozenset[int], ...]  # 0-based active facets, per vertex

    @property
    def k(self) -> int:
        return len(self.kappa)

    def iota_apply(self, m) -> tuple:
        """Coordinates of a kappa-basis vector m inside Q^n."""
        return mat_vec(self.iota, m)

    def p_value(self, m) -> Fraction:
        return sum((pi * mi for pi, mi in zip(self.p, m)), Fraction(0))

    def chern_value(self, m):
        return sum(ci * mi for ci, mi in zip(self.chern, m))


# --- validation -------------------------------------------------------------


def _enumerate_vertices(poly: DelzantPolytope):
    """Every vertex, in the order of the first facet d-subset that meets in
    it, mapped to its active facet set and its smoothness (simple, with
    conormals of determinant +-1, i.e. a lattice basis).

    Cramer's rule in integers: with L the lcm of the offset denominators and
    A = L a, a d-subset S with D = det V_S != 0 meets in x = X / (L D), where
    X_i is det V_S with column i replaced by -A_S.  Facet j holds at x iff
    sign(D) (v_j . X + A_j D) >= 0, with equality iff it is active there.
    """
    d = poly.d
    scale, numerators = common_denominator(poly.offsets())
    rows = [(v, A) for (v, _), A in zip(poly.facets, numerators)]
    verts = {}
    for subset in combinations(range(poly.n), d):
        mat = [rows[j][0] for j in subset]
        D = det(mat)
        if D == 0:
            continue
        rhs = [-rows[j][1] for j in subset]
        X = [det([v[:i] + (r,) + v[i + 1:] for v, r in zip(mat, rhs)]) for i in range(d)]
        sign = 1 if D > 0 else -1
        active = []
        for j, (v, A) in enumerate(rows):
            slack = sign * (sum(vi * xi for vi, xi in zip(v, X)) + A * D)
            if slack < 0:
                break
            if slack == 0:
                active.append(j)
        else:
            x = tuple(Fraction(xi, scale * D) for xi in X)
            if x not in verts:
                verts[x] = (frozenset(active), len(active) == d and abs(D) == 1)
    return verts


def _has_recession_ray(poly: DelzantPolytope) -> bool:
    """Whether the recession cone {y : V y >= 0} of a polytope with a vertex
    is nonzero.  That cone is pointed, so it is nonzero iff it has an extreme
    ray (Schrijver, Theory of Linear and Integer Programming, 1986, 8.8): a
    y != 0 tight at d - 1 independent rows T, hence +-r with r the cofactor
    vector of V_T, so that V r >= 0 or V r <= 0."""
    d = poly.d
    conormals = [v for v, _ in poly.facets]
    for rows in combinations(conormals, d - 1):
        r = [(-1) ** i * det([v[:i] + v[i + 1:] for v in rows]) for i in range(d)]
        if not any(r):
            continue
        dots = [sum(vi * ri for vi, ri in zip(v, r)) for v in conormals]
        if min(dots) >= 0 or max(dots) <= 0:
            return True
    return False


def validate(poly: DelzantPolytope) -> ValidationReport:
    """The validation report of `poly`, built once per process for each
    polytope (memo kind `validation`); an input that raises is not kept."""
    return memo("validation", poly, lambda: _validate(poly))


def _validate(poly: DelzantPolytope) -> ValidationReport:
    """Compactness, smoothness, and the vertex list with each vertex's active
    facet set, all in integer arithmetic.

    Every offset is positive, so the input holds 0 and is never empty:
    without a vertex it contains a line and is not compact; with one, it is
    compact iff its recession cone has no extreme ray.  It is smooth iff it
    has a vertex and every vertex is simple with conormals of determinant
    +-1.

    Raises ToricHypothesisError on a compact polytope with a facet repeated
    verbatim or with an inequality that is not tight at d affinely
    independent vertices (a redundant facet, numbered from 1 in file order;
    of two equal facets, the later one).
    """
    d = poly.d
    verts = _enumerate_vertices(poly)
    compact = bool(verts) and not _has_recession_ray(poly)
    for j in range(poly.n if compact else 0):
        if poly.facets[j] in poly.facets[:j]:
            raise ToricHypothesisError(f"redundant facet {j + 1}")
        tight = [x for x, (active, _) in verts.items() if j in active]
        if any(len(verts[x][0]) == d for x in tight):
            continue  # the d - 1 edges along j from a simple vertex end in vertices
        # the integer rank of the spans from one tight vertex, scaled to
        # integers: the nonzero columns of their Hermite form
        den = lcm(*(c.denominator for x in tight for c in x))
        spans = [[int((a - b) * den) for a, b in zip(x, tight[0])] for x in tight[1:]]
        if len(tight) < d or len(canonical_lattice_basis(spans, d)) < d - 1:
            raise ToricHypothesisError(f"redundant facet {j + 1}")
    vertices = tuple(sorted(verts))
    return ValidationReport(
        compact=compact, smooth=bool(verts) and all(ok for _, ok in verts.values()),
        vertices=vertices, vertex_facets=tuple(verts[x][0] for x in vertices),
    )


# --- reduction data ---------------------------------------------------------


def _primitive_integral(p) -> bool:
    """p is a primitive integral covector: integer entries of gcd 1."""
    return all(pi.denominator == 1 for pi in p) and gcd(*(pi.numerator for pi in p)) == 1


def _chern_ratio(p, chern) -> int | None:
    """The unique positive integer N with chern = N * p, if it exists."""
    ratio = None
    for ci, pi in zip(chern, p):
        if pi == 0:
            if ci != 0:
                return None
            continue
        r = Fraction(ci) / pi
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    if ratio is None or ratio <= 0 or ratio.denominator != 1:
        return None
    return ratio.numerator


def rationality_check(data: ToricData) -> bool:
    """p is a primitive integral covector."""
    return _primitive_integral(data.p)


def find_positive_b(iota: IntMat, k: int, grade_cap: int = 64) -> IntVec:
    """Smallest (graded-lex over 1-norm shells) lattice vector b with iota(b)
    componentwise strictly positive.

    Strict positivity makes the level set sum b_j |z_j|^2 = const compact; it
    exists whenever the polytope is compact.  Each shell is searched depth
    first, coordinate by coordinate in increasing order, so candidates come in
    lex order; a partial vector is dropped as soon as some row of iota cannot
    reach 1 with the 1-norm left to spend.
    """
    # reach[i][j]: what one unit of 1-norm on coordinates i.. adds to row j at most
    reach = [[max(map(abs, row[i:]), default=0) for row in iota] for i in range(k + 1)]

    def search(i, image, left):
        if any(y + left * r < 1 for y, r in zip(image, reach[i])):
            return None
        if i == k:
            return ()
        choices = range(-left, left + 1) if i < k - 1 else (-left, left) if left else (0,)
        for x in choices:
            rest = search(i + 1, [y + x * row[i] for y, row in zip(image, iota)], left - abs(x))
            if rest is not None:
                return (x,) + rest
        return None

    for grade in range(1, grade_cap + 1):
        b = search(0, [0] * len(iota), grade)
        if b is not None:
            return b
    raise ToricHypothesisError("no strictly positive lattice direction found")


def is_cpn(data: ToricData) -> bool:
    """The p-kernel sublattice is trivial (k = 1), i.e. projective-space type."""
    return len(data.k0) == 0


def check_hypotheses(data: ToricData, monotone=False, exclude_cpn=False):
    """The pipeline's gate: p must be primitive integral, then, on request,
    the data monotone and not of projective-space type.  Raises
    ToricHypothesisError naming the first hypothesis that fails."""
    if not rationality_check(data):
        raise ToricHypothesisError("p is not primitive integral")
    if monotone and data.min_chern is None:
        raise ToricHypothesisError("not monotone")
    if exclude_cpn and is_cpn(data):
        raise ToricHypothesisError("projective-space type excluded")


def toric_data(poly: DelzantPolytope) -> ToricData:
    """All reduction data of a validated polytope; raises on non-compact or
    non-smooth input.

    Built once per process for each polytope (memo kind `toric_data`), so
    equal polytopes give the same object and every memo key holding it
    compares by identity.  An input that raises is not kept: it raises again
    on every call.
    """
    return memo("toric_data", poly, lambda: _build_toric_data(poly))


def _build_toric_data(poly: DelzantPolytope) -> ToricData:
    report = validate(poly)
    if not report.compact:
        raise ToricHypothesisError("polytope is not compact")
    if not report.smooth:
        raise ToricHypothesisError("polytope is not smooth")
    beta = poly.conormal_matrix()
    kappa = integer_kernel(beta)
    iota = kappa.matrix()
    cols, a = list(zip(*iota)), poly.offsets()
    p = tuple(sum((Fraction(c) * aj for c, aj in zip(col, a)), Fraction(0)) for col in cols)
    chern = tuple(map(sum, cols))
    rational = _primitive_integral(p)
    _, p_int = common_denominator(p)  # the kernel of p is that of its cleared numerators
    return ToricData(
        n=poly.n, d=poly.d, beta=beta, kappa=kappa, iota=iota, p=p, chern=chern,
        min_chern=_chern_ratio(p, chern) if rational else None,
        k0=integer_kernel((tuple(p_int),)), b=find_positive_b(iota, len(kappa)),
        hbar=Fraction(1) if rational else None, polytope=poly,
        vertex_facets=report.vertex_facets,
    )


# --- text format ------------------------------------------------------------


def parse_integer(text: str) -> int:
    """Integer literal as `int` reads it, without `_` digit separators."""
    if "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_fraction(text: str) -> Fraction:
    """Exact rational literal `p/q` or integer; floating-point forms and `_`
    digit separators rejected.  Decimal p and q, only p signed, are read by int()."""
    text = text.strip()
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] in "+-" else num).isdecimal() and (den.isdecimal() or not slash):
        if slash and not int(den):
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den) if slash else 1)
    if any(ch in text for ch in ".eE"):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "_" in text:  # Fraction reads them from Python 3.11 on
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_polytope(text: str) -> DelzantPolytope:
    """Line-based format: `dim <d>` then `facet <v_1> ... <v_d> ; <a>` lines,
    `#` starting a comment anywhere.

    Parsed once per process for each text (memo kind `polytope`), so the
    same text gives the same object and an edited text is parsed again.  A
    text that raises is not kept: it raises again on every call."""
    return memo("polytope", text, lambda: _parse_polytope(text))


def _parse_polytope(text: str) -> DelzantPolytope:
    d = dim_line = None
    facets = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] == "dim":
                if d is not None:
                    raise ValueError("duplicate dim")
                if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                    raise ValueError("dim must be one positive integer")
                d, dim_line = int(parts[1]), lineno
            elif parts[0] == "facet":
                if d is None:
                    raise ValueError("facet before dim")
                if ";" not in parts:
                    raise ValueError("missing ';' in facet line")
                sep = parts.index(";")
                conormal = tuple(map(parse_integer, parts[1:sep]))
                if len(conormal) != d:
                    raise ValueError(f"expected {d} conormal entries")
                if sep + 2 != len(parts):
                    raise ValueError("expected one offset after ';'")
                offset = parse_fraction(parts[sep + 1])
                _check_facet(conormal, offset)
                facets.append((conormal, offset))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if d is None:
        raise ValueError("missing dim line")
    if len(facets) < d + 1:
        raise ValueError(f"line {dim_line}: dim {d} needs at least {d + 1} facets, found {len(facets)}")
    return DelzantPolytope(d=d, facets=tuple(facets))
