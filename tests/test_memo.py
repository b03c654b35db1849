import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from tests.conftest import cp1xcp1
from toricspec.cli import run
from toricspec.laurent import LinearSubspace, MonomialModule, decision_module, kernel_K, kernel_K0, restrict
from toricspec.memo import _MEMO, Value, clear_caches, memo_counts, replace
from toricspec.minimal import NoMinimalElement, PolynomialPart, bounding_modules, find_minimal_degree_element
from toricspec.oracle import DiagonalMap, class_set
from toricspec.polys import Poly
from toricspec.polytope import ToricHypothesisError, parse_polytope, toric_data, validate
from toricspec.quadforms import spectrum

H = Fraction(1, 2)
POLY = Path(__file__).resolve().parent.parent / "polytopes"
CORPUS = POLY.parent / "perfbench" / "corpus"


def every_value_type():
    """One value of each of the library's value types, from the square."""
    poly = cp1xcp1()
    T = toric_data(poly)
    km = kernel_K0(T, H, 2)
    dmap = DiagonalMap((Fraction(1, 4), 0, 0, 0))
    quad = spectrum(2, (Fraction(1, 3), 0), T.iota)
    return [
        poly, validate(poly), T, T.kappa,
        km, km.module, km.subspace, PolynomialPart(T, H, 2),
        restrict(Poly.monomial((1, 0, -1, 0)), km.subspace),
        bounding_modules(T, H, Fraction(-1, 4), Fraction(1, 4)),
        find_minimal_degree_element(T, H), NoMinimalElement(H),
        dmap,
        quad, quad.eigenvalues[0],
    ]


def test_values_are_frozen_records_compared_by_class_and_fields():
    values = every_value_type()
    # the fourteen value types and PolynomialPart, a MonomialModule subclass
    assert len({type(v) for v in values}) == 15 and all(isinstance(v, Value) for v in values)
    for v in values:
        fields = {name: getattr(v, name) for name in v._fields}
        for name in v._fields:
            with pytest.raises(AttributeError):
                setattr(v, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert {name: getattr(v, name) for name in v._fields} == fields
        # a copy is equal; a value of another class with equal fields, or the
        # tuple of the fields, is not
        assert replace(v) == v and type(v)(**fields) == v
        other = type("Other", (type(v),), {})(**fields)
        assert v != other and other != v
        assert v != tuple(fields.values()) and tuple(fields.values()) != v
    # the polynomial part and the module with equal fields are distinct memo keys
    T = values[2]
    part, module = PolynomialPart(T, H, 4), MonomialModule(T, H, 4)
    assert hash(part) == hash(module) and part != module and {part: 1, module: 2}[part] == 1


def test_fields_take_positions_keywords_and_defaults():
    T = toric_data(cp1xcp1())
    by_position = MonomialModule(T, H, 2)
    assert by_position == MonomialModule(toric=T, threshold=H, window=2, center=(0,) * T.k, degree_shift=0)
    assert by_position.center == (0,) * T.k  # completed by __post_init__
    assert NoMinimalElement(H).reason == "module is the whole ring"
    with pytest.raises(TypeError):
        MonomialModule(T, H)
    with pytest.raises(TypeError):
        MonomialModule(T, H, 2, window=3)
    with pytest.raises(TypeError):
        MonomialModule(T, H, 2, radius=3)
    with pytest.raises(TypeError):
        LinearSubspace(((1,),), ((1,),))


def test_replace_checks_again_and_the_hash_covers_every_field():
    T = toric_data(cp1xcp1())
    module = kernel_K0(T, H, 2).module
    with pytest.raises(ValueError, match=r"^window must be >= 1$"):
        replace(module, window=0)
    with pytest.raises(ValueError, match=r"^need at least d\+1 facets$"):
        replace(T.polytope, facets=())
    with pytest.raises(TypeError):
        replace(module, radius=3)
    moved = replace(module, threshold=module.threshold + 1)
    assert moved.window == module.window and moved.center == module.center
    assert moved != module
    for m in (module, moved):
        assert hash(m) == hash((m.toric, m.threshold, m.window, m.center, m.degree_shift))


class CountedHash:
    """A field that counts the calls of its `__hash__`."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


class Pair(Value):
    left: object
    right: int = 0


def test_a_value_hashes_its_fields_once():
    field = CountedHash()
    pair = Pair(field)
    # the first hash() reads the fields; later ones, the memo's included, do not
    assert hash(pair) == hash(pair) and {pair: 1}[pair] == 1
    assert field.calls == 1
    assert hash(pair) == hash((field, 0)) and field.calls == 2
    # an equal value is another instance: it hashes its fields once more, to the same hash
    twin = Pair(field)
    assert twin == pair and hash(twin) == hash(pair) and field.calls == 3
    # a changed copy is hashed afresh, by every field
    assert hash(replace(pair, right=1)) == hash((field, 1)) and field.calls == 5
    # the kept hash is no field: equality, replace and repr read the fields only
    assert pair._key(pair) == (field, 0) and repr(pair) == f"Pair(left={field!r}, right=0)"


def report(argv):
    """(exit code, stdout, stderr) of one command line in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_kernel_query_stream_reads_its_inputs_from_the_memo():
    # 21 queries of the cube's K0 module in one process: the polytope text,
    # the kernel module and its generator listing are built by the first query
    # and read by the other 20, and each report is the one a cleared memo gives
    path = str(POLY / "cube_monotone.poly")
    vectors = [",".join(str((3 * q + 5 * i) % 7 - 3) for i in range(6)) for q in range(21)]
    verdicts = set()
    for fmt in ("machine", "human"):
        argvs = [["--format", fmt, "kernel", path, "--W", "4", "--nu", "1/2", f"--member={v}"] for v in vectors]
        cold = []
        for argv in argvs:
            clear_caches()
            cold.append(report(argv))
        clear_caches()
        assert [report(argv) for argv in argvs] == cold
        counts = memo_counts()
        assert [counts[kind] for kind in ("polytope", "kernel_module", "generator_lines")] == [(20, 1)] * 3
        verdicts |= {line for _, out, _ in cold for line in out.splitlines() if line.startswith("member")}
    assert verdicts == {"member=true", "member=false", "member = true", "member = false"}


def test_spectrum_jobs_read_one_minor_table_per_polytope():
    # 8 spectrum jobs on the pentagon in one process, with other maps, ends and
    # twists: the minor table is built by the first and read by the other 7, and
    # each report is the one a cleared memo gives
    path = str(CORPUS / "pentagon.poly")
    argvs = [["spectrum", path, f"--mu={mu}", *options]
             for mu in ("1/4,0,1/3,0,0", "0,-2/5,0,1/2,0")
             for options in (("--window=-1:2",), ("--nu=1/2", "--untwisted"), ("--window=0:0", "--nu=-1/3"),
                             ("--window=1/3:1/3", "--untwisted"))]
    cold = []
    for argv in argvs:
        clear_caches()
        cold.append(report(argv))
    clear_caches()
    assert [report(argv) for argv in argvs] == cold
    assert all(code == 0 and out and err == "" for code, out, err in cold)
    assert memo_counts()["vertex_minor"] == (7, 1)
    # a polytope that fails a hypothesis raises in the build, on every job, and keeps nothing
    quarter = toric_data(cp1xcp1((Fraction(1, 4),) * 4))
    for calls in (1, 2):
        with pytest.raises(ToricHypothesisError, match="^p is not primitive integral$"):
            class_set(quarter, DiagonalMap((0, 0, 0, 0)))
        assert memo_counts()["vertex_minor"] == (7, 1 + calls)
    assert sum(kind == "vertex_minor" for kind, _ in _MEMO) == 1


def test_one_polytope_per_text():
    text = (POLY / "cp2.poly").read_text()
    clear_caches()
    poly = parse_polytope(text)
    copy = text[:1] + text[1:]
    assert copy is not text and parse_polytope(copy) is poly
    edited = parse_polytope(text.replace("; 1", "; 2"))
    assert edited is not poly and edited != poly and toric_data(edited) is not toric_data(poly)
    assert memo_counts()["polytope"] == (1, 2)
    # a malformed text raises on every call and is not kept
    bad = text + "facet 1_0 0 ; 1\n"
    for calls in (1, 2, 3):
        with pytest.raises(ValueError, match=r"^line \d+: invalid literal for int\(\) with base 10: '1_0'$"):
            parse_polytope(bad)
        assert memo_counts()["polytope"] == (1, 2 + calls)
    assert sum(kind == "polytope" for kind, _ in _MEMO) == 2


def test_one_kernel_module_per_input(T_monotone):
    clear_caches()
    km = kernel_K0(T_monotone, H, 2)
    assert kernel_K0(T_monotone, Fraction(1, 2), 2) is km
    assert decision_module(kernel_K0(T_monotone, H, 2)) is decision_module(km)
    others = [kernel_K(T_monotone, H, 2), kernel_K0(T_monotone, H, 4), kernel_K0(T_monotone, 0, 2)]
    assert len({id(km), *map(id, others)}) == 4 and km not in others
    assert memo_counts()["kernel_module"] == (2, 4)
    # a failed hypothesis is checked in the build: it raises on every call
    quarter = toric_data(cp1xcp1((Fraction(1, 4),) * 4))
    for calls in (1, 2, 3):
        with pytest.raises(ToricHypothesisError, match="^p is not primitive integral$"):
            kernel_K0(quarter, H, 2)
        assert memo_counts()["kernel_module"] == (2, 4 + calls)
    assert sum(kind == "kernel_module" for kind, _ in _MEMO) == 4


def test_a_listing_over_the_box_limit_raises_on_every_call():
    clear_caches()
    argv = ["kernel", str(POLY / "cp1xcp1_monotone.poly"), "--W", "100000"]
    first = report(argv)
    assert first[0] == 2 and "error=inconclusive: window 100000 box has" in first[1]
    assert report(argv) == first
    assert memo_counts()["generator_lines"] == (0, 2) and memo_counts()["kernel_module"] == (1, 1)
