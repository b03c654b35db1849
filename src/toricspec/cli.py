"""Command-line front end: exact rational reports over polytope files.

Machine format is line-oriented `key=value` with `#` comment lines; all
numbers are exact rational literals.  Exit codes: 0 success, 1 parse/IO
error, 2 hypothesis failure (named in the report).
"""

import argparse
import functools
import sys
from fractions import Fraction

from toricspec.lattice import mat_vec
from toricspec.laurent import (
    BackendMismatchError,
    InconclusiveError,
    check_start_window,
    kernel_K,
    kernel_K0,
    membership,
)
from toricspec.minimal import (
    MinimalDegreeWitness,
    NoMinimalElement,
    find_minimal_degree_element,
    translated_point_bound,
)
from toricspec.oracle import DiagonalMap, count_report, period_report, spectrum as oracle_spectrum
from toricspec.polys import Poly
from toricspec.polytope import (
    ToricHypothesisError,
    is_cpn,
    monotonicity_check,
    parse_fraction,
    parse_polytope,
    rationality_check,
    toric_data,
    validate,
)
from toricspec.quadforms import DecompositionParams, spectrum as quad_spectrum


def frac_str(x) -> str:
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


def vec_str(v) -> str:
    return ",".join(frac_str(x) for x in v)


def parse_vector(text: str):
    return tuple(parse_fraction(part) for part in text.split(","))


def parse_int_vector(text: str):
    out = []
    for part in text.split(","):
        f = parse_fraction(part)
        if f.denominator != 1:
            raise ValueError(f"expected integer entry, got {part}")
        out.append(f.numerator)
    return tuple(out)


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines = []

    def kv(self, key, value, human=None):
        if self.fmt == "machine":
            self.lines.append(f"{key}={value}")
        else:
            self.lines.append(human if human is not None else f"{key} = {value}")

    def comment(self, text):
        if self.fmt == "machine":
            self.lines.append(f"# {text}")
        else:
            self.lines.append(text)

    def emit(self):
        sys.stdout.write("\n".join(self.lines) + "\n")


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polytope(fh.read())


def cmd_validate(args, report: Report) -> int:
    poly = _load(args.polytope)
    res = validate(poly)
    report.kv("compact", str(res.compact).lower())
    report.kv("smooth", str(res.smooth).lower())
    report.kv("vertex_count", len(res.vertices))
    for i, v in enumerate(res.vertices):
        report.kv(f"vertex.{i}", vec_str(v))
    return 0 if res.compact and res.smooth else 2


def _emit_toric(data, report: Report):
    report.kv("n", data.n)
    report.kv("d", data.d)
    report.kv("k", data.k)
    for i, v in enumerate(data.kappa.vectors):
        report.kv(f"kappa.{i}", vec_str(v))
    report.kv("p", vec_str(data.p))
    report.kv("chern", vec_str(data.chern))
    report.kv("N_M", data.min_chern if data.min_chern is not None else "absent")
    for i, v in enumerate(data.k0.vectors):
        report.kv(f"k0.{i}", vec_str(v))
    report.kv("b", vec_str(data.b))
    report.kv("iota_b", vec_str(mat_vec(data.iota, data.b)))
    report.kv("p_b", frac_str(data.p_value(data.b)))
    report.kv("hbar", frac_str(data.hbar) if data.hbar is not None else "absent")
    report.kv("rational", str(rationality_check(data)).lower())
    report.kv("monotone", str(data.min_chern is not None).lower())
    report.kv("is_cpn", str(is_cpn(data)).lower())


def cmd_data(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    _emit_toric(data, report)
    return 0


def parse_data_report(text: str) -> dict:
    """Re-parse a machine-format `data` report into exact values."""
    out: dict = {}
    kappa, k0 = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if key.startswith("kappa."):
            kappa.append(parse_int_vector(value))
        elif key.startswith("k0."):
            k0.append(parse_int_vector(value))
        elif key in {"p", "iota_b"}:
            out[key] = parse_vector(value)
        elif key in {"chern", "b"}:
            out[key] = parse_int_vector(value)
        elif key in {"n", "d", "k"}:
            out[key] = int(value)
        elif key == "N_M":
            out[key] = None if value == "absent" else int(value)
        elif key in {"hbar", "p_b"}:
            out[key] = None if value == "absent" else parse_fraction(value)
        else:
            out[key] = value
    out["kappa"] = tuple(kappa)
    out["k0"] = tuple(k0)
    return out


def cmd_spectrum_quadform(args, report: Report) -> int:
    if args.numeric:
        try:
            import numpy as np
        except ImportError:
            raise ValueError("--numeric needs numpy (the [numeric] extra)") from None
    data = toric_data(_load(args.polytope))
    lam = parse_vector(args.lam)
    params = DecompositionParams(N1=0, N2=args.N)
    sp = quad_spectrum(params, lam, data.iota)
    report.kv("N", params.N)
    report.kv("lambda", vec_str(sp.lam))
    report.kv("coords", vec_str(sp.coords))
    report.kv("negative_index", sp.negative_index)
    report.kv("eigen_count", len(sp.eigenvalues))
    for e in sp.eigenvalues:
        report.kv(f"eigen.{e.j}.{e.k}.sign", e.sign())
    if args.numeric:
        from toricspec.quadforms import assemble_numeric_form, numeric_negative_index

        m = assemble_numeric_form(params, lam, data.iota)
        report.comment("numeric cross-check (floating point)")
        report.comment(f"numeric_negative_index={numeric_negative_index(m)}")
        vals = ", ".join(f"{v:.9f}" for v in sorted(np.linalg.eigvalsh(m)))
        report.comment(f"numeric_eigenvalues={vals}")
    return 0


def _kernel_module(data, ring, nu, window):
    return kernel_K0(data, nu, window) if ring == "K0" else kernel_K(data, nu, window)


def cmd_kernel(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    nu = parse_fraction(args.nu) if args.nu is not None else None
    km = _kernel_module(data, args.ring, nu, args.W)
    if args.member is not None:
        exps = parse_int_vector(args.member)
        if len(exps) != data.n:
            raise ValueError(f"--member needs {data.n} exponents, got {len(exps)}")
        check_start_window(args.W)
    report.kv("ring", km.ring)
    report.kv("threshold", frac_str(nu) if nu is not None else "-inf")
    report.kv("window", args.W)
    gens = km.module.generators()
    report.kv("generator_count", len(gens))
    for i, g in enumerate(gens):
        report.kv(f"gen.{i}", ",".join(map(str, g)))  # integer exponent vectors
    if args.member is not None:
        verdict = membership(
            Poly.monomial(exps), km.module, km.subspace, backend=args.backend
        )
        report.kv("member", str(verdict).lower())
        report.kv("backend", args.backend)
    return 0


def cmd_min_degree(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    nu = parse_fraction(args.nu)
    witness = find_minimal_degree_element(data, nu, window=args.W)
    report.kv("nu", frac_str(nu))
    if isinstance(witness, NoMinimalElement):
        report.kv("result", "NoMinimalElement")
        report.kv("reason", witness.reason)
        return 2
    report.kv("result", "witness")
    report.kv("witness", vec_str(witness.monomial))
    report.kv("restriction", witness.restriction.render())
    report.kv("shift", vec_str(witness.shift))
    return 0


def cmd_bound(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    nu = parse_fraction(args.nu) if args.nu is not None else Fraction(1, 2)
    bound, witness = translated_point_bound(data, nu=nu, window=args.W)
    report.kv("N_M", bound)
    report.kv("nu", frac_str(nu))
    report.kv("witness", vec_str(witness.monomial))
    report.kv("restriction", witness.restriction.render())
    report.kv("degree_shift_per_period", 2 * bound)
    return 0


def cmd_spectrum(args, report: Report) -> int:
    if args.window is None and args.nu is None:
        raise ValueError("spectrum requires --window and/or --nu")
    if args.window is not None:
        lo_text, colon, hi_text = args.window.partition(":")
        if not (colon and lo_text and hi_text):
            raise ValueError(f"window must be lo:hi, got '{args.window}'")
    data = toric_data(_load(args.polytope))
    mu = parse_vector(args.mu)
    dmap = DiagonalMap(mu=mu, twisted=not args.untwisted)
    classes = None
    if args.window is not None:
        window = (parse_fraction(lo_text), parse_fraction(hi_text))
        res = oracle_spectrum(data, dmap, window)
        classes = res.classes
        report.kv("window", f"{frac_str(window[0])}:{frac_str(window[1])}")
        report.kv("value_count", len(res.values))
        for i, (v, supports) in enumerate(res.values):
            report.kv(f"value.{i}", frac_str(v))
            report.kv(
                f"supports.{i}",
                ";".join(",".join(str(j) for j in s) for s in supports),
            )
        report.kv("period_check", str(res.period_check).lower())
    if args.nu is not None:
        nu = parse_fraction(args.nu)
        res = count_report(data, dmap, nu) if classes is None else period_report(classes, nu)
        report.kv("nu", frac_str(nu))
        report.kv("count_in_period", len(res.values))
        if res.boundary_hits:
            report.kv("boundary", ";".join(frac_str(v) for v in res.boundary_hits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricspec",
        description="Exact toric reduction data, kernel modules, and translated spectra.",
    )
    parser.add_argument("--format", choices=("human", "machine"), default="machine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="compactness/smoothness and vertices")
    p.add_argument("polytope")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("data", help="full reduction data")
    p.add_argument("polytope")
    p.set_defaults(func=cmd_data)

    p = sub.add_parser("spectrum-quadform", help="exact quadratic-form spectrum")
    p.add_argument("polytope")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lam", required=True, help="rational vector in the kernel basis, e.g. 1/2,0")
    p.add_argument("--numeric", action="store_true", help="append a floating cross-check block")
    p.set_defaults(func=cmd_spectrum_quadform)

    p = sub.add_parser("kernel", help="level module generators and membership")
    p.add_argument("polytope")
    p.add_argument("--nu", default=None)
    p.add_argument("--W", type=int, default=2)
    p.add_argument("--ring", choices=("K0", "K"), default="K0")
    p.add_argument("--member", default=None, help="integer exponent vector, e.g. 1,0,0,0")
    p.add_argument("--backend", choices=("groebner", "brute", "both"), default="both")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("min-degree", help="minimal-degree witness search")
    p.add_argument("polytope")
    p.add_argument("--nu", required=True)
    p.add_argument("--W", type=int, default=2)
    p.set_defaults(func=cmd_min_degree)

    p = sub.add_parser("bound", help="translated-point lower bound with witness chain")
    p.add_argument("polytope")
    p.add_argument("--nu", default=None)
    p.add_argument("--W", type=int, default=2)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("spectrum", help="translated spectrum of a diagonal map")
    p.add_argument("polytope")
    p.add_argument("--mu", required=True)
    p.add_argument("--window", default=None, help="rational interval lo:hi")
    p.add_argument("--nu", default=None, help="count values in [nu, nu+1)")
    p.add_argument("--untwisted", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    return parser


VALUE_OPTIONS = ("--member", "--mu", "--lam", "--nu", "--window")


def _attach_negative_values(argv):
    """argparse reads `--nu -1/2` as two options; pass it on as `--nu=-1/2`."""
    out = []
    for tok in argv:
        if out and out[-1] in VALUE_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `run`, not at import."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return 1 if exc.code else 0
    report = Report(args.format)
    if args.format == "human" and getattr(args, "polytope", None):
        report.comment(f"toricspec {args.command}: {args.polytope}")
    try:
        code = args.func(args, report)
    except ToricHypothesisError as exc:
        report.kv("error", exc.reason)
        report.emit()
        return 2
    except (InconclusiveError, BackendMismatchError) as exc:
        report.kv("error", f"inconclusive: {exc}")
        report.emit()
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report.emit()
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
