"""Command-line front end: exact rational reports over polytope files.

    toricspec [--format human|machine] COMMAND POLYTOPE [OPTIONS]

`parse_args` reads the command line against one table, COMMANDS.  Machine
format is line-oriented `key=value` with `#` comment lines; all numbers are
exact rational literals.  Exit codes: 0 success or help, 1 command-line,
parse or IO error (one `error:` line on stderr), 2 hypothesis failure or
inconclusive result (named in the report).
"""

import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from toricspec.laurent import (
    BackendMismatchError,
    InconclusiveError,
    check_start_window,
    kernel_K,
    kernel_K0,
    membership,
)
from toricspec.memo import memo
from toricspec.minimal import (
    NoMinimalElement,
    find_minimal_degree_element,
    translated_point_bound,
)
from toricspec.oracle import DiagonalMap, class_set, listing
from toricspec.polys import Poly
from toricspec.polytope import (
    ToricHypothesisError,
    is_cpn,
    parse_fraction,
    parse_integer,
    parse_polytope,
    rationality_check,
    toric_data,
    validate,
)
from toricspec.quadforms import assemble_numeric_form, numeric_negative_index, numeric_zero_index
from toricspec.quadforms import spectrum as quad_spectrum


def frac_str(x) -> str:
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


def ratio_str(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, as its `Fraction` prints."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


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


def parse_window(text: str):
    lo, colon, hi = text.partition(":")
    if not (colon and lo and hi):
        raise ValueError(f"must be lo:hi, got '{text}'")
    return parse_fraction(lo), parse_fraction(hi)


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines = []

    def line(self, key, value) -> str:
        return f"{key}={value}" if self.fmt == "machine" else f"{key} = {value}"

    def kv(self, key, value):
        self.lines.append(self.line(key, value))

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
    report.kv("iota_b", vec_str(data.iota_apply(data.b)))
    report.kv("p_b", frac_str(data.p_value(data.b)))
    report.kv("hbar", frac_str(data.hbar) if data.hbar is not None else "absent")
    report.kv("rational", str(rationality_check(data)).lower())
    report.kv("monotone", str(data.min_chern is not None).lower())
    report.kv("is_cpn", str(is_cpn(data)).lower())


def cmd_data(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    _emit_toric(data, report)
    return 0


def cmd_spectrum_quadform(args, report: Report) -> int:
    if args.numeric:
        try:
            import numpy as np
        except ImportError:
            raise ValueError("--numeric needs numpy (the [numeric] extra)") from None
    data = toric_data(_load(args.polytope))
    # the numeric form has the lower size limit, so it is built (or refused) first
    m = assemble_numeric_form(args.N, args.lam, data.iota) if args.numeric else None
    sp = quad_spectrum(args.N, args.lam, data.iota)
    report.kv("N", sp.N)
    report.kv("lambda", vec_str(sp.lam))
    report.kv("coords", vec_str(sp.coords))
    report.kv("negative_index", sp.negative_index)
    report.kv("eigen_count", 2 * len(sp.coords) * sp.N)
    for j, k, sign in sp.signs():
        report.kv(f"eigen.{j}.{k}.sign", sign)
    if args.numeric:
        vals = np.linalg.eigvalsh(m)  # ascending
        report.comment("numeric cross-check (floating point)")
        report.comment(f"numeric_negative_index={numeric_negative_index(vals)}")
        report.comment(f"numeric_zero_index={numeric_zero_index(vals)}")
        report.comment(f"numeric_eigenvalues={', '.join(f'{v:.9f}' for v in vals)}")
    return 0


def cmd_kernel(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    km = (kernel_K0 if args.ring == "K0" else kernel_K)(data, args.nu, args.W)
    if args.member is not None:
        if len(args.member) != data.n:
            raise ValueError(f"--member needs {data.n} exponents, got {len(args.member)}")
        check_start_window(args.W)
    report.kv("ring", km.ring)
    report.kv("threshold", frac_str(args.nu) if args.nu is not None else "-inf")
    report.kv("window", args.W)
    # the listing of integer exponent vectors, rendered once per module and format
    gen_lines = memo("generator_lines", (km.module, report.fmt), lambda: tuple(
        report.line(f"gen.{i}", ",".join(map(str, g))) for i, g in enumerate(km.module.generators())))
    report.kv("generator_count", len(gen_lines))
    report.lines += gen_lines
    if args.member is not None:
        verdict = membership(Poly.monomial(args.member), km, backend=args.backend)
        report.kv("member", str(verdict).lower())
        report.kv("backend", args.backend)
    return 0


def cmd_min_degree(args, report: Report) -> int:
    data = toric_data(_load(args.polytope))
    witness = find_minimal_degree_element(data, args.nu, window=args.W)
    report.kv("nu", frac_str(args.nu))
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
    bound, witness = translated_point_bound(data, nu=args.nu, window=args.W)
    report.kv("N_M", bound)
    report.kv("nu", frac_str(args.nu))
    report.kv("witness", vec_str(witness.monomial))
    report.kv("restriction", witness.restriction.render())
    report.kv("degree_shift_per_period", 2 * bound)
    return 0


def cmd_spectrum(args, report: Report) -> int:
    if args.window is None and args.nu is None:
        raise ValueError("spectrum requires --window and/or --nu")
    data = toric_data(_load(args.polytope))
    classes = class_set(data, DiagonalMap(mu=args.mu, twisted=not args.untwisted))
    if args.window is not None:
        scale, values = listing(classes, *args.window, closed=True)
        report.kv("window", ":".join(map(frac_str, args.window)))
        report.kv("value_count", len(values))
        for i, (v, supports) in enumerate(values):
            report.kv(f"value.{i}", ratio_str(v, scale))
            report.kv(f"supports.{i}", ";".join(",".join(map(str, s)) for s in supports))
        # every class steps by the period 1: p is primitive integral and each vertex minor unimodular
        report.kv("period_check", "true")
    if args.nu is not None:
        scale, values = listing(classes, args.nu, args.nu + 1, closed=False)
        report.kv("nu", frac_str(args.nu))
        report.kv("count_in_period", len(values))
        if values and values[0][0] * args.nu.denominator == args.nu.numerator * scale:  # the least is nu
            report.kv("boundary", frac_str(args.nu))
    return 0


# The command table: each command's handler, one-line help and options.  An
# option maps its name ("nu" for --nu) to (kind, default): the kind is the
# parser of its value (parse_integer, or a parser raising ValueError), a tuple of
# choices, or bool for a flag that takes no value; the default is a parsed
# value, and REQUIRED makes the option mandatory.
REQUIRED = ...
LEVEL = {"nu": (parse_fraction, None), "W": (parse_integer, 2)}
COMMANDS = {
    "validate": (cmd_validate, "compactness/smoothness and vertices", {}),
    "data": (cmd_data, "full reduction data", {}),
    "spectrum-quadform": (cmd_spectrum_quadform, "exact quadratic-form spectrum",
                          {"N": (parse_integer, REQUIRED), "lam": (parse_vector, REQUIRED), "numeric": (bool, False)}),
    "kernel": (cmd_kernel, "level module generators and membership",
               {**LEVEL, "ring": (("K0", "K"), "K0"), "member": (parse_int_vector, None),
                "backend": (("groebner", "brute", "both"), "both")}),
    "min-degree": (cmd_min_degree, "minimal-degree witness search", {**LEVEL, "nu": (parse_fraction, REQUIRED)}),
    "bound": (cmd_bound, "translated-point lower bound with witness chain",
              {**LEVEL, "nu": (parse_fraction, Fraction(1, 2))}),
    "spectrum": (cmd_spectrum, "translated spectrum of a diagonal map",
                 {"mu": (parse_vector, REQUIRED), "window": (parse_window, None),
                  "nu": (parse_fraction, None), "untwisted": (bool, False)}),
}
USAGE = "usage: toricspec [--format human|machine] {} POLYTOPE [OPTIONS]\n\n{}\n\n"


class UsageError(Exception):
    """A malformed command line."""


def _option_help(name, kind, default) -> str:
    if kind is bool:
        return f"  --{name}\n"
    meta = "INT" if kind is parse_integer else "|".join(kind) if type(kind) is tuple else "VALUE"
    note = "" if default is None else " (required)" if default is REQUIRED else f" (default {default})"
    return f"  --{name} {meta}{note}\n"


def usage(command=None) -> str:
    """The help text: the command list, or one command's options."""
    if command is None:
        rows = [f"  {name:<19}{line}\n" for name, (_, line, _) in COMMANDS.items()]
        return (USAGE.format("COMMAND", "Exact toric reduction data, kernel modules, and translated spectra.")
                + "commands:\n" + "".join(rows) + "\nCOMMAND --help lists its options.\n")
    _, text, options = COMMANDS[command]
    rows = [_option_help(name, *spec) for name, spec in options.items()]
    return USAGE.format(command, text) + "options:\n" + "".join(rows)


def parse_args(argv):
    """The namespace the handlers read, scanned from
    `[--format human|machine] COMMAND POLYTOPE [OPTIONS]`, or None once the
    help asked for by -h/--help is printed.  A value option takes the next
    token, whatever it starts with, and is parsed by its kind as it is read; a
    repeated option keeps its last value; names are matched in full.  Raises
    UsageError on any other malformed line, a malformed value included; its
    message names the option."""
    args = {"format": "machine"}
    options = {"format": (("human", "machine"), "machine")}  # until the command
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            sys.stdout.write(usage(args.get("command")))
            return None
        if tok[:1] != "-":
            if "command" not in args:
                if tok not in COMMANDS:
                    raise UsageError(f"unknown command '{tok}'")
                args["func"], _, options = COMMANDS[tok]
                args.update((name, default) for name, (_, default) in options.items())
                args.update(command=tok, polytope=REQUIRED)
            elif args["polytope"] is REQUIRED:
                args["polytope"] = tok
            else:
                raise UsageError(f"unexpected argument '{tok}'")
            continue
        name, eq, value = tok.partition("=")
        kind, _ = options.get(name[2:] if name[:2] == "--" else "", (None, None))
        if kind is None:
            raise UsageError(f"unknown option '{name}' for {args.get('command', 'toricspec')}")
        if kind is bool:
            if eq:
                raise UsageError(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{name} needs a value")
        if type(kind) is tuple:
            if value not in kind:
                raise UsageError(f"{name} must be one of {'|'.join(kind)}, got '{value}'")
        elif kind is not bool:
            try:
                value = kind(value)
            except ValueError as exc:
                raise UsageError(f"{name} needs an integer, got '{value}'" if kind is parse_integer
                                 else f"{name}: {exc}") from None
        args[name[2:]] = value
    if "command" not in args:
        raise UsageError("no command given")
    missing = ["POLYTOPE" if k == "polytope" else f"--{k}" for k, v in args.items() if v is REQUIRED]
    if missing:
        raise UsageError(f"{args['command']} needs {', '.join(missing)}")
    return SimpleNamespace(**args)


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args is None:
        return 0
    report = Report(args.format)
    if args.format == "human" and args.polytope:
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
