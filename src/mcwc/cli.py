"""Command-line front end.

Subcommands: verify, bound, asymptotic, construct, develop, search, table.
All invocations are deterministic.

Exit status:

* 0: every check passed;
* 1: a check failed: an INVALID row of ``verify``, an ERROR row for a file
  that does not parse or construct, or a BELOW-TARGET row of ``table``;
* 2: an error: a bad argument, or an input that is missing, unreadable or
  (outside ``verify``) malformed.  It is reported as one ``error: ...`` line
  (argparse's usage message for an option value that is not a number), never
  as a traceback.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import corpus
from .bounds import (
    asymptotic_point,
    best_of,
    gv_lower_bound,
    johnson_eq3,
    johnson_recursive,
    plotkin_bound,
    plotkin_discrete,
    spherical_bound,
    upper_bounds,
)
from .constructions import (
    develop,
    load_base_table,
    parse_base_table,
    parse_bibd,
    parse_decomposition,
    bibd_to_mcwc,
    decomposition_to_mcwc,
    concatenate,
    repetition_code,
    verify_bibd,
    verify_decomposition,
)
from .core import (
    CodeParameters,
    FormatError,
    McwcError,
    VerificationReport,
    _content_lines,
    _ints,
    _read_text,
    load_code,
    parse_code,
    save_code,
    verify_mcwc,
)
from .designs import (
    SkewSquare,
    fill_hole,
    load_square,
    mcwc_to_square,
    parse_gdd,
    parse_square,
    save_square,
    square_to_mcwc,
    verify_gdd,
    verify_square,
)
from .lp import delsarte_lp, format_lp, lp_bound
from .oracle import SearchConfig, max_mcwc


def _emit(rows: list[list], header: list[str], fmt: str) -> None:
    table = [header] + [[str(x) for x in row] for row in rows]
    if fmt == "tsv":
        for row in table:
            print("\t".join(row))
        return
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _rate_text(value: Decimal, dps: int) -> str:
    """A rate of at most ``dps`` digits, printed as mpmath printed it: zero as
    ``0.0``, no trailing zero but the one of ``.0``, and fixed point while the
    leading digit's position lies strictly between min(-(dps//3), -5) and
    dps, else ``d.ddde-7`` or ``d.ddde+2``."""
    fixed = min(-(dps // 3), -5) < value.adjusted() < dps
    text = format(value.normalize(Context(prec=dps)), "f" if fixed else "e")
    mantissa, e, exponent = text.partition("e")
    return mantissa + ("" if "." in mantissa else ".0") + e + exponent


def _int_list(text: str, flag: str) -> list[int]:
    return _ints(text.split(","), None, f"{flag} must be comma-separated integers")


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise McwcError(f"{flag} must be a rational such as 1/4, got {text!r}") from None


def _params_from_args(args) -> CodeParameters:
    if args.lengths or args.weights:
        if not (args.lengths and args.weights):
            raise McwcError("--lengths and --weights must be given together")
        lengths = _int_list(args.lengths, "--lengths")
        weights = _int_list(args.weights, "--weights")
        return CodeParameters(tuple(lengths), tuple(weights), args.d)
    if args.m is None or args.n is None or args.w is None:
        raise McwcError("give either --m/--n/--w or --lengths/--weights")
    return CodeParameters.uniform(args.m, args.n, args.w, args.d)


def _detect_kind(text: str) -> str:
    for _lineno, tokens in _content_lines(text):
        return tokens[0]
    raise FormatError("empty file")


def cmd_verify(args) -> int:
    rows = []
    ok = True
    for path in args.files:
        kind = "-"
        try:
            text = _read_text(path)
            kind = _detect_kind(text)
            if kind == "mcwc":
                code = parse_code(text)
                report = verify_mcwc(code)
                d = report.min_distance
                detail = f"size={len(code)} min_distance={'-' if d is None else d}"
            elif kind == "square":
                sq = parse_square(text)
                report = verify_square(sq)
                detail = f"kind={sq.kind.value} s={sq.s} v={sq.v} cells={sq.num_cells}"
            elif kind == "gdd":
                design = parse_gdd(text)
                report = verify_gdd(design)
                detail = f"points={design.num_points} groups={len(design.groups)} blocks={len(design.blocks)}"
            elif kind == "bibd":
                design = parse_bibd(text)
                report = verify_bibd(design)
                detail = f"v={design.v} k={design.k} lambda={design.lam} alpha={design.alpha}"
            elif kind == "decomp":
                dec = parse_decomposition(text)
                report = verify_decomposition(dec)
                detail = f"n={dec.n} m={dec.m} members={len(dec.members)}"
            elif kind == "develop":
                # raises unless the developed code verifies
                code = develop(parse_base_table(text))
                report = VerificationReport(True)
                n1, n2 = code.params.block_lengths
                detail = f"developed={len(code)} params=(2;{n1},{n2};2,2;6)"
            else:
                raise FormatError(f"unknown file kind {kind!r}")
        except McwcError as exc:
            rows.append([path, kind, "ERROR", str(exc)])
            ok = False
            continue
        rows.append([path, kind, "ok" if report.valid else "INVALID",
                     detail if report.valid else report.violation])
        ok = ok and report.valid
    _emit(rows, ["file", "kind", "status", "detail"], args.format)
    return 0 if ok else 1


_BOUND_FNS = {
    "johnson": johnson_recursive,
    "johnson-eq3": johnson_eq3,
    "plotkin": plotkin_bound,
    "plotkin-discrete": plotkin_discrete,
    "spherical": spherical_bound,
    "gv": gv_lower_bound,
    "lp": lp_bound,
}


def cmd_bound(args) -> int:
    # every row is computed on the one canonical form of the parameters
    params = _params_from_args(args).canonical()
    methods = list(_BOUND_FNS) + ["best"] if args.method == "all" else [args.method]
    # the upper bounds that 'best' weighs, each computed once; an LP outside
    # the gate is still computed for its own row
    table = upper_bounds(params) if args.method in ("all", "best") else {}
    lp_result = table.get("lp")
    rows = []
    for name in methods:
        if name == "best":
            result = best_of(table)
            rows.append(["best", result.value, f"via {result.method}"])
            continue
        result = table.get("johnson-recursive" if name == "johnson" else name)
        if result is None:
            try:
                result = _BOUND_FNS[name](params)
            except McwcError as exc:
                if name == "johnson":
                    raise  # johnson applies to every shape, so its error ends the command
                rows.append([name, "-", str(exc)])
                continue
        if name == "lp":
            lp_result = result
        # a gv row with a value is a lower bound; any row without one says why
        note = "lower bound" if name == "gv" and result.value is not None else ""
        rows.append([name, "-" if result.value is None else result.value,
                     note or result.certificate.get("reason", "")])
    if args.dump_lp:
        # the instance the lp row built, if it built one; else built here,
        # before any row is printed, so that a shape with no LP prints nothing
        lp = lp_result.certificate.get("lp") if lp_result else None
        if lp is None:
            lp, _labels = delsarte_lp(params)
    _emit(rows, ["method", "value", "note"], args.format)
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as fh:
            fh.write(format_lp(lp))
    return 0


def cmd_asymptotic(args) -> int:
    point = asymptotic_point(
        _fraction(args.delta, "--delta"), _fraction(args.omega, "--omega"), args.dps
    )
    rows = [
        ["mu_c", "-" if point.mu_c is None else _rate_text(point.mu_c, point.dps)],
        ["mu_gv", _rate_text(point.mu_gv, point.dps)],
        ["f", _rate_text(point.f, point.dps)],
    ]
    _emit(rows, ["function", f"value (dps={point.dps})"], args.format)
    return 0


def cmd_develop(args) -> int:
    table = load_base_table(args.file)
    code = develop(table)
    n1, n2 = code.params.block_lengths
    print(f"developed {len(code)} codewords, verified as MCWC(2,{n1};2,{n2};6)")
    if args.out:
        save_code(code, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_construct(args) -> int:
    if args.op == "fill-hole":
        if not (args.frame and args.filler):
            raise McwcError("construct fill-hole needs --frame and --filler")
    elif not args.input:
        raise McwcError(f"construct {args.op} needs an input file")
    suffix = ""
    if args.op == "square-to-code":
        result = square_to_mcwc(load_square(args.input))
    elif args.op == "code-to-square":
        result = mcwc_to_square(load_code(args.input))
    elif args.op == "fill-hole":
        result = fill_hole(load_square(args.frame), load_square(args.filler))
    elif args.op == "bibd":
        result = bibd_to_mcwc(parse_bibd(_read_text(args.input)))
        p = result.params
        suffix = f" as M({p.m},{p.block_lengths[0]},{p.distance},{p.block_weights[0]})"
    elif args.op == "decomp":
        if not args.weights:
            raise McwcError("--weights is required for decomp")
        weights = _int_list(args.weights, "--weights")
        dec = parse_decomposition(_read_text(args.input))
        result = decomposition_to_mcwc(dec, weights)
        suffix = f", distance {result.params.distance}"
    else:  # concat, the last of the parser's choices
        if not args.outer_repetition:
            raise McwcError("--outer-repetition is required for concat")
        outer = _int_list(args.outer_repetition, "--outer-repetition")
        if len(outer) != 2:
            raise McwcError("--outer-repetition takes two integers q,length")
        result = concatenate(load_code(args.input), repetition_code(*outer))
        suffix = f", distance >= {result.params.distance}"
    if isinstance(result, SkewSquare):
        print(f"{result.kind.value} square, side {result.s}, {result.v} points, verified")
        save = save_square
    else:
        print(f"code of size {len(result)}, verified{suffix}")
        save = save_code
    if args.out:
        save(result, args.out)
    return 0


def cmd_search(args) -> int:
    params = _params_from_args(args)
    result = max_mcwc(params, SearchConfig(vertex_cap=args.vertex_cap, node_budget=args.budget))
    status = "optimum" if result.complete else "lower-bound-only"
    print(f"{status} {result.size} (upper bound {result.upper_bound},"
          f" {result.nodes} nodes, {result.stop})")
    if args.emit_witness:
        save_code(result.witness, args.emit_witness)
        print(f"wrote {args.emit_witness}")
    return 0


def _table_achieved(n1: int, n2: int,
                    fillers: dict[int, SkewSquare]) -> tuple[Optional[int], str]:
    """Best verified code size for T(2,n1;2,n2;6), with its source tag.  The
    shipped file names say which source covers a cell: an explicit code, a
    base-codeword table, or a holey square HSAS(s=n2, v=n1; t, 3) whose hole
    takes the square of the explicit code (3, t).  ``fillers`` holds those
    squares by t, each built on first use."""
    if (n1, n2) in corpus.SMALL_PAIRS:
        code = corpus.small_code(n1, n2)
        verify_mcwc(code).require(f"shipped code ({n1},{n2}) is invalid")
        return len(code), "table"
    if n1 in corpus.DEVELOP_FAMILIES:
        return len(develop(corpus.develop_table(n1, n2))), "develop"
    for v, t, s in corpus.HSAS_SHAPES:
        if (v, s) == (n1, n2):
            if t not in fillers:
                fillers[t] = mcwc_to_square(corpus.small_code(3, t))
            square = fill_hole(corpus.hsas_square(v, t, s), fillers[t])
            return len(square_to_mcwc(square)), "hole-fill"
    return None, "none"


def cmd_table(args) -> int:
    if not args.n1 and args.n1_max < 3:
        raise McwcError(f"--n1-max must be at least 3, got {args.n1_max}")
    n1_values = _int_list(args.n1, "--n1") if args.n1 else list(range(3, args.n1_max + 1, 2))
    rows = []
    ok = True
    fillers: dict[int, SkewSquare] = {}  # the hole fillers of this command, by t
    for n1 in n1_values:
        if n1 < 3 or n1 % 2 == 0:
            raise McwcError(f"n1 must be odd and at least 3, got {n1}")
        for n2 in range(n1, 2 * n1, 2):
            # the Johnson-type bound; it equals best_upper_bound of
            # (n1, n2; 2, 2; 6), whose recursion would need ~2*n1 frames here
            target = (n2 * (n1 - 1)) // 4
            achieved, method = _table_achieved(n1, n2, fillers)
            if achieved is None:
                status = "open"
            elif (n1, n2) == (5, 7):
                status = "exceptional"  # proven optimum is one below the target
            elif achieved == target:
                status = "ok"
            else:
                status = "BELOW-TARGET"
                ok = False
            rows.append([n1, n2, target, "-" if achieved is None else achieved, method, status])
    _emit(rows, ["n1", "n2", "target", "achieved", "method", "status"], args.format)
    return 0 if ok else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mcwc",
        description="multiply constant-weight codes: bounds, constructions, search",
    )
    parser.add_argument("--format", choices=["text", "tsv"], default="text", help="output format")
    # after a command, --format overrides the one before it; left out, it
    # leaves that one (or the default) in place
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["text", "tsv"], default=argparse.SUPPRESS, help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify code/square/design files", parents=[common])
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_verify)

    def add_params(p):
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--w", type=int)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--lengths", help="comma-separated block lengths")
        p.add_argument("--weights", help="comma-separated block weights")

    p = sub.add_parser("bound", help="compute size bounds", parents=[common])
    add_params(p)
    p.add_argument(
        "--method", choices=list(_BOUND_FNS) + ["best", "all"], default="all"
    )
    p.add_argument("--dump-lp", help="write the LP instance to this file")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("asymptotic", help="asymptotic rate functions", parents=[common])
    p.add_argument("--delta", required=True, help="rational, e.g. 1/4")
    p.add_argument("--omega", required=True, help="rational, e.g. 1/2")
    p.add_argument("--dps", type=int, default=30)
    p.set_defaults(fn=cmd_asymptotic)

    p = sub.add_parser("develop", help="develop a base-codeword table", parents=[common])
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_develop)

    p = sub.add_parser("construct", help="run a construction", parents=[common])
    p.add_argument(
        "op",
        choices=[
            "square-to-code",
            "code-to-square",
            "fill-hole",
            "bibd",
            "decomp",
            "concat",
        ],
    )
    p.add_argument("input", nargs="?")
    p.add_argument("--frame")
    p.add_argument("--filler")
    p.add_argument("--weights")
    p.add_argument("--outer-repetition", help="q,length for a repetition outer code")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="exact optimum for small parameters", parents=[common])
    add_params(p)
    p.add_argument("--budget", type=int, default=SearchConfig.node_budget)
    p.add_argument("--vertex-cap", type=int, default=SearchConfig.vertex_cap)
    p.add_argument("--emit-witness")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("table", help="lower/upper summary for two blocks of weight 2", parents=[common])
    p.add_argument("--n1", help="comma-separated odd n1 values")
    p.add_argument("--n1-max", type=int, default=21)
    p.set_defaults(fn=cmd_table)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (McwcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
