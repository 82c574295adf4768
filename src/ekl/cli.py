"""Command-line surface.

Commands:
  ekl degree <file>                 EKL degree of a map from a MapSpec JSON file
  ekl quotient --type ...           build a quotient-map family member and run it
  ekl weyl ap --type T --remove N   self-dual coset count a_P
  ekl weyl info --type T            root system summary
  ekl gw classify <file>            classify a Gram matrix from JSON

Exit codes: 0 success, 1 internal error, 2 a bad flag, an input file that
cannot be read, parsed or validated, or an unwritable --emit-map path, 3 to
6 the library failures in ``FAILURES``, 141 stdout closed by its reader (as
a death by SIGPIPE would).  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .degree import (
    EKLResult,
    MapSpec,
    NotSupportedAtOriginError,
    ZeroSocleError,
    degree_class,
    ekl_degree,
)
from .gw import (
    DegenerateFormError,
    GramForm,
    GWClass,
    classify,
    gw_equal,
    recognize_units,
    render_class,
    render_diagonal,
    render_units,
    units_class,
)
from .localg import InfiniteQuotientError, UnitIdealError
from .poly import format_monomial
from .quotmap import (
    QuotientSpec,
    build_D_full,
    build_D_odd_partial,
    build_Sn_full,
    build_quotient,
    build_typeA_partial,
    build_typeBC_full,
    expected_gw,
)
from .scalar import QQ, GF, FactorBoundError, PrimeField
from .weyl import (
    EnumerationBudgetError,
    ParabolicSpec,
    build_root_system,
    compute_aP,
    enum_budget,
    is_central_longest,
    longest_element,
    parabolic_order_formula,
    parabolic_type_name,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE

#: Library failures: (exception class, exit code, message prefix), checked
#: in order.  Any other exception is an internal error (exit 1), so that
#: bugs and failed theorem checks stay visible.
FAILURES = (
    (NotSupportedAtOriginError, 3, "not supported at origin"),
    (InfiniteQuotientError, 3, "not supported at origin"),
    (UnitIdealError, 3, "empty fiber"),
    (ZeroSocleError, 4, "degenerate form"),
    (DegenerateFormError, 4, "degenerate form"),
    (FactorBoundError, 5, "factor bound exceeded"),
    (EnumerationBudgetError, 6, "budget exceeded"),
)


class _InputError(Exception):
    """A bad flag, input file or output path; ``main`` exits 2 with the message."""


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_field(text: str):
    """The field named by ``--field``."""
    try:
        if text == "q":
            return QQ
        if text.startswith("fp:"):
            return GF(int(text[3:]))
        raise ValueError(f"unknown field {text!r}; use 'q' or 'fp:<prime>'")
    except ValueError as exc:
        raise _InputError(f"error: {exc}") from exc


def _read_input(path: str, parse):
    """``parse`` applied to the text of the file at ``path``; any failure to
    read, parse or validate it is a parse error (JSONDecodeError and
    poly.ParseError are ValueErrors)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except (OSError, KeyError, TypeError, ZeroDivisionError, ValueError) as exc:
        raise _InputError(f"parse error: {exc}") from exc


# ---------------------------------------------------------------------------
# reports

def _class_invariants(c: GWClass) -> dict:
    if isinstance(c.field, PrimeField):
        return {
            "field": f"fp:{c.field.p}",
            "rank": str(c.rank),
            "discriminant_is_square": "true" if c.disc_legendre == 1 else "false",
        }
    return {
        "field": "q",
        "rank": str(c.rank),
        "signature": str(c.signature),
        "discriminant": str(c.discriminant),
        "hasse": {str(v): str(s) for v, s in (c.hasse or ())},
    }


def _hasse_line(hasse: dict) -> str:
    """The ``hasse`` entry of ``_class_invariants``, sorted by the place's string."""
    if not hasse:
        return "trivial at every place"
    return ", ".join(f"({v}) -> {s}" for v, s in sorted(hasse.items()))


def _degree_report(spec: MapSpec, result: EKLResult, elapsed: float) -> dict:
    """The ``--format json`` report: strings, and null for a missing named form."""
    qp, cls = result.quotient, result.gw_class
    shape = recognize_units(cls)
    return {
        "input": {
            "variables": list(spec.ring),
            "components": spec.component_texts(),
        },
        "dimension": str(qp.dimension),
        "standard_monomials": [
            format_monomial(m, qp.ring) for m in qp.standard_monomials
        ],
        "socle_coordinates": [str(c) for c in result.socle.coordinates],
        "socle": str(result.socle),
        "jacobian_coordinates": [str(c) for c in result.jacobian.coordinates],
        "jacobian": str(result.jacobian),
        "diagonal": [str(d) for d in cls.diagonal],
        "invariants": _class_invariants(cls),
        "named_form": None if shape is None else render_units(cls, shape),
        "timing_seconds": f"{elapsed:.3f}",
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_degree(args) -> int:
    field = _parse_field(args.field)
    spec = _read_input(args.mapfile, lambda text: MapSpec.from_json(text, field))
    # named and invariants print only the class, so the map may lose its
    # solved coordinates
    if args.format == "named":
        cls = degree_class(spec)[1]
        print(render_units(cls, recognize_units(cls)))
    elif args.format == "invariants":
        inv = _class_invariants(degree_class(spec)[1])
        print(f"rank {inv['rank']}")
        if "signature" in inv:
            print(f"signature {inv['signature']}")
            print(f"discriminant {inv['discriminant']}")
            print(f"hasse {_hasse_line(inv['hasse'])}")
        else:
            print(f"discriminant square: {inv['discriminant_is_square']}")
    else:
        started = time.perf_counter()
        result = ekl_degree(spec)
        elapsed = time.perf_counter() - started
        if args.format == "json":
            print(json.dumps(_degree_report(spec, result, elapsed), indent=2))
        else:
            print(render_diagonal(result.gw_class))
    return EXIT_OK


#: The flags each ``quotient --type`` takes besides --field and --emit-map.
QUOTIENT_FLAGS = {
    "A": ("blocks",),
    "Sn": ("n",),
    "B": ("rank", "blocks"),
    "C": ("rank", "blocks"),
    "D": ("rank", "blocks", "parabolic"),
}


def _build_quotient_spec(args) -> QuotientSpec:
    field = _parse_field(args.field)
    for flag in ("blocks", "n", "rank", "parabolic"):
        if getattr(args, flag) is not None and flag not in QUOTIENT_FLAGS[args.type]:
            raise ValueError(f"--type {args.type} does not take --{flag}")
    if args.parabolic is not None and args.blocks is not None:
        raise ValueError("--parabolic and --blocks exclude each other")
    blocks = _parse_nodes("--blocks", "block sizes", args.blocks) if args.blocks else None
    if args.type == "A":
        if blocks is None:
            raise ValueError("--type A requires --blocks")
        return build_typeA_partial(blocks, field)
    if args.type == "Sn":
        if args.n is None:
            raise ValueError("--type Sn requires --n")
        return build_Sn_full(args.n, field)
    if args.rank is None:
        raise ValueError(f"--type {args.type} requires --rank")
    if blocks is not None:
        family = f"{args.type}{args.rank}-partial"
        return build_quotient(args.type, blocks, args.rank - sum(blocks), field, family=family)
    if args.type in ("B", "C"):
        return build_typeBC_full(args.rank, field)
    if args.parabolic is None:
        return build_D_full(args.rank, field)
    if args.parabolic.upper() != f"D{args.rank - 1}" or args.rank % 2 == 0 or args.rank < 5:
        raise ValueError(
            "the supported partial family is odd rank r over --parabolic D(r-1), r >= 5"
        )
    return build_D_odd_partial((args.rank - 1) // 2, field)


def cmd_quotient(args) -> int:
    try:
        spec = _build_quotient_spec(args)
        shape = expected_gw(spec)
    except ValueError as exc:
        raise _InputError(f"error: {exc}") from exc
    if args.emit_map:
        comment = f"family={spec.family} parameters={','.join(map(str, spec.parameters))}"
        try:
            with open(args.emit_map, "w", encoding="utf-8") as handle:
                handle.write(spec.map.to_json(comment=comment))
        except OSError as exc:
            raise _InputError(f"error: {exc}") from exc
        print(f"wrote {args.emit_map}", file=sys.stderr)
    started = time.perf_counter()
    dimension, computed = degree_class(spec.map)
    units = recognize_units(computed)
    elapsed = time.perf_counter() - started

    print(f"family: {spec.describe()}")
    print(f"expected degree: {spec.expected_degree}")
    print(f"quotient dimension: {dimension}")
    verdict = "MISMATCH"
    alpha_note = ""
    if isinstance(computed.field, PrimeField):
        predicted_text = f"rank {shape.rank} nondegenerate over {computed.field!r}"
        if computed.rank == shape.rank:
            verdict = "MATCH"
    elif shape.residual_count == 0:
        predicted = units_class(shape.ones, shape.minus_ones, (), computed.field)
        predicted_text = render_class(predicted)
        if gw_equal(predicted, computed):
            verdict = "MATCH"
    else:
        predicted_text = (
            f"{shape.ones}<1> + {shape.minus_ones}<-1> + "
            f"{shape.residual_count}<alpha> for a single square class alpha"
        )
        if units is not None:
            residual = units.residual
            if len(residual) == shape.residual_count and units.ones == shape.ones:
                alpha_note = f"alpha = {residual[0].rep}"
                verdict = "MATCH"
            elif not residual:
                # an alpha of square class 1 is absorbed into the unit count
                if (
                    units.ones == shape.ones + shape.residual_count
                    and units.minus_ones == shape.minus_ones
                ):
                    alpha_note = "alpha = 1"
                    verdict = "MATCH"
    print(f"computed: {render_units(computed, units)}")
    print(f"predicted: {predicted_text}")
    if alpha_note:
        print(alpha_note)
    print(f"verdict: {verdict}")
    print(f"timing_seconds: {elapsed:.3f}")
    return EXIT_OK if verdict == "MATCH" else EXIT_INTERNAL


def _parse_nodes(flag: str, noun: str, text: str) -> list[int]:
    """The comma-separated ints that ``flag`` takes, skipping empty tokens."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated {noun}, got {text!r}") from None


def _root_system(text: str):
    """The root system named by ``--type``: a letter and a rank in decimal
    digits, such as ``E6``."""
    letter, digits = text[:1], text[1:]
    if not (letter.isalpha() and digits.isascii() and digits.isdigit()):
        raise _InputError(f"error: invalid root system {text!r}")
    try:
        return build_root_system(letter.upper(), int(digits))
    except ValueError as exc:
        raise _InputError(f"error: {exc}") from exc


def cmd_weyl_ap(args) -> int:
    rs = _root_system(args.type)
    try:
        if args.keep is not None:
            spec = ParabolicSpec.keep(_parse_nodes("--keep", "node numbers", args.keep))
        else:
            spec = ParabolicSpec.remove(rs, _parse_nodes("--remove", "node numbers", args.remove))
        spec.validate(rs)
        if not spec.is_proper(rs):
            raise ValueError("the parabolic must be proper")
        budget = enum_budget()
    except ValueError as exc:
        raise _InputError(f"error: {exc}") from exc

    order = rs.order
    sub_order = parabolic_order_formula(rs, spec)
    name = parabolic_type_name(rs, spec)
    print(f"group: {rs.type_label}{rs.rank}, order {order}")
    print(f"parabolic: keep {sorted(spec.kept_nodes)} ({name}), order {sub_order}")
    print(f"cosets: {order // sub_order}")
    a_p = compute_aP(rs, spec, method=args.method, budget=budget)
    print(f"a_P: {a_p}")
    shortcut = args.method == "auto" and is_central_longest(rs)
    print(f"shortcut: {'central longest word, no enumeration' if shortcut else 'not used'}")
    return EXIT_OK


def cmd_weyl_info(args) -> int:
    rs = _root_system(args.type)
    print(f"type: {rs.type_label}{rs.rank}")
    print(f"order: {rs.order}")
    print(f"positive roots: {rs.npos}")
    print(f"longest word length: {len(longest_element(rs))}")
    print(f"longest word central: {'yes' if is_central_longest(rs) else 'no'}")
    return EXIT_OK


def cmd_gw_classify(args) -> int:
    field = _parse_field(args.field)
    gram = _read_input(args.gramfile, lambda text: GramForm.from_rows(json.loads(text), field))
    cls = classify(gram)
    print(f"diagonal: {render_diagonal(cls)}")
    for key, value in _class_invariants(cls).items():
        print(f"{key}: {_hasse_line(value) if key == 'hasse' else value}")
    shape = recognize_units(cls)
    if shape is not None:
        print(f"named form: {render_units(cls, shape)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

@functools.cache  # parse_args leaves the parser unchanged, so main reuses one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekl",
        description="Exact local degrees, quadratic form classification, Weyl coset counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_degree = sub.add_parser("degree", help="EKL degree of a map at the origin")
    p_degree.add_argument("mapfile")
    p_degree.add_argument("--field", default="q", help="q or fp:<prime>")
    p_degree.add_argument(
        "--format", default="named", choices=["named", "diag", "invariants", "json"]
    )
    p_degree.set_defaults(func=cmd_degree)

    p_quot = sub.add_parser("quotient", help="build and run a quotient-map family member")
    p_quot.add_argument("--type", required=True, choices=["A", "B", "C", "D", "Sn"])
    p_quot.add_argument("--blocks", help="comma-separated block sizes (types A, B, C, D)")
    p_quot.add_argument("--n", type=int, help="number of variables (type Sn)")
    p_quot.add_argument("--rank", type=int, help="rank (types B, C, D)")
    p_quot.add_argument("--parabolic", help="partial quotient subgroup, e.g. D4")
    p_quot.add_argument("--field", default="q")
    p_quot.add_argument("--emit-map", help="also write the MapSpec JSON here")
    p_quot.set_defaults(func=cmd_quotient)

    p_weyl = sub.add_parser("weyl", help="root system and coset computations")
    weyl_sub = p_weyl.add_subparsers(dest="weyl_command", required=True)

    p_ap = weyl_sub.add_parser("ap", help="self-dual coset count a_P")
    p_ap.add_argument("--type", required=True, help="e.g. A3, D5, E6")
    group = p_ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--keep", help="comma-separated kept nodes")
    group.add_argument("--remove", help="comma-separated removed nodes")
    p_ap.add_argument("--method", default="auto", choices=["auto", "enumerate"])
    p_ap.set_defaults(func=cmd_weyl_ap)

    p_info = weyl_sub.add_parser("info", help="root system summary")
    p_info.add_argument("--type", required=True)
    p_info.set_defaults(func=cmd_weyl_info)

    p_gw = sub.add_parser("gw", help="quadratic form utilities")
    gw_sub = p_gw.add_subparsers(dest="gw_command", required=True)
    p_classify = gw_sub.add_parser("classify", help="classify a Gram matrix")
    p_classify.add_argument("gramfile")
    p_classify.add_argument("--field", default="q")
    p_classify.set_defaults(func=cmd_gw_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (as ``| head`` does).  Point stdout at
        # devnull so that the interpreter's final flush prints nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _InputError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except Exception as exc:
        for cls, code, prefix in FAILURES:
            if isinstance(exc, cls):
                return _fail(code, f"{prefix}: {exc}")
        return _fail(EXIT_INTERNAL, f"internal error: {str(exc) or type(exc).__name__}")


if __name__ == "__main__":
    sys.exit(main())
