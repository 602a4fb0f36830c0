"""Command-line interface.

Subcommands: tableaux, idempotent, verify, bratteli, jm, mul.  Output is
machine-readable JSON with deterministic ordering; --pretty on `idempotent`
switches to a human display that is not meant to be parsed, and excludes
--check.  Usage and input errors, requests above the size bounds among them,
exit with 2, computation failures (uncancelled poles, non-generic h,
non-semisimple parameter) with 1, both carrying a structured error object.
A reader that closes stdout early ends the process with 1 and nothing on
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .diagrams import _TABLE_MAX_SITES, Shape
from .errors import (
    IllegalMove,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
    TooLarge,
    WbaError,
)
from .scalars import parse_scalar

# Each subcommand imports the layers it uses when it runs, so a process pays
# only for those: `tableaux` never loads the algebra, `jm` and `mul` never
# load fusion, and only `verify`, `--check` and `--method interp` load the
# certification layer.

_USAGE_ERRORS = (ParseError, IllegalMove, IndexOutOfRange, ShapeMismatch, TooLarge)

# Size bounds, so that no input runs without end.  On a 2-core machine the
# largest Bratteli graph, (12,12), builds in about 3 s and the largest
# printed one, (10,10), prints in about 4 s; the largest listing, the 2620
# paths of a 9-site shape, takes about 2 s.  One fusion of a (4,4) path
# takes about 0.65 s; verify goes up to the 7-site shapes, the largest it
# is meant to certify.  Checking e*e = e and orthogonality (`idempotent
# --check`, `verify --suite all` and `system`) stops at the tabulated
# 6-site shapes: a 7-site idempotent has 5040 terms, and squaring it alone
# takes minutes.  The largest product mul accepts has the 720 x 720 term
# pairs of two full 6-site elements; it takes about 0.4 s on a 6-site shape,
# whose table it builds, and about 6 s on a 7-site one, which has no
# composition table.
_MAX_GRAPH_SITES = 24
_MAX_PRINTED_GRAPH_SITES = 20
_MAX_LISTED_PATHS = 5_000
_MAX_FUSED_SITES = 8
_MAX_CERTIFIED_SITES = 7
_MAX_CHECKED_SITES = _TABLE_MAX_SITES
_MAX_MUL_TERM_PAIRS = 720 * 720


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _error_json(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _rational(text: str) -> Fraction:
    """A rational number, written as an integer or a fraction such as -3/2."""
    value = parse_scalar(text)
    if len(value.num) > 1 or len(value.den) > 1:
        raise ParseError(f"not a rational number: {text!r}")
    return Fraction(value.num[0] if value.num else 0, value.den[0])


def _bounded_shape(args, max_sites: int) -> Shape:
    shape = Shape(args.r, args.s)
    if shape.n > max_sites:
        raise TooLarge(
            f"shape ({shape.r}, {shape.s}) has {shape.n} sites, more than {max_sites}"
        )
    return shape


def _load_json(fh, name: str):
    try:
        return json.load(fh)
    except ValueError as exc:
        raise ParseError(f"{name} does not hold JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{name} nests its JSON too deeply") from exc


def cmd_tableaux(args) -> int:
    from .tableaux import bratteli, enumerate_tableaux

    shape = _bounded_shape(args, _MAX_GRAPH_SITES)
    count = bratteli(shape).path_count()
    if args.count:
        print(count)
        return 0
    if count > _MAX_LISTED_PATHS:
        raise TooLarge(f"{count} tableaux, more than the {_MAX_LISTED_PATHS} a listing prints")
    tableaux = enumerate_tableaux(shape)
    _emit(
        {
            "r": shape.r,
            "s": shape.s,
            "count": len(tableaux),
            "tableaux": [
                {
                    "moves": t.moves_str(),
                    "contents": [str(c) for c in t.contents()],
                    "final": {
                        "left": list(t.final.left.parts),
                        "right": list(t.final.right.parts),
                    },
                }
                for t in tableaux
            ],
        }
    )
    return 0


def cmd_idempotent(args) -> int:
    from .algebra import element_to_json, element_to_text
    from .fusion import DEFAULT_H, fusion_idempotent, idempotent_by
    from .tableaux import is_semisimple, parse_tableau

    shape = _bounded_shape(args, _MAX_CHECKED_SITES if args.check else _MAX_FUSED_SITES)
    if args.delta_rational is not None:
        value = _rational(args.delta_rational)
        if not is_semisimple(shape.r, shape.s, value):
            raise WbaError(
                f"refusing fusion: the algebra is not semisimple at d = {value}"
            )
    t = parse_tableau(args.tableau, shape)
    h = DEFAULT_H if args.h is None else parse_scalar(args.h)
    element = idempotent_by(t, args.method, args.variant, h)
    if args.pretty:
        print(element_to_text(element))
        return 0
    payload = {"element": element_to_json(element)}
    if args.check:
        from .verify import certify_tableau

        cert = certify_tableau(t, element, h=h)
        payload["certification"] = {
            "idempotent": cert.idempotent,
            "jm_spectrum": cert.jm_spectrum,
            "iota_fixed": cert.iota_fixed,
            "methods_agree": {
                "first": args.method == "first" or fusion_idempotent(t) == element,
                "interp": cert.interp_agrees,
                "second_fwd": cert.second_fwd_agrees,
                "second_mirror": cert.second_mirror_agrees,
            },
        }
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    from .tableaux import is_semisimple
    from .verify import full_report

    checked = args.suite in ("all", "system")
    shape = _bounded_shape(args, _MAX_CHECKED_SITES if checked else _MAX_CERTIFIED_SITES)
    delta = None if args.delta_rational is None else _rational(args.delta_rational)
    report = full_report(shape, seed=args.seed, suite=args.suite)
    obj = report.to_json()
    if delta is not None:
        obj["semisimple_at_delta"] = is_semisimple(shape.r, shape.s, delta)
    _emit(obj)
    return 0 if report.ok else 1


def cmd_bratteli(args) -> int:
    from .tableaux import bratteli

    graph = bratteli(_bounded_shape(args, _MAX_PRINTED_GRAPH_SITES))
    if args.format == "dot":
        print(graph.to_dot())
    else:
        _emit(graph.to_json())
    return 0


def cmd_jm(args) -> int:
    from .algebra import element_to_json, jm_element

    _emit(element_to_json(jm_element(_bounded_shape(args, _MAX_GRAPH_SITES), args.k)))
    return 0


def cmd_mul(args) -> int:
    from .algebra import element_from_json, element_to_json

    if args.files and args.files != ["-"]:
        if len(args.files) != 2:
            raise ParseError("mul expects exactly two element files or '-'")
        docs = []
        for path in args.files:
            try:
                with open(path) as fh:
                    docs.append(_load_json(fh, path))
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    else:
        docs = _load_json(sys.stdin, "stdin")
        if not isinstance(docs, list) or len(docs) != 2:
            raise ParseError("stdin must carry a JSON array of two elements")
    a = element_from_json(docs[0])
    b = element_from_json(docs[1])
    pairs = len(a.terms) * len(b.terms)
    if pairs > _MAX_MUL_TERM_PAIRS:
        raise TooLarge(
            f"a product of {pairs} term pairs, more than {_MAX_MUL_TERM_PAIRS}"
        )
    _emit(element_to_json(a * b))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError; its
    subparsers share the class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wba",
        description="Exact idempotent systems for the walled Brauer algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape(p):
        p.add_argument("r", type=int)
        p.add_argument("s", type=int)

    p = sub.add_parser("tableaux", help="enumerate walled tableaux")
    add_shape(p)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("idempotent", help="fuse the idempotent of a path")
    add_shape(p)
    p.add_argument("--tableau", required=True, help="move list, e.g. 'L+1,1;L-1,1'")
    p.add_argument("--method", choices=["first", "second", "interp"], default="first")
    p.add_argument("--variant", choices=["fwd", "mirror"], default="fwd")
    p.add_argument("--h", help="free parameter for the second procedure, e.g. '3*d+1/2'")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--check", action="store_true", help="append a certification block")
    output.add_argument("--pretty", action="store_true", help="human display, not parseable")
    p.add_argument("--delta-rational", help="refuse fusion unless semisimple at this d")
    p.set_defaults(func=cmd_idempotent)

    p = sub.add_parser("verify", help="certify a shape")
    add_shape(p)
    p.add_argument(
        "--suite",
        choices=["all", "system", "lemmas", "yang-baxter", "exponents"],
        default="all",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-rational", help="also report semisimplicity at this d")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bratteli", help="emit the branching graph")
    add_shape(p)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    p.set_defaults(func=cmd_bratteli)

    p = sub.add_parser("jm", help="emit a Jucys-Murphy element")
    add_shape(p)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_jm)

    p = sub.add_parser("mul", help="multiply two elements (files or stdin array)")
    p.add_argument("files", nargs="*", help="two element JSON files, or '-' for stdin")
    p.set_defaults(func=cmd_mul)

    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _emit(_error_json(exc))
        return 2
    except WbaError as exc:
        _emit(_error_json(exc))
        return 1


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
