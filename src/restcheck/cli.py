"""Command line front end.

Exit codes: 0 model checks out, 1 some concept is unsatisfiable, 2 the input
is invalid (syntax or structural errors), 3 an I/O problem, 4 the two
decision procedures disagreed.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import checker, owl
from .diagnostics import errors_first
from .oracle import ORACLE_MAX_DOMAIN
from .report import render_json, render_text

_ORACLE_SPEC = re.compile(r"bounded:([0-9]+)\Z")


def _oracle_arg(value: str) -> int:
    m = _ORACLE_SPEC.match(value)
    if m is None:
        raise argparse.ArgumentTypeError(
            f"expected 'bounded:k' with k between 1 and {ORACLE_MAX_DOMAIN}, "
            f"got {value!r}")
    k = int(m.group(1))
    if not 1 <= k <= ORACLE_MAX_DOMAIN:
        raise argparse.ArgumentTypeError(
            f"oracle bound must be between 1 and {ORACLE_MAX_DOMAIN}, got {k}")
    return k


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restcheck",
        description="Check REST resource and behavioral models for "
                    "structural and logical consistency.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="parse a model file and run the structural checks")
    validate.add_argument("file", help="model file to read")
    validate.add_argument("--format", choices=["text", "json"], default="text",
                          help="report format (default: text)")
    validate.add_argument("-o", "--output", metavar="PATH",
                          help="write the report here instead of stdout")

    translate = sub.add_parser(
        "translate", help="translate a model file into an ontology document")
    translate.add_argument("file", help="model file to read")
    translate.add_argument("-o", "--output", metavar="PATH",
                          help="write the ontology here instead of stdout")
    translate.add_argument("--base-iri", default=owl.DEFAULT_BASE_IRI,
                           help=f"ontology IRI prefix (default: {owl.DEFAULT_BASE_IRI})")

    check = sub.add_parser(
        "check", help="validate, translate and decide satisfiability of "
                      "every resource and state")
    check.add_argument("file", help="model file to read")
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (default: text)")
    check.add_argument("-o", "--output", metavar="PATH",
                       help="write the report here instead of stdout")
    check.add_argument("--base-iri", default=owl.DEFAULT_BASE_IRI,
                       help=f"ontology IRI prefix (default: {owl.DEFAULT_BASE_IRI})")
    check.add_argument("--oracle", type=_oracle_arg, metavar="bounded:k",
                       default=None,
                       help="also run the bounded model search up to domain "
                            f"size k (1..{ORACLE_MAX_DOMAIN}), grounded once per size "
                            "and queried per class, and fail on disagreement")
    return parser


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"restcheck: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None


def _emit(text: str, output: str | None) -> bool:
    if output is None:
        sys.stdout.write(text)
        return True
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return True
    except OSError as exc:
        print(f"restcheck: cannot write {output}: {exc.strerror}", file=sys.stderr)
        return False


def _print_diagnostics(diagnostics) -> None:
    for d in errors_first(diagnostics):
        print(d.format(), file=sys.stderr)


def _emit_report(outcome: checker.CheckOutcome, fmt: str,
                 output: str | None) -> int:
    if fmt == "json":
        rendered = render_json(outcome.report)
        # keep stderr useful when stdout carries machine-readable output
        _print_diagnostics(outcome.report.diagnostics)
    else:
        rendered = render_text(outcome.report)
    for line in outcome.disagreements:
        print(f"restcheck: oracle disagreement on {line}", file=sys.stderr)
    if not _emit(rendered, output):
        return checker.EXIT_IO
    return outcome.exit_code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    text = _read(args.file)
    if text is None:
        return checker.EXIT_IO

    if args.command == "validate":
        outcome = checker.validate_model(text, args.file)
        return _emit_report(outcome, args.format, args.output)

    if args.command == "translate":
        document, diagnostics, code = checker.translate_model(
            text, args.file, base_iri=args.base_iri)
        _print_diagnostics(diagnostics)
        if document is None:
            return code
        if not _emit(document, args.output):
            return checker.EXIT_IO
        return code

    outcome = checker.check_model(text, args.file, base_iri=args.base_iri,
                                  oracle_bound=args.oracle)
    return _emit_report(outcome, args.format, args.output)

