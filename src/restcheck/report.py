"""Check results: per-concept verdicts, diagnostics, and the two renderers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, SourceSpan, errors_first

SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schemaVersion", "model", "overall", "concepts", "diagnostics"],
    "additionalProperties": False,
    "properties": {
        "schemaVersion": {"const": SCHEMA_VERSION},
        "model": {"type": "string"},
        "overall": {"enum": ["consistent", "inconsistent", "invalid"]},
        "concepts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["element", "kind", "status", "line", "col"],
                "additionalProperties": False,
                "properties": {
                    "element": {"type": "string"},
                    "kind": {"enum": ["resource", "state"]},
                    "status": {"enum": ["sat", "unsat"]},
                    "line": {"type": "integer", "minimum": 0},
                    "col": {"type": "integer", "minimum": 0},
                },
            },
        },
        "diagnostics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["severity", "code", "message", "line", "col"],
                "additionalProperties": False,
                "properties": {
                    "severity": {"enum": ["error", "warning"]},
                    "code": {"type": "string"},
                    "message": {"type": "string"},
                    "line": {"type": "integer", "minimum": 0},
                    "col": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class ConceptVerdict:
    element: str
    kind: str  # "resource" or "state"
    satisfiable: bool
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CheckReport:
    model: str
    overall: str
    concepts: tuple[ConceptVerdict, ...]
    diagnostics: tuple[Diagnostic, ...]


def build_report(model_name: str, concepts: list[ConceptVerdict],
                 diagnostics: list[Diagnostic]) -> CheckReport:
    """Derive the overall verdict from the pieces.

    No concepts means reasoning never ran, so the input was invalid; any
    unsatisfiable concept makes the model inconsistent.
    """
    if not concepts:
        overall = "invalid"
    elif any(not c.satisfiable for c in concepts):
        overall = "inconsistent"
    else:
        overall = "consistent"
    return CheckReport(model_name, overall, tuple(concepts), tuple(diagnostics))


def render_text(report: CheckReport) -> str:
    lines: list[str] = []
    resources = [c for c in report.concepts if c.kind == "resource"]
    states = [c for c in report.concepts if c.kind == "state"]
    if report.overall == "consistent":
        if report.concepts:
            lines.append(f"CONSISTENT: {len(resources)} resources, "
                         f"{len(states)} states, all satisfiable")
        else:
            lines.append("VALID: model is well formed")
    elif report.overall == "inconsistent":
        bad = sum(1 for c in report.concepts if not c.satisfiable)
        lines.append(f"INCONSISTENT: {bad} of {len(report.concepts)} "
                     f"concepts unsatisfiable")
    else:
        lines.append("INVALID: input could not be checked")
    lines.extend(d.format() for d in errors_first(report.diagnostics))
    return "\n".join(lines) + "\n"


def render_json(report: CheckReport) -> str:
    def place(span: SourceSpan | None) -> tuple[int, int]:
        return (span.line, span.col) if span is not None else (0, 0)

    concepts = []
    for c in report.concepts:
        line, col = place(c.span)
        concepts.append({"element": c.element, "kind": c.kind,
                         "status": "sat" if c.satisfiable else "unsat",
                         "line": line, "col": col})
    diagnostics = []
    for d in report.diagnostics:
        line, col = place(d.span)
        diagnostics.append({"severity": d.severity.value, "code": d.code.value,
                            "message": d.message, "line": line, "col": col})
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "model": report.model,
        "overall": report.overall,
        "concepts": concepts,
        "diagnostics": diagnostics,
    }
    return json.dumps(doc, indent=2) + "\n"
