"""Checks of one model's outcome against the answer known by construction.

Each function returns a list of problems; an empty list means the outcome is
correct.  They run outside the timed region.
"""

from __future__ import annotations

import json

import jsonschema

from restcheck import checker, oracle, owl, reasoner, report

_SCHEMA = jsonschema.Draft202012Validator(report.REPORT_SCHEMA)
_OVERALL = {checker.EXIT_CONSISTENT: "consistent",
            checker.EXIT_INCONSISTENT: "inconsistent"}


def _schema_problems(rep) -> list[str]:
    doc = json.loads(report.render_json(rep))
    return [f"report breaks the schema: {e.message}" for e in _SCHEMA.iter_errors(doc)]


def check_outcome(case, outcome) -> list[str]:
    """Exit code, per-concept verdicts and the JSON report of `check_model`."""
    problems: list[str] = []
    if outcome.exit_code != case.exit_code:
        problems.append(f"exit code {outcome.exit_code}, expected {case.exit_code}")
    if outcome.report.overall != _OVERALL.get(case.exit_code):
        problems.append(f"overall '{outcome.report.overall}'")
    got = tuple((c.kind, c.element, c.satisfiable) for c in outcome.report.concepts)
    if got != case.expected:
        wrong = [f"{kind} {name}" for (kind, name, sat) in case.expected
                 if (kind, name, sat) not in got]
        problems.append(f"wrong verdicts: {', '.join(wrong) or 'concept list differs'}")
    problems += [f"oracle disagreement: {d}" for d in outcome.disagreements]
    return problems + _schema_problems(outcome.report)


def check_witnesses(case, outcome, results: dict | None = None) -> list[str]:
    """Every SAT concept's tableau witness must be a model of the ontology.

    `results` maps class fragments to `SatResult`s already computed; the
    others are decided again through the public reasoner API.
    """
    results = results or {}
    tbox = None
    problems: list[str] = []
    for fragment, entry in outcome.iris.classes.items():
        if (entry.kind.value, entry.name, True) not in case.expected:
            continue
        result = results.get(fragment)
        if result is None:
            tbox = tbox or reasoner.compile_tbox(outcome.ontology)
            result = reasoner.is_satisfiable(tbox, fragment)
        w = result.witness
        if not result.sat or w is None or not w.faithful:
            problems.append(f"{entry.name}: no faithful witness")
            continue
        fm = oracle.FiniteModel(w.size, w.classes, w.roles, w.values)
        broken = oracle.violations(fm, outcome.ontology)
        if broken:
            problems.append(f"{entry.name}: witness {broken[0]}")
        elif not oracle.eval_expr(fm, owl.Named(fragment), 0):
            problems.append(f"{entry.name}: witness root is not in the class")
    return problems


def check_frontend(case, validated, translated, round_trip: bool) -> list[str]:
    """`validate_model` accepts the model, `translate_model` declares every
    class, and with `round_trip` its document re-parses and re-serializes
    identically."""
    problems: list[str] = []
    if validated.exit_code != checker.EXIT_CONSISTENT:
        problems.append(f"validate exit code {validated.exit_code}")
    problems += _schema_problems(validated.report)
    document, _, code = translated
    if code != checker.EXIT_CONSISTENT or document is None:
        return problems + [f"translate exit code {code}"]
    classes = document.count("Declaration(Class(")
    if classes != case.concepts:
        problems.append(f"{classes} classes declared, expected {case.concepts}")
    if round_trip and owl.serialize(owl.parse_functional_syntax(document, case.name)) != document:
        problems.append("ontology does not re-serialize identically")
    return problems
