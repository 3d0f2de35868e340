"""The full checking pipeline.

Parse, validate, translate, classify with the tableau engine, and optionally
cross-check every verdict against the bounded model search.  The two decision
procedures are independent, so a disagreement between them is reported as its
own failure mode instead of silently trusting either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dsl, oracle, owl, reasoner, translate
from .diagnostics import Code, Diagnostic, ParseError, error, has_errors
from .model import (BehavioralModel, ResourceModel, validate_behavioral_model,
                    validate_resource_model)
from .report import CheckReport, ConceptVerdict, build_report

EXIT_CONSISTENT = 0
EXIT_INCONSISTENT = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_DISAGREEMENT = 4


@dataclass(frozen=True)
class CheckOutcome:
    report: CheckReport
    exit_code: int
    ontology: owl.Ontology | None = field(default=None, compare=False)
    iris: translate.IriMap | None = field(default=None, compare=False)
    disagreements: tuple[str, ...] = ()


def _parse(text: str, file_name: str
           ) -> tuple[ResourceModel | None, BehavioralModel | None, list[Diagnostic]]:
    """Parse without raising: a syntax error becomes the one diagnostic.

    Names are not bound here; the validators report unbound ones.
    """
    try:
        rm, bm = dsl.parse_model(text, file_name)
    except ParseError as exc:
        return None, None, [exc.to_diagnostic()]
    return rm, bm, []


def _front(text: str, file_name: str, base_iri: str
           ) -> tuple[str, tuple[owl.Ontology, translate.IriMap] | None, list[Diagnostic]]:
    """Front half of the pipeline: parse, then translate (which validates).

    Never raises; on invalid input the translation is None and the
    diagnostics say why.
    """
    rm, bm, diagnostics = _parse(text, file_name)
    if rm is None:
        return "", None, diagnostics
    try:
        ontology, iris, diagnostics = translate.translate_models(rm, bm, base_iri)
    except translate.InvalidModelError as exc:
        return rm.name, None, list(exc.diagnostics)
    return rm.name, (ontology, iris), diagnostics


def check_model(text: str, file_name: str = "<input>", *,
                base_iri: str = owl.DEFAULT_BASE_IRI,
                oracle_bound: int | None = None) -> CheckOutcome:
    name, translated, diagnostics = _front(text, file_name, base_iri)
    if translated is None:
        return CheckOutcome(build_report(name, [], diagnostics), EXIT_INVALID)
    ontology, iris = translated

    tbox = reasoner.compile_tbox(ontology)
    search = (oracle.BoundedSearch(ontology, oracle_bound)
              if oracle_bound is not None else None)
    concepts: list[ConceptVerdict] = []
    disagreements: list[str] = []
    # the translator claims classes in declaration order, so this is the
    # order in which the tableau's classes were declared
    for fragment, entry in iris.classes.items():
        result = reasoner.is_satisfiable(tbox, fragment)
        concepts.append(ConceptVerdict(entry.name, entry.kind.value, result.sat,
                                       entry.span))
        if not result.sat:
            if entry.kind is translate.ElementKind.RESOURCE:
                diagnostics.append(error(
                    Code.UNSAT_RESOURCE,
                    f"resource '{entry.name}' can never be instantiated",
                    entry.span))
            else:
                diagnostics.append(error(
                    Code.UNSAT_STATE,
                    f"state '{entry.name}' can never be active",
                    entry.span))
        if search is not None:
            checked = search.query(fragment)
            if not result.sat and checked.status is oracle.OracleStatus.SAT:
                disagreements.append(
                    f"'{entry.name}': tableau reports unsatisfiable but a "
                    f"structure of size {checked.model.size} satisfies it")
            elif result.sat and checked.status is oracle.OracleStatus.NO_MODEL_UP_TO_BOUND:
                # the search may simply need more elements than the bound, so
                # only a witness within the bound counts against it; a witness
                # cut off at the node limit is not faithful and proves nothing
                w = result.witness
                if (w is not None and w.faithful and w.size <= oracle_bound
                        and not oracle.check_witness(ontology, fragment, w)):
                    disagreements.append(
                        f"'{entry.name}': tableau produced a verified structure "
                        f"of size {w.size} but the bounded search found none up "
                        f"to {oracle_bound}")

    rep = build_report(name, concepts, diagnostics)
    if disagreements:
        code = EXIT_DISAGREEMENT
    elif rep.overall == "inconsistent":
        code = EXIT_INCONSISTENT
    else:
        code = EXIT_CONSISTENT
    return CheckOutcome(rep, code, ontology, iris, tuple(disagreements))


def validate_model(text: str, file_name: str = "<input>") -> CheckOutcome:
    """Structural checks only; the report carries no concept verdicts."""
    rm, bm, diagnostics = _parse(text, file_name)
    if rm is not None:
        diagnostics = validate_resource_model(rm)
        if bm is not None:
            diagnostics += validate_behavioral_model(bm, rm)
    name = rm.name if rm is not None else ""
    rep = CheckReport(name,
                      "invalid" if rm is None or has_errors(diagnostics)
                      else "consistent",
                      (), tuple(diagnostics))
    code = EXIT_INVALID if rep.overall == "invalid" else EXIT_CONSISTENT
    return CheckOutcome(rep, code)


def translate_model(text: str, file_name: str = "<input>", *,
                    base_iri: str = owl.DEFAULT_BASE_IRI
                    ) -> tuple[str | None, list[Diagnostic], int]:
    """Produce ontology text, or diagnostics explaining why not."""
    _, translated, diagnostics = _front(text, file_name, base_iri)
    if translated is None:
        return None, diagnostics, EXIT_INVALID
    return owl.serialize(translated[0]), diagnostics, EXIT_CONSISTENT
