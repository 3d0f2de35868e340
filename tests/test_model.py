"""Structural rules over resource models, checked against naive re-derivations."""
from __future__ import annotations

import dataclasses
import random

import pytest

import _generators
from conftest import DATA

from restcheck.checker import EXIT_INVALID, validate_model
from restcheck.diagnostics import Code, Severity
from restcheck.dsl import parse_model
from restcheck.model import ResourceModel, validate_resource_model
from restcheck.translate import InvalidModelError, translate_models


def _reachable(rm: ResourceModel) -> set[str]:
    """Worklist closure over directed association edges, written from scratch."""
    root = rm.root()
    if root is None:
        return set()
    seen = {root.name}
    frontier = [root.name]
    while frontier:
        cur = frontier.pop()
        for a in rm.associations:
            if a.source == cur and a.target not in seen:
                seen.add(a.target)
                frontier.append(a.target)
    return seen


def test_connectivity_matches_reachability_closure():
    """Drop one association from a generated model and compare the validator
    against the closure on the pruned graph."""
    checked = 0
    for seed in range(150):
        rng = random.Random(seed)
        rm, _ = parse_model(_generators.model_text(rng), f"seed {seed}")
        if len(rm.associations) < 2:
            continue
        keep = list(rm.associations)
        del keep[rng.randrange(len(keep))]
        pruned = dataclasses.replace(rm, associations=tuple(keep))
        flagged = {d.message.split("'")[1]
                   for d in validate_resource_model(pruned)
                   if d.code is Code.CONNECTIVITY}
        expected = {r.name for r in pruned.resources} - _reachable(pruned)
        assert flagged == expected, f"seed {seed}"
        checked += 1
    assert checked > 100


def test_inheritance_does_not_connect():
    # extends is a typing relation, not a navigation edge
    rm, _ = parse_model(
        "resources T {\n"
        "  root resource R { attr a: string }\n"
        "  resource S { attr b: string }\n"
        "  resource Sub extends S\n"
        "  association x: R -> S [0..1]\n"
        "}\n")
    codes = [d.code for d in validate_resource_model(rm)]
    assert codes == [Code.CONNECTIVITY]
    assert "Sub" in validate_resource_model(rm)[0].message


@pytest.mark.parametrize("resources, flagged", [
    ("  root resource A extends A { attr p: boolean }\n", ["A"]),
    ("  root resource R { attr q: boolean }\n"
     "  resource A extends B { attr p: boolean }\n"
     "  resource B extends A { attr p2: boolean }\n"
     "  resource C extends A { attr p3: boolean }\n"
     "  association a: R -> A [0..*]\n"
     "  association b: R -> B [0..*]\n"
     "  association c: R -> C [0..*]\n", ["A", "B", "C"]),
], ids=["self", "pair-and-descendant"])
def test_inheritance_cycle_is_rejected(resources, flagged):
    # a generalization hierarchy must be acyclic: every resource on a cycle,
    # or on a path into one, is reported, and nothing is translated
    rm, _ = parse_model("resources T {\n" + resources + "}\n")
    diags = validate_resource_model(rm)
    assert [d.code for d in diags] == [Code.CONNECTIVITY] * len(flagged)
    assert [d.message for d in diags] == [
        f"inheritance cycle involving '{name}'" for name in flagged]
    with pytest.raises(InvalidModelError):
        translate_models(rm, None)


@pytest.mark.parametrize("fixture,code", [
    ("isolated.model", Code.CONNECTIVITY),
    ("dup_label.model", Code.DUPLICATE_LABEL),
    ("collection_attr.model", Code.COLLECTION_HAS_ATTR),
    ("normal_no_attr.model", Code.NORMAL_NO_ATTR),
    ("min_gt_max.model", Code.BAD_CARDINALITY),
])
def test_validation_fixture_codes(fixture, code):
    rm, _ = parse_model((DATA / fixture).read_text(), fixture)
    diags = validate_resource_model(rm)
    assert [d.code for d in diags] == [code]
    assert diags[0].severity is Severity.ERROR
    assert diags[0].span is not None


REFERENCES = (
    "resources M {\n"
    "  root resource R { attr a: string }\n"
    "  resource S { attr b: string }\n"
    "  association s: R -> S [0..1]\n"
    "}\n"
    "behavior B for R {\n"
    "  initial i\n"
    "  state p\n"
    "  state q in p\n"
    "  transition i -> p on POST S\n"
    "}\n")


@pytest.mark.parametrize("old, new, line, message", [
    ("resource S {", "resource S extends Ghost {", 3,
     "resource 'S' extends unknown resource 'Ghost'"),
    ("R -> S [", "R -> Ghost [", 4,
     "association 's' refers to unknown resource 'Ghost'"),
    ("B for R", "B for Ghost", 6,
     "behavioral model 'B' is for unknown resource 'Ghost'"),
    ("q in p", "q in Ghost", 9,
     "state 'q' is declared inside unknown state 'Ghost'"),
    ("i -> p", "i -> Ghost", 10, "transition refers to unknown state 'Ghost'"),
    ("POST S", "POST Ghost", 10, "transition refers to unknown resource 'Ghost'"),
], ids=["extends", "association-end", "behavior-for", "state-in",
        "transition-end", "transition-resource"])
def test_unbound_names_are_reported_by_validation(old, new, line, message):
    outcome = validate_model(REFERENCES.replace(old, new), "m.model")
    assert outcome.exit_code == EXIT_INVALID
    unbound = [(d.message, d.span.line) for d in outcome.report.diagnostics
               if d.code is Code.UNRESOLVED_PATH]
    assert unbound == [(message, line)]


def test_unknown_parent_is_the_only_diagnostic():
    # attributes inherited from an unknown resource are unknown, so a
    # resource with none of its own, nor any below it, is not also reported
    # as attribute-less
    text = REFERENCES.replace("resource S { attr b: string }", "resource S extends Ghost")
    diags = validate_model(text, "m.model").report.diagnostics
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        (Code.UNRESOLVED_PATH, "resource 'S' extends unknown resource 'Ghost'", 3)]
    text = (text.replace("resource S extends Ghost",
                         "resource S extends Ghost\n  resource T extends S")
            .replace("R -> S [0..1]\n", "R -> S [0..1]\n  association t: R -> T [0..1]\n"))
    diags = validate_model(text, "m.model").report.diagnostics
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        (Code.UNRESOLVED_PATH, "resource 'S' extends unknown resource 'Ghost'", 3)]


def test_unbound_name_does_not_hide_other_errors():
    text = REFERENCES.replace("R -> S [0..1]\n",
                              "R -> S [0..1]\n  association s: R -> Ghost [0..1]\n")
    diags = validate_model(text).report.diagnostics
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        (Code.DUPLICATE_LABEL, "duplicate association label 's'", 5),
        (Code.UNRESOLVED_PATH, "association 's' refers to unknown resource 'Ghost'", 5),
    ]


def test_missing_initial_state_points_at_the_behavior():
    text = REFERENCES.replace("  initial i\n", "").replace("i -> p", "p -> p")
    diags = validate_model(text, "m.model").report.diagnostics
    assert [(d.code, d.message, d.span.line) for d in diags] == [
        (Code.CONNECTIVITY, "behavioral model 'B' has no initial state", 6)]
