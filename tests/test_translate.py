"""Model-to-ontology translation: templates, naming, invariant encoding."""
from __future__ import annotations

import pytest

from conftest import DATA, EXAMPLES

from restcheck.checker import check_model, validate_model
from restcheck.diagnostics import Code, ParseError, Severity
from restcheck.dsl import parse_model
from restcheck.ocl import parse_ocl
from restcheck import owl
from restcheck.translate import (ElementKind, InvalidModelError,
                                 translate_models, translate_ocl)


def _translate(text: str):
    rm, bm = parse_model(text)
    return translate_models(rm, bm)


def _lines(ontology: owl.Ontology) -> list[str]:
    return owl.serialize(ontology).splitlines()


SNIPPET = (EXAMPLES / "snippet.model").read_text()


def test_snippet_axiom_templates():
    ont, _, diags = _translate(SNIPPET)
    assert diags == []
    lines = _lines(ont)
    for expected in [
        "SubClassOf(:R1 :R2)",
        "DisjointClasses(:r :R2 :C)",
        "SubClassOf(:C DataExactCardinality(1 :att))",
        "SubClassOf(:r ObjectMinCardinality(1 :a))",
        "SubClassOf(:r ObjectMaxCardinality(3 :a))",
        "SubClassOf(:State_S :r)",
        'EquivalentClasses(:State_S DataHasValue(:name "started"^^xsd:string))',
    ]:
        assert expected in lines


def test_association_multiplicity_policy():
    ont, _, _ = _translate(
        "resources T {\n"
        "  root resource R { attr a: string }\n"
        "  resource S { attr b: string }\n"
        "  association w: R -> S [0..*]\n"
        "  association x: R -> S [1..1]\n"
        "  association y: R -> S [0..1]\n"
        "  association z: R -> S [2..*]\n"
        "}\n")
    lines = _lines(ont)
    assert not any(":w" in l and "Cardinality" in l for l in lines)
    assert "SubClassOf(:R ObjectMinCardinality(1 :x))" in lines
    assert "SubClassOf(:R ObjectMaxCardinality(1 :x))" in lines
    assert "SubClassOf(:R ObjectMaxCardinality(1 :y))" in lines
    assert not any(":y" in l and "MinCardinality" in l for l in lines)
    assert "SubClassOf(:R ObjectMinCardinality(2 :z))" in lines
    assert not any(":z" in l and "MaxCardinality" in l for l in lines)


def test_subclasses_leave_the_disjointness():
    ont, _, _ = _translate(
        "resources T {\n"
        "  root resource R { attr a: string }\n"
        "  resource S { attr b: string }\n"
        "  resource Sub extends S\n"
        "  association x: R -> S [0..1]\n"
        "  association y: R -> Sub [0..1]\n"
        "}\n")
    lines = _lines(ont)
    assert "SubClassOf(:Sub :S)" in lines
    assert "DisjointClasses(:R :S)" in lines


def test_state_classes_and_disjointness():
    text = (EXAMPLES / "hotel_booking.model").read_text()
    ont, iris, _ = _translate(text)
    lines = _lines(ont)
    # the initial pseudo-state is not a resource observation
    assert not any("start" in l for l in lines)
    # the final state exists but stays out of the pairwise disjointness:
    # once deleted, a resource is not observably in any state
    assert "SubClassOf(:State_deleted :Booking)" in lines
    disjoint = next(l for l in lines if l.startswith("DisjointClasses(:State_"))
    assert "State_deleted" not in disjoint
    assert iris.class_of_state("processingPayment") == "State_processingPayment"


def test_attribute_property_naming_prefixes_on_collision():
    ont, iris, _ = _translate(
        "resources T {\n"
        "  root resource R { attr name: string }\n"
        "  resource S { attr name: integer }\n"
        "  association x: R -> S [0..1]\n"
        "}\n")
    assert iris.prop_of_attribute("R", "name") == "name"
    assert iris.prop_of_attribute("S", "name") == "S_name"
    lines = _lines(ont)
    assert "DataPropertyRange(:name xsd:string)" in lines
    assert "DataPropertyRange(:S_name xsd:integer)" in lines


def test_class_and_property_may_share_a_fragment():
    text = (EXAMPLES / "hotel_booking.model").read_text()
    ont, _, _ = _translate(text)
    lines = _lines(ont)
    # a collection and the association pointing at it share the name "rooms";
    # classes and object properties live in separate symbol spaces
    assert "Declaration(Class(:rooms))" in lines
    assert "Declaration(ObjectProperty(:rooms))" in lines
    assert "ObjectPropertyRange(:rooms :rooms)" in lines


def test_clashing_class_fragments_get_suffixes():
    _, iris, _ = _translate(
        "resources T {\n"
        "  root resource State_s { attr a: string }\n"
        "}\n"
        "behavior B for State_s {\n"
        "  initial i\n  state s\n"
        "  transition i -> s on POST\n"
        "}\n")
    assert iris.class_of_resource("State_s") == "State_s"
    assert iris.class_of_state("s") == "State_s_2"
    entry = iris.classes["State_s_2"]
    assert entry.kind is ElementKind.STATE and entry.name == "s"


def test_translate_models_is_the_one_validation_guard():
    checked = 0
    for path in sorted(DATA.glob("*.model")):
        text = path.read_text()
        try:
            rm, bm = parse_model(text, path.name)
        except ParseError:
            continue
        with pytest.raises(InvalidModelError) as raised:
            translate_models(rm, bm)
        diagnostics = raised.value.diagnostics
        assert diagnostics == validate_model(text, path.name).report.diagnostics
        invalid = check_model(text, path.name).report
        assert invalid.overall == "invalid"
        assert diagnostics == invalid.diagnostics
        checked += 1
    assert checked == 5  # every data model but get_trigger.model parses


BOOKING = """\
resources Shop {
  root resource Order { attr status: string }
  resource Payment { attr waiting: boolean }
  association payment: Order -> Payment [0..1]
}
"""


def _ocl(expr_text: str, diags=None):
    rm, _ = parse_model(BOOKING)
    _, iris, _ = translate_models(rm, None)
    return translate_ocl(parse_ocl(expr_text), rm, "Order", iris, diags)


def test_invariant_size_encodings():
    assert _ocl("self.payment->size() = 1") == owl.ExactCard(1, "payment")
    assert _ocl("self.payment->size() >= 2") == owl.MinCard(2, "payment")
    assert _ocl("self.payment->size() > 0") == owl.MinCard(1, "payment")
    assert _ocl("self.payment->size() <= 1") == owl.MaxCard(1, "payment")
    assert _ocl("self.payment->size() < 2") == owl.MaxCard(1, "payment")


def test_invariant_attribute_and_navigation_encodings():
    got = _ocl('self.status = "unpaid"')
    assert got == owl.DataHasValue(
        "status", owl.OwlLiteral("unpaid", owl.DataType.STRING))
    got = _ocl("payment.waiting = True")
    assert got == owl.Some("payment", owl.DataHasValue(
        "waiting", owl.OwlLiteral("true", owl.DataType.BOOLEAN)))
    got = _ocl('self.status = "a" and self.payment->size() = 0')
    assert got == owl.Intersection((
        owl.DataHasValue("status", owl.OwlLiteral("a", owl.DataType.STRING)),
        owl.ExactCard(0, "payment")))


def test_size_below_zero_becomes_an_empty_class():
    diags: list = []
    got = _ocl("self.payment->size() < 0", diags)
    # the contradiction is kept visible to the reasoner
    assert got == owl.Intersection((owl.MinCard(1, "payment"),
                                    owl.MaxCard(0, "payment")))
    assert len(diags) == 1
    assert diags[0].code is Code.NEGATIVE_BOUND
    assert diags[0].severity is Severity.ERROR
