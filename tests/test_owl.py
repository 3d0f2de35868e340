"""Functional-syntax ontology documents: values, printing, parsing."""
from __future__ import annotations

import random

import pytest

import _generators
from _harness import ofn_fixed_point
from conftest import GOLDEN

from restcheck.diagnostics import ParseError
from restcheck.model import DataType
from restcheck.owl import (DEFAULT_BASE_IRI, Complement, DataHasValue,
                           Declaration, EntityKind, Intersection, MaxCard,
                           MinCard, Named, Ontology, OwlLiteral, Some,
                           SubClassOf, UnsupportedAxiomError, canon_value,
                           parse_functional_syntax, serialize, valid_lexical,
                           walk)


def test_canonical_values_identify_equal_literals():
    # the canonical form is a literal of the same datatype
    assert canon_value(OwlLiteral("007", DataType.INTEGER)) == \
        OwlLiteral("7", DataType.INTEGER)
    assert canon_value(OwlLiteral("007", DataType.INTEGER)) == \
        canon_value(OwlLiteral("7", DataType.INTEGER))
    assert canon_value(OwlLiteral("+1", DataType.INTEGER)) == \
        canon_value(OwlLiteral("1", DataType.INTEGER))
    assert canon_value(OwlLiteral("1.50", DataType.DECIMAL)) == \
        canon_value(OwlLiteral("1.5", DataType.DECIMAL))
    assert canon_value(OwlLiteral("0.0", DataType.DECIMAL)) == \
        canon_value(OwlLiteral("-0", DataType.DECIMAL))
    assert canon_value(OwlLiteral("TRUE", DataType.BOOLEAN)) == \
        canon_value(OwlLiteral("true", DataType.BOOLEAN))
    # strings compare verbatim
    assert canon_value(OwlLiteral("a ", DataType.STRING)) != \
        canon_value(OwlLiteral("a", DataType.STRING))
    # same lexical shape, different datatype, different value
    assert canon_value(OwlLiteral("1", DataType.INTEGER)) != \
        canon_value(OwlLiteral("1", DataType.DECIMAL))


def test_lexical_validation():
    assert valid_lexical("-12", DataType.INTEGER)
    assert not valid_lexical("1.2", DataType.INTEGER)
    assert valid_lexical("3.25", DataType.DECIMAL)
    assert valid_lexical("true", DataType.BOOLEAN)
    assert not valid_lexical("yes", DataType.BOOLEAN)


def test_serialize_shape():
    ont = Ontology(DEFAULT_BASE_IRI, (
        Declaration(EntityKind.CLASS, "A"),
        SubClassOf(Named("A"), Some("r", Named("B"))),
    ))
    text = serialize(ont)
    lines = text.splitlines()
    assert lines[0] == f"Prefix(:=<{DEFAULT_BASE_IRI}>)"
    assert lines[1].startswith("Prefix(xsd:=<")
    assert lines[2].startswith("Ontology(<")
    assert "Declaration(Class(:A))" in lines
    assert "SubClassOf(:A ObjectSomeValuesFrom(:r :B))" in lines
    assert lines[-1] == ")"
    assert text.endswith(")\n")


def test_serialize_nested_expressions():
    ax = SubClassOf(
        Named("A"),
        Intersection((MinCard(2, "r"), Complement(MaxCard(1, "s")),
                      DataHasValue("p", OwlLiteral("true", DataType.BOOLEAN)))))
    ont = Ontology(DEFAULT_BASE_IRI, (ax,))
    assert ('SubClassOf(:A ObjectIntersectionOf(ObjectMinCardinality(2 :r) '
            'ObjectComplementOf(ObjectMaxCardinality(1 :s)) '
            'DataHasValue(:p "true"^^xsd:boolean)))') in serialize(ont)


def test_string_literal_escaping_round_trips():
    lit = OwlLiteral('say "hi" \\ done', DataType.STRING)
    ont = Ontology(DEFAULT_BASE_IRI,
                   (SubClassOf(Named("A"), DataHasValue("p", lit)),))
    back = parse_functional_syntax(serialize(ont))
    ax = back.axioms[0]
    assert ax.sup.value == lit


def test_parse_serialize_fixed_point_on_goldens():
    for name in ("hb.ofn", "snippet.ofn"):
        text = (GOLDEN / name).read_text()
        assert ofn_fixed_point(text, name) is None
        # the stored documents are already in canonical form
        assert serialize(parse_functional_syntax(text, name)) == text


def test_serialize_parse_round_trip_on_generated_ontologies():
    for seed in range(120):
        ont = _generators.ontology(random.Random(seed))
        text = serialize(ont)
        assert parse_functional_syntax(text).axioms == ont.axioms
        assert ofn_fixed_point(text, f"seed {seed}") is None


def test_comments_and_whitespace_are_skipped():
    text = ("Prefix(:=<http://e/#>)\n"
            "Prefix(xsd:=<http://www.w3.org/2001/XMLSchema#>)\n"
            "Ontology(<http://e>\n"
            "# a note\n"
            "  Declaration( Class( :A ) )\n"
            ")\n")
    ont = parse_functional_syntax(text)
    assert ont.axioms == (Declaration(EntityKind.CLASS, "A"),)
    assert ont.base_iri == "http://e/#"


def test_unknown_axiom_is_reported_as_unsupported():
    text = ("Prefix(:=<http://e/#>)\nOntology(<http://e>\n"
            "HasKey(:A () (:p))\n)\n")
    with pytest.raises(UnsupportedAxiomError) as err:
        parse_functional_syntax(text)
    assert "HasKey" in str(err.value)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_functional_syntax("Prefix(:=<http://e/#>)\nOntology(<http://e>\n"
                                "SubClassOf(:A\n)\n")
    assert err.value.line >= 3
    with pytest.raises(ParseError):
        parse_functional_syntax("Ontology(")


def test_walk_yields_every_subexpression():
    expr = Intersection((Named("A"), Some("r", Complement(Named("B")))))
    seen = list(walk(expr))
    assert Named("A") in seen and Named("B") in seen
    assert any(isinstance(e, Complement) for e in seen)
    assert seen[0] is expr


def test_declared_filters_by_entity_kind():
    ont = Ontology(DEFAULT_BASE_IRI, (
        Declaration(EntityKind.CLASS, "A"),
        Declaration(EntityKind.OBJECT_PROPERTY, "r"),
        Declaration(EntityKind.DATA_PROPERTY, "p"),
        Declaration(EntityKind.CLASS, "B"),
    ))
    assert ont.declared(EntityKind.CLASS) == ("A", "B")
    assert ont.declared(EntityKind.OBJECT_PROPERTY) == ("r",)
    assert ont.declared(EntityKind.DATA_PROPERTY) == ("p",)
