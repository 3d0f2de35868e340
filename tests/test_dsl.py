"""Surface syntax: parsing, formatting, and error positions."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _generators
from _harness import dsl_fixed_point
from conftest import EXAMPLES

from restcheck.checker import validate_model
from restcheck.diagnostics import Code, ParseError
from restcheck.dsl import format_model, parse_model
from restcheck.model import (DataType, ResourceKind, StateKind, Trigger)


def test_parses_booking_example():
    text = (EXAMPLES / "hotel_booking.model").read_text()
    rm, bm = parse_model(text, "hotel_booking.model")
    assert rm.name == "HotelBooking"
    assert rm.root() is not None and rm.root().name == "Booking"
    names = {r.name for r in rm.resources}
    assert {"Booking", "Room", "Payment", "Cancellation", "rooms",
            "bookings"} <= names
    assert rm.resource("rooms").kind is ResourceKind.COLLECTION
    assert rm.resource("Payment").kind is ResourceKind.NORMAL
    assert len(rm.associations) == 6
    payment = rm.association("payment")
    assert (payment.source, payment.target) == ("Booking", "Payment")
    assert (payment.min, payment.max) == (0, 1)
    assert rm.association("booking").max is None  # the unbounded side

    assert bm is not None and bm.for_resource == "Booking"
    kinds = {s.name: s.kind for s in bm.states}
    assert kinds["start"] is StateKind.INITIAL
    assert kinds["deleted"] is StateKind.FINAL
    assert kinds["processingPayment"] is StateKind.SIMPLE
    assert bm.state("processingPayment").invariant is not None
    assert bm.state("start").invariant is None


def test_transition_triggers_and_targets():
    text = (EXAMPLES / "hotel_booking.model").read_text()
    _, bm = parse_model(text)
    by_pair = {(t.source, t.target): t for t in bm.transitions}
    t = by_pair[("unpaidBooking", "processingPayment")]
    assert t.trigger is Trigger.PUT and t.target_resource == "Payment"
    guarded = by_pair[("processingPayment", "confirmedBooking")]
    assert guarded.guard == 'payment.waiting = False'
    assert by_pair[("cancelled", "deleted")].trigger is Trigger.DELETE


def test_attribute_types():
    rm, _ = parse_model(
        "resources T {\n"
        "  root resource R {\n"
        "    attr a: string\n    attr b: integer\n"
        "    attr c: boolean\n    attr d: decimal\n"
        "  }\n}\n")
    types = [a.datatype for a in rm.resource("R").attributes]
    assert types == [DataType.STRING, DataType.INTEGER, DataType.BOOLEAN,
                     DataType.DECIMAL]


def test_extends_and_composite_states():
    rm, bm = parse_model(
        "resources T {\n"
        "  root resource R { attr a: string }\n"
        "  resource S { attr b: string }\n"
        "  resource Sub extends S\n"
        "  association x: R -> S [0..*]\n"
        "  association y: R -> Sub [0..*]\n"
        "}\n"
        "behavior B for R {\n"
        "  initial i\n"
        "  state outer\n"
        "  state left in outer\n"
        "  state right in outer region 1 { inv: \"self.a = \\\"r\\\"\" }\n"
        "  final done\n"
        "  transition i -> outer on POST\n"
        "  transition outer -> done on DELETE R guard \"a = 1\" post \"gone\"\n"
        "}\n")
    assert rm.resource("Sub").parent == "S"
    # inherited attributes are visible through the parent chain
    assert [a.name for a in rm.attributes_of("Sub")] == ["b"]
    # a state is composite when others are declared inside it
    assert bm.state("left").parent == "outer"
    assert bm.state("right").parent == "outer"
    assert bm.state("right").region == 1
    assert bm.state("done").kind is StateKind.FINAL
    assert (bm.transitions[1].guard, bm.transitions[1].post) == ("a = 1", "gone")
    # formatting keeps regions, final states, invariants, guards and posts
    assert parse_model(format_model(rm, bm)) == (rm, bm)


def test_format_parse_fixed_point_on_corpus():
    for name in ("hotel_booking.model", "hb_mutated_m1.model",
                 "snippet.model"):
        text = (EXAMPLES / name).read_text()
        assert dsl_fixed_point(text, name) is None


def test_format_parse_fixed_point_on_generated_models():
    for seed in range(120):
        text = _generators.model_text(random.Random(seed))
        assert dsl_fixed_point(text, f"seed {seed}") is None


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_model("resources M {\n  root resource R {\n    attr a string\n")
    assert err.value.line == 3
    assert err.value.col == 12
    diag = err.value.to_diagnostic()
    assert diag.code is Code.PARSE


def test_get_trigger_rejected_at_parse_time():
    text = ("resources M { root resource R { attr a: string } }\n"
            "behavior B for R {\n"
            "  initial i\n  state s\n"
            "  transition i -> s on GET\n"
            "}\n")
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "GET" in str(err.value)
    assert err.value.line == 5


def test_boolean_literals_are_capitalized():
    # invariants reuse the surrounding language's True/False spelling
    text = ("resources M { root resource R { attr a: boolean } }\n"
            "behavior B for R {\n"
            "  initial i\n"
            '  state s { inv: "self.a = true" }\n'
            "  transition i -> s on POST\n"
            "}\n")
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 4


def test_invariant_errors_point_into_the_string():
    text = ("resources M { root resource R { attr a: string } }\n"
            "behavior B for R {\n"
            "  initial i\n"
            '  state s { inv: "self.a = " }\n'
            "  transition i -> s on POST\n"
            "}\n")
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 4
    assert err.value.col > 18


def test_unresolved_names_are_collected():
    # the parser binds no names; validation reports each unbound one
    text = ("resources M {\n"
            "  root resource R { attr a: string }\n"
            "  association x: R -> Ghost [0..1]\n"
            "  association y: Phantom -> R [0..1]\n"
            "}\n")
    rm, _ = parse_model(text)
    assert rm.association("x").target == "Ghost"
    diags = validate_model(text).report.diagnostics
    assert [(d.code, d.message) for d in diags] == [
        (Code.UNRESOLVED_PATH, "association 'x' refers to unknown resource 'Ghost'"),
        (Code.UNRESOLVED_PATH, "association 'y' refers to unknown resource 'Phantom'"),
    ]


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_parser_is_total(text):
    """Arbitrary input either parses or raises a positioned error."""
    try:
        parse_model(text)
    except ParseError:
        pass
