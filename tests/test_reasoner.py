"""Tableau procedure: clashes, blocking, merging, and algebraic properties."""
from __future__ import annotations

import random
import time

import _generators

from restcheck.owl import (DEFAULT_BASE_IRI, Complement, DataExactCard,
                           DataHasValue, DataPropertyRange, Declaration,
                           DisjointClasses, EntityKind, EquivalentClasses,
                           ExactCard, Intersection, MaxCard, MinCard, Named,
                           ObjectPropertyDomain, ObjectPropertyRange, Ontology,
                           OwlLiteral, Some, SubClassOf, Union)
from restcheck.model import DataType
from restcheck.oracle import check_witness
from restcheck.reasoner import classify_all, compile_tbox, is_satisfiable


def _ontology(*axioms, classes=("A",), roles=("r",), data=()):
    decls = tuple(Declaration(EntityKind.CLASS, c) for c in classes)
    decls += tuple(Declaration(EntityKind.OBJECT_PROPERTY, p) for p in roles)
    decls += tuple(Declaration(EntityKind.DATA_PROPERTY, p) for p in data)
    return Ontology(DEFAULT_BASE_IRI, decls + tuple(axioms))


def _sat(ont, concept) -> bool:
    return is_satisfiable(compile_tbox(ont), concept).sat


def test_min_above_max_clashes():
    ont = _ontology()
    assert not _sat(ont, Intersection((MinCard(2, "r"), MaxCard(1, "r"))))
    assert _sat(ont, Intersection((MinCard(2, "r"), MaxCard(2, "r"))))


def test_equivalence_to_disjoint_intersection():
    ont = _ontology(
        DisjointClasses((Named("A"), Named("B"))),
        EquivalentClasses((Named("S"), Intersection((Named("A"), Named("B"))))),
        classes=("A", "B", "S"))
    assert not _sat(ont, "S")
    assert _sat(ont, "A")
    assert _sat(ont, "B")


def test_lone_class_is_satisfiable():
    res = is_satisfiable(compile_tbox(_ontology()), "A")
    assert res.sat
    assert res.witness is not None and res.witness.size == 1


def test_cyclic_inclusion_terminates_quickly():
    ont = _ontology(SubClassOf(Named("A"), Some("r", Named("A"))))
    start = time.perf_counter()
    assert _sat(ont, "A")
    assert time.perf_counter() - start < 0.1


def test_single_valued_data_property_clash():
    t = OwlLiteral("true", DataType.BOOLEAN)
    f = OwlLiteral("false", DataType.BOOLEAN)
    ont = _ontology(SubClassOf(Named("A"), DataHasValue("p", t)),
                    SubClassOf(Named("A"), DataHasValue("p", f)),
                    data=("p",))
    assert not _sat(ont, "A")
    # two spellings of one value are no clash
    seven = OwlLiteral("7", DataType.INTEGER)
    seven2 = OwlLiteral("007", DataType.INTEGER)
    ont = _ontology(SubClassOf(Named("A"), DataHasValue("p", seven)),
                    SubClassOf(Named("A"), DataHasValue("p", seven2)),
                    data=("p",))
    assert _sat(ont, "A")
    # nor is a value excluded under another spelling
    ont = _ontology(data=("p",))
    assert not _sat(ont, Intersection((
        DataHasValue("p", OwlLiteral("01", DataType.INTEGER)),
        Complement(DataHasValue("p", OwlLiteral("1", DataType.INTEGER))))))
    # a required boolean with both truth values excluded has no value left;
    # without the range a string fills it
    neither = Intersection((DataExactCard(1, "p"), Complement(DataHasValue("p", t)),
                            Complement(DataHasValue("p", f))))
    assert _sat(ont, neither)
    ont = _ontology(DataPropertyRange("p", DataType.BOOLEAN), data=("p",))
    assert not _sat(ont, neither)


def test_data_cardinality_degenerates():
    # a data property holds at most one value, so only 0 and 1 are live
    ont = _ontology(data=("p",))
    one = OwlLiteral("1", DataType.INTEGER)
    assert not _sat(ont, DataExactCard(2, "p"))
    assert not _sat(ont, Intersection((DataExactCard(0, "p"),
                                       DataHasValue("p", one))))
    assert not _sat(ont, Intersection((Complement(DataExactCard(1, "p")),
                                       DataHasValue("p", one))))
    assert _sat(ont, Complement(DataExactCard(2, "p")))
    assert _sat(ont, DataExactCard(1, "p"))


def test_merge_respects_disjointness():
    base = (SubClassOf(Named("A"), Some("r", Named("C"))),
            SubClassOf(Named("A"), Some("r", Named("D"))),
            SubClassOf(Named("A"), MaxCard(1, "r")))
    merged = _ontology(*base, classes=("A", "C", "D"))
    assert _sat(merged, "A")
    blocked = _ontology(*base, DisjointClasses((Named("C"), Named("D"))),
                        classes=("A", "C", "D"))
    assert not _sat(blocked, "A")


def test_domain_and_range_propagate():
    ont = _ontology(SubClassOf(Named("A"), Some("r", Named("B"))),
                    ObjectPropertyDomain("r", Named("C")),
                    DisjointClasses((Named("A"), Named("C"))),
                    classes=("A", "B", "C"))
    assert not _sat(ont, "A")
    ont = _ontology(SubClassOf(Named("A"), Some("r", Named("B"))),
                    ObjectPropertyRange("r", Named("C")),
                    DisjointClasses((Named("B"), Named("C"))),
                    classes=("A", "B", "C"))
    assert not _sat(ont, "A")


def test_inclusion_chain_meets_disjointness():
    ont = _ontology(SubClassOf(Named("A"), Named("B")),
                    SubClassOf(Named("B"), Named("C")),
                    DisjointClasses((Named("A"), Named("C"))),
                    classes=("A", "B", "C"))
    assert not _sat(ont, "A")
    assert _sat(ont, "C")


def test_equivalence_pulls_members_in():
    one = OwlLiteral("1", DataType.INTEGER)
    ont = _ontology(
        EquivalentClasses((Named("S"), DataHasValue("p", one))),
        SubClassOf(Named("X"), DataHasValue("p", one)),
        DisjointClasses((Named("X"), Named("S"))),
        classes=("S", "X"), data=("p",))
    assert not _sat(ont, "X")
    assert _sat(ont, "S")


def test_exact_cardinality_splits():
    ont = _ontology(SubClassOf(Named("A"), ExactCard(2, "r")))
    assert _sat(ont, "A")
    assert not _sat(ont, Intersection((Named("A"), MaxCard(1, "r"))))
    assert not _sat(ont, Intersection((Named("A"), MinCard(3, "r"))))


def test_nested_existentials_terminate():
    ont = _ontology(SubClassOf(
        Named("A"), Some("r", Some("r", Some("r", Named("A"))))))
    assert _sat(ont, "A")


def test_many_choice_points_need_no_recursion():
    # every disjunction is a choice point of one search; 1200 of them once
    # overflowed the interpreter stack
    n = 1200
    ont = _ontology(*(SubClassOf(Named("A"), Union((Named(f"B{i}"), Named(f"C{i}"))))
                      for i in range(n)),
                    classes=("A",) + tuple(f"{x}{i}" for i in range(n) for x in "BC"))
    res = is_satisfiable(compile_tbox(ont), "A")
    assert res.sat
    assert res.witness is not None and res.witness.faithful
    assert check_witness(ont, "A", res.witness) == []


def test_failed_branch_leaves_no_nodes_behind():
    # the first disjunct creates an r-successor that clashes; the witness of
    # the second disjunct must not keep that successor
    ont = _ontology(SubClassOf(Named("A"), Union((Some("r", Named("B")), Named("C")))),
                    SubClassOf(Named("B"), Complement(Named("B"))),
                    classes=("A", "B", "C"))
    res = is_satisfiable(compile_tbox(ont), "A")
    assert res.sat
    assert res.witness is not None and res.witness.size == 1
    assert not res.witness.roles.get("r")
    assert res.witness.classes["C"] == frozenset({0})


def test_blocked_node_copies_its_blocker():
    # the root holds Q, A, B, some r.B and the domain D; its r-successor holds
    # only B and needs no successor, so it stays a leaf
    ont = _ontology(SubClassOf(Named("Q"), Intersection((Named("A"), Named("B")))),
                    SubClassOf(Named("A"), Some("r", Named("B"))),
                    ObjectPropertyDomain("r", Named("D")),
                    classes=("Q", "A", "B", "D"))
    res = is_satisfiable(compile_tbox(ont), "Q")
    assert res.sat
    assert res.witness is not None and res.witness.size == 2
    assert check_witness(ont, "Q", res.witness) == []
    # here the r-successor holds B and some r.B, a subset of the root's
    # label, so it is blocked and borrows the root's r- and s-edges.  The
    # s-edge needs its source in D, which only the blocker's label has
    ont = _ontology(SubClassOf(Named("Q"), Intersection((Named("A"), Named("B")))),
                    SubClassOf(Named("A"), Some("s", Named("C"))),
                    SubClassOf(Named("B"), Some("r", Named("B"))),
                    ObjectPropertyDomain("s", Named("D")),
                    classes=("Q", "A", "B", "C", "D"), roles=("r", "s"))
    res = is_satisfiable(compile_tbox(ont), "Q")
    assert res.sat
    assert res.witness is not None and res.witness.size == 3
    assert len(res.witness.roles["s"]) == 2
    assert check_witness(ont, "Q", res.witness) == []


def test_leaf_is_not_blocked():
    # the 2000 successors need no successors of their own; blocked by the
    # root, each would copy the root's 2000 edges
    ont = _ontology(SubClassOf(Named("A"), MinCard(2000, "r")))
    start = time.perf_counter()
    res = is_satisfiable(compile_tbox(ont), "A")
    elapsed = time.perf_counter() - start
    assert res.sat
    assert res.witness is not None and res.witness.faithful
    assert res.witness.size == 2001
    assert len(res.witness.roles["r"]) == 2000
    assert elapsed < 0.5
    assert check_witness(ont, "A", res.witness) == []


def test_at_least_bound_becomes_one_counted_successor():
    # the root needs three r-successors, one of them in B: the B-successor
    # and a node counted twice.  Each of the three is in C and needs two
    # s-successors of its own: 1 + 3 + 3 * 2 elements
    ont = _ontology(SubClassOf(Named("A"), Intersection((MinCard(3, "r"),
                                                         Some("r", Named("B"))))),
                    ObjectPropertyRange("r", Named("C")),
                    SubClassOf(Named("C"), MinCard(2, "s")),
                    classes=("A", "B", "C"), roles=("r", "s"))
    res = is_satisfiable(compile_tbox(ont), "A")
    assert res.sat
    assert res.witness is not None and res.witness.faithful
    assert res.witness.size == 10
    assert check_witness(ont, "A", res.witness) == []


def test_count_above_the_node_limit_is_cut_off():
    ont = _ontology(SubClassOf(Named("A"), MinCard(6000, "r")))
    res = is_satisfiable(compile_tbox(ont), "A")
    assert res.sat
    assert res.witness is not None and not res.witness.faithful


def test_verdicts_ignore_axiom_order():
    for seed in range(25):
        rng = random.Random(seed)
        ont = _generators.ontology(rng)
        base = dict((name, r.sat)
                    for name, r in classify_all(compile_tbox(ont)))
        axioms = list(ont.axioms)
        rng.shuffle(axioms)
        shuffled = Ontology(ont.base_iri, tuple(axioms))
        got = dict((name, r.sat)
                   for name, r in classify_all(compile_tbox(shuffled)))
        assert got == base, f"seed {seed}"


def test_adding_axioms_never_revives_a_class():
    for seed in range(25):
        rng = random.Random(seed)
        ont = _generators.ontology(rng)
        before = {name: r.sat for name, r in classify_all(compile_tbox(ont))}
        extra = SubClassOf(_generators.class_expr(rng, 1),
                           _generators.class_expr(rng, 1))
        grown = Ontology(ont.base_iri, ont.axioms + (extra,))
        after = {name: r.sat for name, r in classify_all(compile_tbox(grown))}
        for name in before:
            if not before[name]:
                assert not after[name], f"seed {seed} {name}"
