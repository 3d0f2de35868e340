"""Finite-model search: the clause solver, the evaluator, the bound policy."""
from __future__ import annotations

import itertools
import random
import time

import pytest

from restcheck.owl import (DEFAULT_BASE_IRI, Complement, DataExactCard,
                           DataHasValue, Declaration, DisjointClasses,
                           EntityKind, EquivalentClasses, ExactCard,
                           Intersection, MaxCard, MinCard, Named,
                           ObjectPropertyDomain, Ontology, OwlLiteral, Some,
                           SubClassOf, Union)
from restcheck.model import DataType
from restcheck.oracle import (ORACLE_MAX_DOMAIN, BoundTooLargeError,
                              FiniteModel, OracleStatus, bounded_model_search,
                              eval_expr, solve_cnf, violations)


# --- the propositional core --------------------------------------------------


def _brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        assign = (None,) + bits
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def _holds(assign, clauses) -> bool:
    return all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_trivial_formulas():
    assert solve_cnf(0, []) is not None
    assert solve_cnf(1, [[1]])[1] is True
    assert solve_cnf(1, [[-1]])[1] is False
    assert solve_cnf(1, [[1], [-1]]) is None
    assert solve_cnf(1, [[]]) is None
    # tautological and duplicated literals are harmless
    assert solve_cnf(2, [[1, -1], [2, 2]])[2] is True


def test_unit_chain_propagates():
    clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
    model = solve_cnf(4, clauses)
    assert model is not None and _holds(model, clauses)
    assert model[1:5] == [True, True, True, True]
    assert solve_cnf(4, clauses + [[-4]]) is None


def test_against_exhaustion_on_random_formulas():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(1, 24))]
        model = solve_cnf(n, clauses)
        if _brute_force(n, clauses):
            assert model is not None, f"seed {seed}"
            assert _holds(model, clauses), f"seed {seed}"
        else:
            assert model is None, f"seed {seed}"


def test_hole_counting_conflicts_stay_fast():
    """Five pigeons, four holes.  Counting conflicts like this defeat plain
    chronological backtracking; conflict-driven jumps keep them cheap."""
    def var(p, h):
        return p * 4 + h + 1

    clauses = [[var(p, h) for h in range(4)] for p in range(5)]
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                clauses.append([-var(p1, h), -var(p2, h)])
    start = time.perf_counter()
    assert solve_cnf(20, clauses) is None
    assert time.perf_counter() - start < 5.0


# --- the evaluator -----------------------------------------------------------


_TRUE = OwlLiteral("true", DataType.BOOLEAN)
_ONE = OwlLiteral("1", DataType.INTEGER)

_MODEL = FiniteModel(
    size=3,
    classes={"A": frozenset({0, 1}), "B": frozenset({2})},
    roles={"r": frozenset({(0, 1), (0, 2), (1, 1)})},
    values={"p": {0: _ONE, 2: OwlLiteral("001", DataType.INTEGER)}},
)


def test_eval_expr_cases():
    m = _MODEL
    assert eval_expr(m, Named("A"), 0) and not eval_expr(m, Named("A"), 2)
    assert eval_expr(m, Complement(Named("B")), 0)
    assert eval_expr(m, Union((Named("A"), Named("B"))), 2)
    assert eval_expr(m, Some("r", Named("B")), 0)
    assert not eval_expr(m, Some("r", Named("B")), 1)
    assert eval_expr(m, MinCard(2, "r"), 0)
    assert not eval_expr(m, MinCard(1, "r"), 2)
    assert eval_expr(m, MaxCard(1, "r"), 1)
    assert eval_expr(m, ExactCard(2, "r"), 0)
    assert eval_expr(m, DataExactCard(1, "p"), 0)
    assert eval_expr(m, DataExactCard(0, "p"), 1)
    # comparison is by value, not by lexical form
    assert eval_expr(m, DataHasValue("p", _ONE), 2)
    assert not eval_expr(m, DataHasValue("p", _ONE), 1)


def test_violations_name_the_broken_axiom():
    ont = Ontology(DEFAULT_BASE_IRI, (
        Declaration(EntityKind.CLASS, "A"),
        SubClassOf(Named("A"), Named("B")),
    ))
    broken = violations(_MODEL, ont)
    # one entry per offending element
    assert len(broken) == 2
    assert all("SubClassOf" in b for b in broken)
    assert "element 0" in broken[0] and "element 1" in broken[1]
    assert violations(_MODEL, ont)
    fine = Ontology(DEFAULT_BASE_IRI, (
        SubClassOf(Named("B"), DataExactCard(1, "p")),))
    assert violations(_MODEL, fine) == []


# --- the bounded search ------------------------------------------------------


def _ontology(*axioms, classes=("A",), roles=("r",), data=()):
    decls = tuple(Declaration(EntityKind.CLASS, c) for c in classes)
    decls += tuple(Declaration(EntityKind.OBJECT_PROPERTY, p) for p in roles)
    decls += tuple(Declaration(EntityKind.DATA_PROPERTY, p) for p in data)
    return Ontology(DEFAULT_BASE_IRI, decls + tuple(axioms))


def test_search_reports_the_smallest_domain():
    ont = _ontology(SubClassOf(Named("A"), MinCard(2, "r")))
    res = bounded_model_search(ont, "A", 4)
    assert res.status is OracleStatus.SAT
    # one element cannot carry two distinct successors
    assert res.bound == 2
    assert res.model is not None and res.model.size == 2
    assert violations(res.model, ont) == []


def test_found_models_satisfy_the_ontology():
    ont = _ontology(
        SubClassOf(Named("A"), Some("r", Named("B"))),
        SubClassOf(Named("B"), DataHasValue("p", _TRUE)),
        DisjointClasses((Named("A"), Named("B"))),
        classes=("A", "B"), data=("p",))
    res = bounded_model_search(ont, "A", 4)
    assert res.status is OracleStatus.SAT and res.bound == 2
    assert eval_expr(res.model, Named("A"), 0)
    assert violations(res.model, ont) == []


def test_unsatisfiable_class_exhausts_every_size():
    ont = _ontology(SubClassOf(Named("A"),
                               Intersection((MinCard(1, "r"), MaxCard(0, "r")))))
    res = bounded_model_search(ont, "A", 3)
    assert res.status is OracleStatus.NO_MODEL_UP_TO_BOUND
    assert res.bound == 3
    assert res.model is None


def test_bound_cap_is_enforced():
    ont = _ontology()
    with pytest.raises(BoundTooLargeError):
        bounded_model_search(ont, "A", ORACLE_MAX_DOMAIN + 1)
    assert bounded_model_search(ont, "A", ORACLE_MAX_DOMAIN).status \
        is OracleStatus.SAT


def test_counting_interaction_regression():
    """A shape that once sent the search into exponential thrashing at
    size 4: a class forced to have three successors while every source of
    the role may keep at most one."""
    ont = _ontology(
        SubClassOf(Named("B"), Complement(MaxCard(2, "s"))),
        DisjointClasses((Named("A"), Named("D"), Named("B"))),
        EquivalentClasses((Named("C"),
                           Union((ExactCard(0, "s"), MaxCard(1, "s"))))),
        SubClassOf(Named("B"), Union((DataExactCard(0, "p"),
                                      Some("s", DataHasValue("p", _ONE))))),
        ObjectPropertyDomain("s", Named("C")),
        classes=("A", "B", "C", "D"), roles=("r", "s"), data=("p", "q"))
    start = time.perf_counter()
    res = bounded_model_search(ont, "B", 4)
    assert res.status is OracleStatus.NO_MODEL_UP_TO_BOUND
    assert time.perf_counter() - start < 5.0
    assert bounded_model_search(ont, "C", 4).status is OracleStatus.SAT
