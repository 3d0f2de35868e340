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
from restcheck.oracle import (ORACLE_MAX_DOMAIN, BoundedSearch,
                              BoundTooLargeError, CnfSolver, FiniteModel,
                              OracleStatus, bounded_model_search, eval_expr,
                              violations)

import _generators


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
    assert CnfSolver(0, []).solve() is not None
    assert CnfSolver(1, [[1]]).solve()[1] is True
    assert CnfSolver(1, [[-1]]).solve()[1] is False
    assert CnfSolver(1, [[1], [-1]]).solve() is None
    assert CnfSolver(1, [[]]).solve() is None
    # tautological and duplicated literals are harmless
    assert CnfSolver(2, [[1, -1], [2, 2]]).solve()[2] is True


def test_unit_chain_propagates():
    clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
    model = CnfSolver(4, clauses).solve()
    assert model is not None and _holds(model, clauses)
    assert model[1:5] == [True, True, True, True]
    assert CnfSolver(4, clauses + [[-4]]).solve() is None


def test_against_exhaustion_on_random_formulas():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(1, 24))]
        model = CnfSolver(n, clauses).solve()
        if _brute_force(n, clauses):
            assert model is not None, f"seed {seed}"
            assert _holds(model, clauses), f"seed {seed}"
        else:
            assert model is None, f"seed {seed}"


def _pigeons(guard: int | None = None) -> list[list[int]]:
    """Five pigeons, four holes: variables 1..20.  With a guard variable, the
    clauses hold only when the guard does."""
    def var(p, h):
        return p * 4 + h + 1

    clauses = [[var(p, h) for h in range(4)] for p in range(5)]
    for h in range(4):
        for p1 in range(5):
            for p2 in range(p1 + 1, 5):
                clauses.append([-var(p1, h), -var(p2, h)])
    if guard is not None:
        clauses = [c + [-guard] for c in clauses]
    return clauses


def test_hole_counting_conflicts_stay_fast():
    """Counting conflicts like this defeat plain chronological backtracking;
    conflict-driven jumps keep them cheap."""
    start = time.perf_counter()
    assert CnfSolver(20, _pigeons()).solve() is None
    assert time.perf_counter() - start < 5.0


def test_assumptions_leave_the_clause_set_open():
    """A query that fails under its assumptions does not close the clause set,
    and what it learned does not change the next answer."""
    solver = CnfSolver(21, _pigeons(guard=21))
    assert solver.solve((21,)) is None
    model = solver.solve((-21,))
    assert model is not None and model[21] is False
    assert solver.solve((21,)) is None
    assert solver.solve() is not None
    # an assumption that contradicts another is just another failed query
    assert solver.solve((1, -1)) is None
    assert solver.solve((1,))[1] is True


def test_unsat_clause_set_answers_none_to_every_query():
    for solver in (CnfSolver(3, [[1], [-1, 2], [-2]]), CnfSolver(20, _pigeons())):
        assert solver.solve() is None
        assert solver.solve((3,)) is None
        assert solver.solve((-3,)) is None
        assert solver.solve() is None


def test_queries_under_assumptions_against_exhaustion():
    """One loaded clause set answers a run of queries; each answer must match
    the clauses with the assumptions added as units."""
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(rng.randint(2, 3))]
                   for _ in range(rng.randint(4, 4 * n))]
        solver = CnfSolver(n, clauses)
        for _ in range(6):
            assumed = tuple(rng.choice((1, -1)) * v
                            for v in rng.sample(range(1, n + 1), rng.randint(0, min(3, n))))
            whole = clauses + [[a] for a in assumed]
            model = solver.solve(assumed)
            if _brute_force(n, whole):
                assert model is not None and _holds(model, whole), f"seed {seed}"
            else:
                assert model is None, f"seed {seed}"


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


def test_shared_search_answers_like_a_fresh_one():
    """Every class of one ontology, decided on one shared search in either
    order, gets the (status, bound) of a fresh one-class search.

    A query asks whether the grounding at some size has a model with element
    0 in the class.  The class membership is an assumption, a decision of its
    own level, never a clause, so conflict analysis resolves only clauses of
    the grounding and every clause learned on one query is a consequence of
    the grounding alone.  Adding consequences leaves the models of the clause
    set as they were, so a later query sees the same models, and so the same
    smallest size, as on a fresh grounding.  `Fresh` lies outside the
    signature and must stay an unconstrained class.
    """
    names = _generators.CLASS_NAMES + ("Fresh",)
    for seed in range(100):
        ont = _generators.ontology(random.Random(seed))
        fresh = {n: bounded_model_search(ont, n, 4) for n in names}
        for order in (names, names[::-1]):
            search = BoundedSearch(ont, 4)
            for name in order:
                got = search.query(name)
                assert (got.status, got.bound) == (fresh[name].status, fresh[name].bound), \
                    f"seed {seed} {name}"
