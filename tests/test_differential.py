"""Two independent decision procedures must agree on generated inputs."""
from __future__ import annotations

import random
import sys

from _harness import differential_case
from conftest import ROOT

from restcheck.checker import check_model
from restcheck.model import DataType
from restcheck.oracle import OracleStatus, bounded_model_search, check_witness
from restcheck.owl import (DEFAULT_BASE_IRI, Complement, DataExactCard,
                           DataHasValue, DataPropertyDomain, DataPropertyRange,
                           Declaration, DisjointClasses, EntityKind,
                           EquivalentClasses, FiniteModel, Intersection,
                           Named, Ontology, OwlLiteral, SubClassOf, Union)
from restcheck.reasoner import classify_all, compile_tbox, is_satisfiable


def test_engines_agree_on_five_hundred_ontologies():
    problems: list[str] = []
    sat_total = unsat_total = 0
    for seed in range(500):
        found, sat_n, unsat_n = differential_case(seed)
        problems.extend(found)
        sat_total += sat_n
        unsat_total += unsat_n
    assert problems == [], "\n".join(problems[:10])
    # both verdicts must actually occur, or the comparison proves nothing
    assert sat_total > 100
    assert unsat_total > 20


def test_tableau_and_oracle_agree_on_bench_families():
    # the benchmark's crosscheck models are small enough for the bounded
    # search to decide every concept, and their verdicts are known by
    # construction; the lifecycle and mutants models are too large for it,
    # so there every SAT class's witness must be a model instead.  bench/ is
    # only read
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for seed in (1, 2):
        for case in gen.cases("crosscheck", seed, rounds=10):
            out = check_model(case.text, case.name, oracle_bound=gen.CROSSCHECK_BOUND)
            assert out.exit_code == case.exit_code, (case.name, out.disagreements)
            got = tuple((c.kind, c.element, c.satisfiable) for c in out.report.concepts)
            assert got == case.expected, case.name
    for workload in ("lifecycle", "mutants"):
        for case in gen.cases(workload, 1, rounds=3):
            out = check_model(case.text, case.name)
            got = tuple((c.kind, c.element, c.satisfiable) for c in out.report.concepts)
            assert got == case.expected, case.name
            for name, result in classify_all(compile_tbox(out.ontology)):
                if result.sat:
                    w = result.witness
                    assert w is not None and w.faithful, (case.name, name)
                    assert check_witness(out.ontology, name, w) == [], (case.name, name)


# Data properties of every datatype, each value under two spellings.  A string
# has one spelling per value, so "a" and "a " are two values that look alike.
# The ontologies have no roles, so a satisfiable class has a one-element model
# and the bounded search decides every class.
_SPELLINGS = {
    "i": (DataType.INTEGER, (("7", "007"), ("0", "-0"), ("12", "+12"))),
    "b": (DataType.BOOLEAN, (("true", "TRUE"), ("false", "False"))),
    "s": (DataType.STRING, (("a", "a"), ("a ", "a "), ("", ""))),
    "d": (DataType.DECIMAL, (("1.5", "1.50"), ("0", "-0.0"), ("2", "2.0"))),
}
_DATA_CLASSES = ("A", "B", "C")


def _data_literal(rng: random.Random, prop: str) -> OwlLiteral:
    # now and then a literal of another property's datatype, so that ranges
    # exclude it
    dt, values = _SPELLINGS[rng.choice(tuple(_SPELLINGS)) if rng.random() < 0.15 else prop]
    return OwlLiteral(rng.choice(rng.choice(values)), dt)


def _data_expr(rng: random.Random, depth: int):
    kind = rng.choice(["named", "value", "value", "excluded", "card"]
                      + (["not", "and", "or"] if depth > 0 else []))
    if kind == "named":
        return Named(rng.choice(_DATA_CLASSES))
    if kind in ("value", "excluded"):
        prop = rng.choice(tuple(_SPELLINGS))
        value = DataHasValue(prop, _data_literal(rng, prop))
        return value if kind == "value" else Complement(value)
    if kind == "card":
        card = DataExactCard(rng.randint(0, 2), rng.choice(tuple(_SPELLINGS)))
        return Complement(card) if rng.random() < 0.3 else card
    if kind == "not":
        return Complement(_data_expr(rng, depth - 1))
    args = (_data_expr(rng, depth - 1), _data_expr(rng, depth - 1))
    return Intersection(args) if kind == "and" else Union(args)


def _data_ontology(rng: random.Random) -> Ontology:
    axioms: list = [Declaration(EntityKind.CLASS, c) for c in _DATA_CLASSES]
    axioms += [Declaration(EntityKind.DATA_PROPERTY, p) for p in _SPELLINGS]
    for prop, (dt, _) in _SPELLINGS.items():
        roll = rng.random()
        if roll < 0.5:
            axioms.append(DataPropertyRange(prop, dt))
        elif roll < 0.6:
            other = rng.choice([d for d, _ in _SPELLINGS.values() if d is not dt])
            axioms += [DataPropertyRange(prop, dt), DataPropertyRange(prop, other)]
    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.5:
            axioms.append(SubClassOf(Named(rng.choice(_DATA_CLASSES)), _data_expr(rng, 2)))
        elif roll < 0.65:
            axioms.append(SubClassOf(_data_expr(rng, 1), _data_expr(rng, 2)))
        elif roll < 0.8:
            axioms.append(EquivalentClasses((Named(rng.choice(_DATA_CLASSES)),
                                             _data_expr(rng, 2))))
        elif roll < 0.85:
            axioms.append(DisjointClasses(tuple(Named(c) for c in rng.sample(_DATA_CLASSES, 2))))
        elif roll < 0.95:
            # every value of a property excluded, which leaves a boolean none
            prop = rng.choice(tuple(_SPELLINGS))
            dt, values = _SPELLINGS[prop]
            excluded = [Complement(DataHasValue(prop, OwlLiteral(rng.choice(v), dt)))
                        for v in values]
            if rng.random() < 0.5:
                excluded.append(DataExactCard(1, prop))
            axioms.append(SubClassOf(Named(rng.choice(_DATA_CLASSES)),
                                     Intersection(tuple(excluded))))
        else:
            axioms.append(DataPropertyDomain(rng.choice(tuple(_SPELLINGS)),
                                             Named(rng.choice(_DATA_CLASSES))))
    return Ontology(DEFAULT_BASE_IRI, tuple(axioms))


def test_engines_agree_on_data_heavy_ontologies():
    problems: list[str] = []
    verdicts = []
    for seed in range(500):
        ont = _data_ontology(random.Random(seed))
        tbox = compile_tbox(ont)
        for name in _DATA_CLASSES:
            tab = is_satisfiable(tbox, name)
            search = bounded_model_search(ont, name, 2)
            found = search.status is OracleStatus.SAT
            verdicts.append(tab.sat)
            if tab.sat != found:
                problems.append(f"seed {seed} {name}: tableau {tab.sat}, search {found}")
            elif tab.sat:
                # both engines describe what they find with one structure type
                assert (type(tab.witness) is type(search.model) is FiniteModel
                        and search.model.faithful)
                w = tab.witness
                why = ["not faithful"] if not w.faithful else check_witness(ont, name, w)
                if why:
                    problems.append(f"seed {seed} {name}: witness: {why[0]}")
    assert problems == [], "\n".join(problems[:10])
    assert verdicts.count(True) > 300 and verdicts.count(False) > 100
