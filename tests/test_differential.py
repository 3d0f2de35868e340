"""Two independent decision procedures must agree on generated inputs."""
from __future__ import annotations

import sys

from _harness import differential_case
from conftest import ROOT

from restcheck.checker import check_model
from restcheck.oracle import check_witness
from restcheck.reasoner import classify_all, compile_tbox


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
