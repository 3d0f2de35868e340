"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import outcome  # noqa: E402
import run  # noqa: E402
from restcheck import checker, dsl, oracle, translate  # noqa: E402

WORKLOADS = tuple(gen.FAMILIES)


def _digest(workload: str, seed: int) -> str:
    texts = "".join(c.text for c in gen.cases(workload, seed, 2))
    return hashlib.sha256(texts.encode()).hexdigest()


def _env(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    return env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _digest(workload, 5) == _digest(workload, 5)
    assert _digest(workload, 5) != _digest(workload, 6)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_bench; "
            "print(*(test_bench._digest(w, 3) for w in test_bench.WORKLOADS))")
    runs = {subprocess.run([sys.executable, "-c", code, str(HERE)], env=_env(h),
                           capture_output=True, text=True, check=True).stdout
            for h in ("0", "4242")}
    assert runs == {" ".join(_digest(w, 3) for w in WORKLOADS) + "\n"}


def _oracle_verdicts(case) -> tuple:
    rm, bm = dsl.parse_model(case.text, case.name)
    ontology, iris, _ = translate.translate_models(rm, bm)
    out = []
    for fragment, entry in iris.classes.items():
        found = oracle.bounded_model_search(ontology, fragment, gen.CROSSCHECK_BOUND)
        out.append((entry.kind.value, entry.name,
                    found.status is oracle.OracleStatus.SAT))
    return tuple(out)


@pytest.mark.parametrize("seed", [0, 1])
def test_expected_verdicts_agree_with_bounded_search(seed):
    for case in gen.cases("crosscheck", seed, 5):
        assert _oracle_verdicts(case) == case.expected, case.name


@pytest.mark.parametrize("kind", ["local", "deep", "overlap"])
def test_each_planted_kind_is_unsat_for_the_bounded_search(kind):
    for i in range(3):
        name = f"kind-{kind}-{i}"
        case = gen._build(name, random.Random(name), 5, 3, atoms=2,
                          kinds=(kind,), max_unfolded=gen.CROSSCHECK_BOUND)
        assert case.planted and case.exit_code == 1
        assert _oracle_verdicts(case) == case.expected, name


def test_outcome_checker_reports_a_wrong_verdict():
    case = gen.cases("mutants", 1, 1)[0]
    result = checker.check_model(case.text, case.name)
    assert outcome.check_outcome(case, result) == []
    flipped = tuple((k, n, not s) for k, n, s in case.expected)
    wrong = gen.Case(case.name, case.text, flipped, 0)
    assert len(outcome.check_outcome(wrong, result)) >= 2


def test_memory_runs_check_their_outcome():
    case = gen.cases("crosscheck", 1, 1)[0]
    assert gen.Case.from_json(case.to_json()) == case
    flipped = tuple((k, n, not s) for k, n, s in case.expected)
    wrong = gen.Case(case.name, case.text, flipped, case.exit_code, case.planted)
    rss_mb, failures = run.peak_rss_mb("crosscheck", [case, wrong])
    assert rss_mb > 0
    assert len(failures) == 1 and failures[0].startswith(case.name), failures


def test_runaway_model_is_a_failure_and_the_run_goes_on(monkeypatch):
    case = gen.cases("crosscheck", 1, 1)[0]

    def stuck(workload, case):
        while True:
            pass

    monkeypatch.setattr(run, "MODEL_LIMIT_S", 0.2)
    monkeypatch.setattr(run, "user_call", stuck)
    took, result = run.guarded_call("crosscheck", case)
    assert isinstance(result, run.ModelTimeout) and took < 5
    assert run.problems_of("crosscheck", case, result, thorough=False)


def _run(trace: int, hash_seed: str = "0") -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "crosscheck",
         "--seed", "2", "--seconds", "0.5", "--trace", str(trace)],
        env=_env(hash_seed), capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    return result


def _declared(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_run_reports_the_declared_metrics():
    result = _run(trace=0)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_across_runs_and_hash_seeds():
    counted = ("reasoner.globals", "translate.axioms", "reasoner.witness_nodes")
    seen = set()
    for hash_seed in ("0", "1", "777"):
        result = _run(trace=1, hash_seed=hash_seed)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared("per_layer")
        seen.add(tuple(result["metrics"][m]["value"] for m in counted))
    assert len(seen) == 1 and all(v > 0 for v in seen.pop())
