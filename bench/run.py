"""The restcheck benchmark.

    python3 bench/run.py --workload lifecycle --seed 1 --seconds 16 --trace 0

Generates the workload's models from the seed (see gen.py), drives them
through the public API one after another in a single thread (a closed loop
with one caller), and checks every outcome against the answer known by
construction.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` it makes passes over the workload's models while another
pass fits in `--seconds` of timed calls, and at least one (see
`run_untraced`), and reports the end-to-end metrics:
  model_p50_ref, model_p80_ref  a model's call time in units of a fixed
                                reference job timed on either side of it,
                                the median and 80th percentile over the
                                models (56 on lifecycle and mutants, 160 on
                                crosscheck, 50 on frontend: the 80th is the
                                highest percentile with ten models beyond it
                                on every workload)
  concepts_per_ref              concepts decided per reference job time
                                (models for frontend)
  ok_ratio                      calls whose outcome passed every check,
                                out of all calls
  peak_rss_mb                   the median peak RSS of a fresh process
                                checking one model
  setup_s                       the median time for a fresh interpreter to
                                import restcheck, in seconds of a machine on
                                which the reference job takes
                                `REFERENCE_UNIT_S`: the import's wall time
                                times REFERENCE_UNIT_S over the reference
                                job's time on either side of it
The plain wall times (per-model p50 and p80, concepts per second, and the
reference job's median time) are printed on the line before the result.

Why reference units: on a shared machine the same model's call time moves by
up to 2x for tens of seconds at a time, so a run's wall times say more about
the machine's phase than about restcheck.  The reference job slows down with
it, so the ratio of the two stays within a few per cent across those phases,
while a change that makes restcheck faster lowers it in proportion.  The run
keeps to one CPU, and so do the interpreters it starts, because the phases
of the machine's two CPUs differ.

With `--trace 1` it makes one pass over the first `TRACE_ROUNDS` rounds with
spans recorded around restcheck's public functions (spans.py), between two
passes without spans over the same models, prints the per-layer table and
reports the per-layer metrics; the spans are written to
`bench/out/trace-<workload>-<seed>.jsonl`.

Tests of the benchmark itself: python3 -m pytest bench

Workloads (gen.FAMILIES has the shapes):
  lifecycle   all-SAT trees of 8 resources and 5 states: the tableau's SAT path
  mutants     the same trees with a third of the states UNSAT by construction
  crosscheck  models of 5 resources and 4 states checked with the bounded search
              (oracle_bound=4)
  frontend    models of 300 resources and 150 states, validated and translated
              only: parse, validate, translate, serialize
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

MODEL_LIMIT_S = 10        # a model running longer counts as failed
SETUP_REPEATS = 11
MEMORY_MODELS = 9
TRACE_ROUNDS = 12
REFERENCE_ITEMS = 600
REFERENCE_UNIT_S = 0.01
_REFERENCE_TEXT = " ".join(f"w{i % 211}x{i % 7}" for i in range(6000))
THOROUGH_MODELS = 5       # models that get the costly checks in an untraced run


class ModelTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ModelTimeout(f"ran past {MODEL_LIMIT_S} s")


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    return env


def seconds_of(job) -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time for a fresh interpreter to `import restcheck`, in seconds of a
    machine on which the reference job takes `REFERENCE_UNIT_S`."""
    before = seconds_of(reference_job)
    took = seconds_of(lambda: subprocess.run(
        [sys.executable, "-c", "import restcheck"], env=_child_env(), cwd=ROOT,
        check=True, stdout=subprocess.DEVNULL))
    after = seconds_of(reference_job)
    return took * REFERENCE_UNIT_S / statistics.mean((before, after))


def reference_job() -> None:
    """A fixed pure-Python job, the unit of the untraced run's times.

    It builds, deep-copies and counts small dicts, sets, lists and strings,
    the kind of work restcheck's parser, translator and tableau do, and it
    uses nothing of restcheck, so a change to restcheck does not change it.
    """
    table = {f"k{i}": {"name": f"n{i}", "vals": list(range(i % 13)),
                       "tags": {f"t{j}" for j in range(i % 5)}}
             for i in range(REFERENCE_ITEMS)}
    copy.deepcopy(table)
    counts: dict[str, int] = {}
    for word in re.findall(r"\w+", _REFERENCE_TEXT):
        counts[word] = counts.get(word, 0) + 1


# VmHWM and not ru_maxrss: Linux carries the forking parent's peak into the
# child's ru_maxrss across exec, while VmHWM belongs to the new image alone.
# The peak is read before the outcome is checked, so the checker's own
# imports stay out of it.
_ONE_MODEL = """
import json, re, sys, gen, run
case = gen.Case.from_json(sys.stdin.read())
_, result = run.guarded_call(sys.argv[1], case)
with open("/proc/self/status") as fh:
    kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
print(json.dumps({"kb": kb, "problems": run.problems_of(sys.argv[1], case, result, False)}))
"""


def peak_rss_mb(workload: str, cases) -> tuple[float, list[str]]:
    """Median peak RSS of a fresh process making one model's user call.

    A CLI user runs one model per process, so this is the memory they see.
    The median over `MEMORY_MODELS` models keeps one model's deep search
    from deciding the figure.  Each child checks its outcome like any other
    call, after its peak is read.
    """
    peaks: list[float] = []
    failures: list[str] = []
    for case in cases[:MEMORY_MODELS]:
        try:
            done = subprocess.run([sys.executable, "-c", _ONE_MODEL, workload],
                                  input=case.to_json(), env=_child_env(), cwd=ROOT,
                                  check=True, capture_output=True, text=True,
                                  timeout=MODEL_LIMIT_S + 10)
            found = json.loads(done.stdout.splitlines()[-1])
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                ValueError, IndexError) as exc:
            failures.append(f"{case.name}: memory run failed: {exc}")
            continue
        peaks.append(found["kb"] / 1024)
        if found["problems"]:
            failures.append(f"{case.name}: {'; '.join(found['problems'])}")
    return (statistics.median(peaks) if peaks else 0.0), failures


def user_call(workload: str, case):
    """The call a user of the workload makes, and nothing else."""
    from restcheck import checker
    if workload == "frontend":
        return (checker.validate_model(case.text, case.name),
                checker.translate_model(case.text, case.name))
    bound = gen.CROSSCHECK_BOUND if workload == "crosscheck" else None
    return checker.check_model(case.text, case.name, oracle_bound=bound)


def guarded_call(workload: str, case):
    """(seconds, result or the exception that ended the call)."""
    start = time.perf_counter()
    try:
        with time_limit(MODEL_LIMIT_S):
            result = user_call(workload, case)
    except Exception as exc:  # a crash or a runaway model is a failed model
        result = exc
    return time.perf_counter() - start, result


def problems_of(workload: str, case, result, thorough: bool, sat_results=None) -> list[str]:
    """What is wrong with one outcome; `thorough` adds the costly checks:
    witnesses against the ontology, or the ontology's round trip."""
    import outcome
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    if workload == "frontend":
        return outcome.check_frontend(case, *result, round_trip=thorough)
    found = outcome.check_outcome(case, result)
    if thorough and not found:
        found += outcome.check_witnesses(case, result, sat_results)
    return found


def concepts_of(workload: str, case) -> int:
    return 1 if workload == "frontend" else case.concepts


class Untraced:
    """What `run_untraced` measured."""

    def __init__(self, models: int):
        self.ratios: list[list[float]] = [[] for _ in range(models)]
        self.walls: list[list[float]] = [[] for _ in range(models)]
        self.references: list[float] = []
        self.setup: list[float] = []
        self.failures: list[str] = []
        self.passes = 0

    def per_model(self) -> tuple[list[float], list[float]]:
        """Each model's median ratio to the reference job, and its fastest call."""
        return ([statistics.median(r) for r in self.ratios],
                [min(w) for w in self.walls])


def run_untraced(workload: str, cases, seconds: float, thorough_models: int) -> Untraced:
    """Passes over the same models while another pass fits in `seconds` of
    timed calls, and at least one.

    The models are fixed by the seed, so a slow machine makes fewer passes but
    times the same models.  The reference job is timed before each call and
    once after the last, and a call's sample is its time divided by the mean
    of the jobs on either side of it; they run within a fraction of a second
    of the call, so all three meet the same phase of the machine.  The
    `SETUP_REPEATS` imports of restcheck are spread over the run for the same
    reason.  Each outcome is checked right after its call, outside the timed
    region, and dropped; the first `thorough_models` of the first pass get the
    costly checks too.
    """
    out = Untraced(len(cases))
    spent = 0.0
    last = None  # (slot, call time) of the call waiting for its second reference

    def reference() -> None:
        gc.collect()  # start as a fresh CLI process would, not amid old garbage
        out.references.append(seconds_of(reference_job))
        if last is not None:
            out.ratios[last[0]].append(last[1] / statistics.mean(out.references[-2:]))
        gc.collect()

    while out.passes == 0 or spent * (out.passes + 1) / out.passes <= seconds:
        for slot, case in enumerate(cases):
            reference()
            took, result = guarded_call(workload, case)
            spent += took
            last = (slot, took)
            out.walls[slot].append(took)
            found = problems_of(workload, case, result,
                                thorough=out.passes == 0 and slot < thorough_models)
            if found:
                out.failures.append(f"{case.name}: {'; '.join(found)}")
            if len(out.setup) < SETUP_REPEATS * min(1.0, spent / seconds):
                out.setup.append(import_seconds())
        out.passes += 1
    reference()
    while len(out.setup) < SETUP_REPEATS:
        out.setup.append(import_seconds())
    return out


def run_traced(workload: str, cases):
    """A traced pass between two plain passes over the same cases.

    The plain passes on both sides keep warm-up and drift out of the
    overhead ratio; the first one's verdicts must equal the traced ones.
    """
    import spans
    from restcheck import report
    tracer = spans.Tracer()

    def one_pass(traced: bool):
        start = time.perf_counter()
        results = []
        for case in cases:
            tracer.model = case.name
            gc.collect()
            with tracer.span("bench.model") if traced else nullcontext():
                _, result = guarded_call(workload, case)
                if workload != "frontend" and not isinstance(result, Exception):
                    report.render_json(result.report)
            results.append((case, result))
        return time.perf_counter() - start, results

    before_s, untraced = one_pass(False)
    with tracer.installed():
        traced_s, traced = one_pass(True)
    after_s, _ = one_pass(False)

    failures: list[str] = []
    for (case, result), (_, again) in zip(traced, untraced):
        decided = {s.note["concept"]: s.note["result"] for s in tracer.spans
                   if s.model == case.name and "result" in s.note}
        found = problems_of(workload, case, result, thorough=True, sat_results=decided)
        if verdicts(result) != verdicts(again):
            found.append("traced and untraced verdicts differ")
        if found:
            failures.append(f"{case.name}: {'; '.join(found)}")
    return tracer, 2 * traced_s / (before_s + after_s), failures


def p80(values: list[float]) -> float:
    return statistics.quantiles(values, n=5, method="inclusive")[-1] \
        if len(values) > 1 else values[0]


def verdicts(result):
    """Exit codes and per-concept verdicts, without names."""
    if isinstance(result, Exception):
        return type(result).__name__
    if isinstance(result, tuple):
        return result[0].exit_code, result[1][2]
    return result.exit_code, tuple(c.satisfiable for c in result.report.concepts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["lifecycle", "mutants", "crosscheck", "frontend"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "restcheck" / "__init__.py").is_file():
        print(f"bench: no restcheck sources in {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    cases = gen.cases(args.workload, args.seed, TRACE_ROUNDS if args.trace else None)
    user_call(args.workload, cases[0])  # first-call imports and caches, untimed

    if args.trace:
        tracer, overhead, failures = run_traced(args.workload, cases)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        print(tracer.table())
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in tracer.per_layer_metrics(overhead).items()}
        attempted = len(cases)
    else:
        done = run_untraced(args.workload, cases, args.seconds, THOROUGH_MODELS)
        ratios, fastest = done.per_model()
        concepts = sum(concepts_of(args.workload, case) for case in cases)
        rss_mb, rss_failures = peak_rss_mb(args.workload, cases)
        failures = done.failures + rss_failures
        attempted = len(cases) * done.passes + min(MEMORY_MODELS, len(cases))
        metrics = {
            "model_p50_ref": {"value": statistics.median(ratios), "unit": "ref"},
            "model_p80_ref": {"value": p80(ratios), "unit": "ref"},
            "concepts_per_ref": {"value": concepts / sum(ratios), "unit": "1/ref"},
            "ok_ratio": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(done.setup), "unit": "s"},
        }
        print(f"{args.workload} seed {args.seed}: {len(cases)} models, each timed "
              f"{done.passes} times; wall time per model p50 "
              f"{statistics.median(fastest):.4f} s, p80 {p80(fastest):.4f} s, "
              f"{concepts / sum(fastest):.2f} concepts/s; reference job "
              f"{statistics.median(done.references):.4f} s")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
