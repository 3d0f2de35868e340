"""Spans around calls into restcheck's public functions, recorded from outside.

`Tracer.installed()` replaces each function in `TARGETS` by a wrapper that
records a span (id, parent id, name, model, start, end) and restores the
originals on exit.  Spans live in memory until `write` saves them.  A span's
name is `<layer>.<function>`, the layer being the module that defines the
function, so `checker.validate_resource_model` is recorded as
`model.validate_resource_model`.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from restcheck import checker, dsl, oracle, owl, reasoner, report, translate

# (module object, attribute): every name a caller looks up at call time.
# Names that checker imported with `from ... import` are patched in checker.
TARGETS = (
    (checker, "check_model"), (checker, "validate_model"), (checker, "translate_model"),
    (checker, "validate_resource_model"), (checker, "validate_behavioral_model"),
    (checker, "build_report"), (dsl, "parse_model"), (translate, "translate_models"),
    (reasoner, "compile_tbox"), (reasoner, "classify_all"), (reasoner, "is_satisfiable"),
    (oracle, "bounded_model_search"), (owl, "serialize"), (report, "render_json"),
)
LAYERS = ("checker", "dsl", "model", "translate", "owl", "reasoner", "oracle",
          "report", "bench")


def _note(name: str, args, kwargs, result) -> dict:
    """Counts taken from a call's result at the boundary where it returns."""
    if name == "reasoner.is_satisfiable":
        w = result.witness
        concept = args[1] if len(args) > 1 else kwargs["concept"]
        return {"concept": concept, "sat": result.sat,
                "witness_nodes": w.size if w is not None else 0, "result": result}
    if name == "reasoner.compile_tbox":
        return {"globals": len(result.axioms_nnf)}
    if name == "translate.translate_models":
        return {"axioms": len(result[0].axioms)}
    if name == "oracle.bounded_model_search":
        return {"status": result.status.value}
    if name == "owl.serialize":
        return {"bytes": len(result.encode())}
    return {}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    model: str
    start: float
    end: float = 0.0
    children_s: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.model = ""

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            try:
                span.note = _note(name, args, kwargs, result)
            except (AttributeError, KeyError, TypeError) as exc:
                # a changed signature or result loses the counts, not the call
                span.note = {"note_error": repr(exc)}
            return result
        return traced

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name,
                    self.model, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += span.seconds

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in TARGETS]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self._wrap(fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                note = {k: v for k, v in s.note.items() if k != "result"}
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "model": s.model, "start": s.start, "end": s.end,
                                     "self_s": s.self_s, **note}) + "\n")

    # -- summaries

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.self_s
        return out

    def per_layer_metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        def total(*names: str) -> float:
            return sum(s.seconds for n in names for s in self.named(n))

        def summed(name: str, key: str) -> int:
            return sum(s.note.get(key, 0) for s in self.named(name))

        concepts = self.named("reasoner.is_satisfiable")
        per_concept = [s.seconds for s in concepts]
        searches = [s.note.get("status") for s in self.named("oracle.bounded_model_search")]
        return {
            "reasoner.sat_s": (sum(s.seconds for s in concepts if s.note.get("sat")), "s"),
            "reasoner.unsat_s": (sum(s.seconds for s in concepts
                                     if s.note.get("sat") is False), "s"),
            "reasoner.concept_p50_s": (statistics.median(per_concept) if per_concept else 0.0, "s"),
            "reasoner.concept_max_s": (max(per_concept, default=0.0), "s"),
            "reasoner.globals": (summed("reasoner.compile_tbox", "globals"), "count"),
            "reasoner.witness_nodes": (summed("reasoner.is_satisfiable", "witness_nodes"), "count"),
            "reasoner.compile_s": (total("reasoner.compile_tbox"), "s"),
            "oracle.search_s": (total("oracle.bounded_model_search"), "s"),
            "oracle.sat": (searches.count("sat"), "count"),
            "oracle.exhausted": (searches.count("no_model_up_to_bound"), "count"),
            "dsl.parse_s": (total("dsl.parse_model"), "s"),
            "model.validate_s": (total("model.validate_resource_model",
                                       "model.validate_behavioral_model"), "s"),
            "translate.translate_s": (total("translate.translate_models"), "s"),
            "translate.axioms": (summed("translate.translate_models", "axioms"), "count"),
            "owl.serialize_s": (total("owl.serialize"), "s"),
            "owl.ofn_bytes": (summed("owl.serialize", "bytes"), "bytes"),
            "report.render_s": (total("report.build_report", "report.render_json"), "s"),
            "checker.glue_s": (self.layer_self()["checker"], "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def table(self) -> str:
        selfs = self.layer_self()
        whole = sum(s.seconds for s in self.spans if s.parent is None) or 1.0
        lines = [f"{'layer':<10} {'self_s':>10} {'share':>7} {'calls':>7}"]
        for layer in LAYERS:
            calls = sum(1 for s in self.spans if s.layer == layer)
            lines.append(f"{layer:<10} {selfs[layer]:>10.4f} "
                         f"{100 * selfs[layer] / whole:>6.1f}% {calls:>7}")
        return "\n".join(lines)
