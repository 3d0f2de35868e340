"""Seeded random instances shared by the round-trip and differential suites."""

from __future__ import annotations

import random

from restcheck import owl
from restcheck.model import DataType
from restcheck.owl import (Complement, DataExactCard, DataHasValue,
                           DataPropertyRange, Declaration, DisjointClasses,
                           EntityKind, EquivalentClasses, ExactCard,
                           Intersection, MaxCard, MinCard, Named,
                           ObjectPropertyDomain, ObjectPropertyRange,
                           Ontology, OwlLiteral, Some, SubClassOf, Union)

CLASS_NAMES = ("A", "B", "C", "D")
OBJECT_PROPS = ("r", "s")
DATA_PROPS = ("p", "q")

# One literal per data property, so that the fixed corpus of criterion 5 stays
# the one its verdicts were checked on.  Both engines treat data properties as
# single-valued and agree with many literals per property; the data-heavy
# differential in test_differential.py covers that case.
DATA_LITERALS = {
    "p": OwlLiteral("1", DataType.INTEGER),
    "q": OwlLiteral("true", DataType.BOOLEAN),
}
DATA_RANGES = {"p": DataType.INTEGER, "q": DataType.BOOLEAN}


def class_expr(rng: random.Random, depth: int) -> owl.ClassExpr:
    picks = ["named", "named", "data"]
    if depth > 0:
        picks += ["not", "and", "or", "some", "min", "max", "exact", "dfun"]
    kind = rng.choice(picks)
    if kind == "named":
        return Named(rng.choice(CLASS_NAMES))
    if kind == "data":
        prop = rng.choice(DATA_PROPS)
        return DataHasValue(prop, DATA_LITERALS[prop])
    if kind == "not":
        return Complement(class_expr(rng, depth - 1))
    if kind in ("and", "or"):
        args = (class_expr(rng, depth - 1), class_expr(rng, depth - 1))
        return Intersection(args) if kind == "and" else Union(args)
    if kind == "some":
        return Some(rng.choice(OBJECT_PROPS), class_expr(rng, depth - 1))
    if kind == "min":
        return MinCard(rng.randint(1, 2), rng.choice(OBJECT_PROPS))
    if kind == "max":
        return MaxCard(rng.randint(0, 2), rng.choice(OBJECT_PROPS))
    if kind == "exact":
        return ExactCard(rng.randint(0, 2), rng.choice(OBJECT_PROPS))
    return DataExactCard(rng.randint(0, 1), rng.choice(DATA_PROPS))


def ontology(rng: random.Random) -> Ontology:
    axioms: list[owl.Axiom] = []
    for name in CLASS_NAMES:
        axioms.append(Declaration(EntityKind.CLASS, name))
    for prop in OBJECT_PROPS:
        axioms.append(Declaration(EntityKind.OBJECT_PROPERTY, prop))
    for prop in DATA_PROPS:
        axioms.append(Declaration(EntityKind.DATA_PROPERTY, prop))

    for prop in DATA_PROPS:
        if rng.random() < 0.5:
            axioms.append(DataPropertyRange(prop, DATA_RANGES[prop]))

    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.35:
            axioms.append(SubClassOf(Named(rng.choice(CLASS_NAMES)),
                                     class_expr(rng, 2)))
        elif roll < 0.45:
            # general inclusion, both sides complex
            axioms.append(SubClassOf(class_expr(rng, 1), class_expr(rng, 2)))
        elif roll < 0.6:
            axioms.append(EquivalentClasses((Named(rng.choice(CLASS_NAMES)),
                                             class_expr(rng, 2))))
        elif roll < 0.8:
            members = rng.sample(CLASS_NAMES, rng.randint(2, 3))
            axioms.append(DisjointClasses(tuple(Named(n) for n in members)))
        elif roll < 0.9:
            axioms.append(ObjectPropertyDomain(rng.choice(OBJECT_PROPS),
                                               Named(rng.choice(CLASS_NAMES))))
        else:
            axioms.append(ObjectPropertyRange(rng.choice(OBJECT_PROPS),
                                              Named(rng.choice(CLASS_NAMES))))
    return Ontology(owl.DEFAULT_BASE_IRI, tuple(axioms))


# --- random models for the DSL round trip ------------------------------------


def _ident(rng: random.Random, prefix: str, i: int) -> str:
    return f"{prefix}{i}"


def model_text(rng: random.Random) -> str:
    """A random well-formed model file in canonical layout."""
    n_res = rng.randint(2, 5)
    names = [_ident(rng, "Res", i) for i in range(n_res)]
    types = ["string", "boolean", "integer", "decimal"]
    lines = [f"resources M{rng.randint(0, 99)} {{"]
    kinds = {}
    for i, name in enumerate(names):
        root = "root " if i == 0 else ""
        if i > 0 and rng.random() < 0.3:
            kinds[name] = "collection"
            lines.append(f"  {root}collection {name}")
        else:
            kinds[name] = "resource"
            lines.append(f"  {root}resource {name} {{")
            for j in range(rng.randint(1, 2)):
                lines.append(f"    attr f{j}: {rng.choice(types)}")
            lines.append("  }")
    for i, name in enumerate(names[1:], start=1):
        lo = rng.randint(0, 1)
        hi = rng.choice(["*", str(rng.randint(max(lo, 1), 3))])
        src = names[rng.randrange(i)]
        lines.append(f"  association a{i}: {src} -> {name} [{lo}..{hi}]")
    lines.append("}")

    if rng.random() < 0.7:
        anchor = names[0]
        lines.append("")
        lines.append(f"behavior Flow for {anchor} {{")
        lines.append("  initial i0")
        n_states = rng.randint(1, 3)
        for k in range(n_states):
            if rng.random() < 0.4:
                lines.append(f"  state S{k} {{")
                lines.append(f'    inv: "self.f0 = {rng.randint(0, 9)}"')
                lines.append("  }")
            else:
                lines.append(f"  state S{k}")
        lines.append("  transition i0 -> S0 on POST")
        for k in range(1, n_states):
            trig = rng.choice(["PUT", "POST", "DELETE"])
            lines.append(f"  transition S{k - 1} -> S{k} on {trig}")
        lines.append("}")
    return "\n".join(lines) + "\n"


# --- random invariant text for the round trip --------------------------------

_OCL_STRINGS = ('"unpaid"', '"confirmed"', '"a b"', '"with \\"quote\\""', '""')


def _ocl_path(rng: random.Random) -> str:
    segs = [rng.choice(("status", "waiting", "payment", "items", "kind"))
            for _ in range(rng.randint(1, 2))]
    prefix = "self." if rng.random() < 0.7 else ""
    return prefix + ".".join(segs)


def _ocl_atom(rng: random.Random) -> str:
    path = _ocl_path(rng)
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(("=", "<", "<=", ">", ">="))
        return f"{path}->size() {op} {rng.randint(0, 3)}"
    if roll < 0.6:
        return f"{path} = {rng.choice(('True', 'False'))}"
    if roll < 0.75:
        return f"{path} = {rng.choice(_OCL_STRINGS)}"
    if roll < 0.9:
        return f"{path} = {rng.choice(('-', ''))}{rng.randint(0, 99)}"
    return f"{path} = {rng.randint(0, 9)}.{rng.randint(0, 99)}"


def ocl_text(rng: random.Random, depth: int = 2) -> str:
    """Random constraint text; identifiers need not resolve to anything."""
    if depth > 0 and rng.random() < 0.55:
        op = " and " if rng.random() < 0.5 else " or "
        parts = [ocl_text(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        parts = [f"({p})" if rng.random() < 0.4 else p for p in parts]
        return op.join(parts)
    return _ocl_atom(rng)
