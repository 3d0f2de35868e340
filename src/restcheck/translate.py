"""Translation of resource and behavioral models into ontology axioms, in one
pass over both (translate_models).

Every resource and every proper state becomes a named class; associations
become object properties with domain, range and cardinality axioms; typed
attributes become functional data properties; state invariants become class
definitions via EquivalentClasses.  The IriMap records which model element
each IRI fragment stands for so reasoning verdicts can be reported against
the source model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import owl
from .diagnostics import Code, Diagnostic, SourceSpan, error, has_errors
from .model import (Association, BehavioralModel, ResourceKind, ResourceModel,
                    State, StateKind, validate_behavioral_model,
                    validate_resource_model)
from .ocl import AttrEq, CmpOp, OclAnd, OclExpr, OclOr, SizeCmp, resolve_path


class ElementKind(enum.Enum):
    RESOURCE = "resource"
    STATE = "state"
    ASSOCIATION = "association"
    ATTRIBUTE = "attribute"


@dataclass(frozen=True)
class IriEntry:
    kind: ElementKind
    name: str
    owner: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)


class InvalidModelError(Exception):
    """Raised when translation is asked to run on a structurally broken model.

    `diagnostics` holds every validation diagnostic, in validation order.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        lines = "; ".join(d.message for d in diagnostics)
        super().__init__(f"model fails validation: {lines}")
        self.diagnostics = tuple(diagnostics)


class IriMap:
    """Bidirectional registry of IRI fragments per OWL symbol space.

    Classes, object properties and data properties are separate spaces, so a
    collection resource and an association pointing at it may legally share a
    fragment.  Within one space fragments are unique.
    """

    def __init__(self):
        self.classes: dict[str, IriEntry] = {}
        self.object_props: dict[str, IriEntry] = {}
        self.data_props: dict[str, IriEntry] = {}
        self._fragments: dict[tuple[ElementKind, str | None, str], str] = {}

    def _claim(self, space: dict[str, IriEntry], wanted: str, entry: IriEntry) -> str:
        fragment = wanted
        n = 2
        while fragment in space:
            fragment = f"{wanted}_{n}"
            n += 1
        space[fragment] = entry
        self._fragments.setdefault((entry.kind, entry.owner, entry.name), fragment)
        return fragment

    def add_resource(self, r) -> str:
        return self._claim(self.classes, r.name,
                           IriEntry(ElementKind.RESOURCE, r.name, span=r.span))

    def add_state(self, s: State) -> str:
        return self._claim(self.classes, f"State_{s.name}",
                           IriEntry(ElementKind.STATE, s.name, span=s.span))

    def add_association(self, a: Association) -> str:
        return self._claim(self.object_props, a.label,
                           IriEntry(ElementKind.ASSOCIATION, a.label, span=a.span))

    def add_attribute(self, owner: str, att) -> str:
        wanted = att.name if att.name not in self.data_props else f"{owner}_{att.name}"
        return self._claim(self.data_props, wanted,
                           IriEntry(ElementKind.ATTRIBUTE, att.name, owner=owner,
                                    span=att.span))

    def class_of_resource(self, name: str) -> str:
        return self._fragments[(ElementKind.RESOURCE, None, name)]

    def class_of_state(self, name: str) -> str:
        return self._fragments[(ElementKind.STATE, None, name)]

    def prop_of_association(self, label: str) -> str:
        return self._fragments[(ElementKind.ASSOCIATION, None, label)]

    def prop_of_attribute(self, owner: str, name: str) -> str:
        return self._fragments[(ElementKind.ATTRIBUTE, owner, name)]


def _sibling_groups(rm: ResourceModel) -> list[list[str]]:
    groups: list[list[str]] = []
    top = [r.name for r in rm.resources if r.parent is None]
    groups.append(top)
    for parent in rm.resources:
        children = [r.name for r in rm.resources if r.parent == parent.name]
        if children:
            groups.append(children)
    return groups


def _state_groups(bm: BehavioralModel) -> list[list[str]]:
    reasoned = [s for s in bm.states if s.kind is StateKind.SIMPLE]
    keys: list[tuple[str | None, int]] = []
    for s in reasoned:
        key = (s.parent, s.region)
        if key not in keys:
            keys.append(key)
    return [[s.name for s in reasoned if (s.parent, s.region) == key]
            for key in keys]


def translate_ocl(expr: OclExpr, rm: ResourceModel, context: str, iris: IriMap,
                  diagnostics: list[Diagnostic] | None = None,
                  at: State | None = None) -> owl.ClassExpr:
    """Turn an invariant into a class expression over the translated model."""
    if isinstance(expr, OclAnd):
        return owl.Intersection(tuple(
            translate_ocl(a, rm, context, iris, diagnostics, at) for a in expr.args))
    if isinstance(expr, OclOr):
        return owl.Union(tuple(
            translate_ocl(a, rm, context, iris, diagnostics, at) for a in expr.args))
    if isinstance(expr, AttrEq):
        resolved = resolve_path(rm, context, expr.path, attribute=True)
        assert resolved.attribute is not None
        # the property belongs to the resource that declares the attribute,
        # which may be a parent of the one the path ends at
        owner = rm.resource(resolved.resource)
        while resolved.attribute not in owner.attributes:
            owner = rm.resource(owner.parent)
        prop = iris.prop_of_attribute(owner.name, resolved.attribute.name)
        value = owl.OwlLiteral(expr.value.lexical, expr.value.datatype)
        inner: owl.ClassExpr = owl.DataHasValue(prop, value)
        return _wrap(resolved.associations, iris, inner)
    if isinstance(expr, SizeCmp):
        resolved = resolve_path(rm, context, expr.path, attribute=False)
        last = resolved.associations[-1]
        prop = iris.prop_of_association(last.label)
        inner = _cardinality(expr, prop, diagnostics, at)
        return _wrap(resolved.associations[:-1], iris, inner)
    raise TypeError(f"not an invariant expression: {expr!r}")


def _cardinality(cmp: SizeCmp, prop: str,
                 diagnostics: list[Diagnostic] | None,
                 at: State | None) -> owl.ClassExpr:
    if cmp.op is CmpOp.EQ:
        return owl.ExactCard(cmp.bound, prop)
    if cmp.op is CmpOp.GE:
        return owl.MinCard(cmp.bound, prop)
    if cmp.op is CmpOp.GT:
        return owl.MinCard(cmp.bound + 1, prop)
    if cmp.op is CmpOp.LE:
        return owl.MaxCard(cmp.bound, prop)
    # strictly-below: size() < 0 cannot hold, encode an empty class so the
    # unsatisfiability is visible to the reasoner instead of emitting a
    # malformed negative cardinality
    if cmp.bound == 0:
        if diagnostics is not None:
            where = f" in invariant of state '{at.name}'" if at is not None else ""
            diagnostics.append(error(
                Code.NEGATIVE_BOUND,
                f"size() < 0 can never hold{where}",
                cmp.span or (at.span if at is not None else None)))
        return owl.Intersection((owl.MinCard(1, prop), owl.MaxCard(0, prop)))
    return owl.MaxCard(cmp.bound - 1, prop)


def _wrap(hops, iris: IriMap, inner: owl.ClassExpr) -> owl.ClassExpr:
    for assoc in reversed(tuple(hops)):
        inner = owl.Some(iris.prop_of_association(assoc.label), inner)
    return inner


def translate_models(rm: ResourceModel, bm: BehavioralModel | None,
                     base_iri: str = owl.DEFAULT_BASE_IRI
                     ) -> tuple[owl.Ontology, IriMap, list[Diagnostic]]:
    """Translate a resource model and optional behavior in one call.

    Both models are validated first; if any check fails, InvalidModelError
    carries every validation diagnostic and nothing is translated.
    Invariants with an impossible size bound are still translated (to an
    explicitly empty class) and reported in the returned diagnostics.
    """
    diagnostics = validate_resource_model(rm)
    if bm is not None:
        diagnostics += validate_behavioral_model(bm, rm)
    if has_errors(diagnostics):
        raise InvalidModelError(diagnostics)

    iris = IriMap()
    axioms: list[owl.Axiom] = []
    for r in rm.resources:
        fragment = iris.add_resource(r)
        axioms.append(owl.Declaration(owl.EntityKind.CLASS, fragment))

    for r in rm.resources:
        if r.parent is not None:
            axioms.append(owl.SubClassOf(
                owl.Named(iris.class_of_resource(r.name)),
                owl.Named(iris.class_of_resource(r.parent))))

    # resources sharing a parent (or the top level) are mutually exclusive
    for group in _sibling_groups(rm):
        if len(group) > 1:
            axioms.append(owl.DisjointClasses(
                tuple(owl.Named(iris.class_of_resource(n)) for n in group)))

    for r in rm.resources:
        if r.kind is not ResourceKind.NORMAL:
            continue
        owner_cls = iris.class_of_resource(r.name)
        for att in r.attributes:
            prop = iris.add_attribute(r.name, att)
            axioms.append(owl.Declaration(owl.EntityKind.DATA_PROPERTY, prop))
            axioms.append(owl.SubClassOf(owl.Named(owner_cls),
                                         owl.DataExactCard(1, prop)))
            axioms.append(owl.DataPropertyDomain(prop, owl.Named(owner_cls)))
            axioms.append(owl.DataPropertyRange(prop, att.datatype))

    for a in rm.associations:
        prop = iris.add_association(a)
        source_cls = owl.Named(iris.class_of_resource(a.source))
        target_cls = owl.Named(iris.class_of_resource(a.target))
        axioms.append(owl.Declaration(owl.EntityKind.OBJECT_PROPERTY, prop))
        axioms.append(owl.ObjectPropertyDomain(prop, source_cls))
        axioms.append(owl.ObjectPropertyRange(prop, target_cls))
        if a.min > 0:
            axioms.append(owl.SubClassOf(source_cls, owl.MinCard(a.min, prop)))
        if a.max is not None:
            axioms.append(owl.SubClassOf(source_cls, owl.MaxCard(a.max, prop)))

    if bm is not None:
        anchor = owl.Named(iris.class_of_resource(bm.for_resource))
        proper = [s for s in bm.states if s.kind is not StateKind.INITIAL]
        for s in proper:
            fragment = iris.add_state(s)
            axioms.append(owl.Declaration(owl.EntityKind.CLASS, fragment))
            axioms.append(owl.SubClassOf(owl.Named(fragment), anchor))

        for s in proper:
            if s.parent is not None:
                axioms.append(owl.SubClassOf(
                    owl.Named(iris.class_of_state(s.name)),
                    owl.Named(iris.class_of_state(s.parent))))

        # states that can be active at the same place in the machine exclude
        # each other; final states are left out, they overlap the states they end
        for group in _state_groups(bm):
            if len(group) > 1:
                axioms.append(owl.DisjointClasses(
                    tuple(owl.Named(iris.class_of_state(n)) for n in group)))

        for s in proper:
            if s.invariant is None:
                continue
            expr = translate_ocl(s.invariant, rm, bm.for_resource, iris,
                                 diagnostics=diagnostics, at=s)
            axioms.append(owl.EquivalentClasses(
                (owl.Named(iris.class_of_state(s.name)), expr)))

    return owl.Ontology(base_iri, tuple(axioms)), iris, diagnostics
