"""Core model types for REST resource and behavior descriptions.

A resource model is a set of named resources (normal or collection) linked by
labelled, directed associations with multiplicities.  A behavioral model is a
state machine attached to one resource, whose states may carry invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .diagnostics import Code, Diagnostic, SourceSpan, error

if TYPE_CHECKING:
    from .ocl import OclExpr


class ResourceKind(enum.Enum):
    NORMAL = "normal"
    COLLECTION = "collection"


class DataType(enum.Enum):
    STRING = "string"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    DECIMAL = "decimal"


class Trigger(enum.Enum):
    PUT = "PUT"
    POST = "POST"
    DELETE = "DELETE"


class StateKind(enum.Enum):
    SIMPLE = "simple"
    INITIAL = "initial"
    FINAL = "final"


@dataclass(frozen=True)
class AttributeDef:
    name: str
    datatype: DataType
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ResourceDef:
    name: str
    kind: ResourceKind
    is_root: bool = False
    parent: str | None = None
    attributes: tuple[AttributeDef, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Association:
    """Directed link between two resources; max is None for unbounded."""

    label: str
    source: str
    target: str
    min: int
    max: int | None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ResourceModel:
    name: str
    resources: tuple[ResourceDef, ...] = ()
    associations: tuple[Association, ...] = ()

    def resource(self, name: str) -> ResourceDef | None:
        for r in self.resources:
            if r.name == name:
                return r
        return None

    def association(self, label: str) -> Association | None:
        for a in self.associations:
            if a.label == label:
                return a
        return None

    def root(self) -> ResourceDef | None:
        roots = [r for r in self.resources if r.is_root]
        return roots[0] if len(roots) == 1 else None

    def attributes_of(self, name: str) -> tuple[AttributeDef, ...]:
        """Attributes declared on a resource or inherited from its parents."""
        out: list[AttributeDef] = []
        seen: set[str] = set()
        cur = self.resource(name)
        hops = 0
        while cur is not None and hops <= len(self.resources):
            for att in cur.attributes:
                if att.name not in seen:
                    seen.add(att.name)
                    out.append(att)
            cur = self.resource(cur.parent) if cur.parent else None
            hops += 1
        return tuple(out)


@dataclass(frozen=True)
class State:
    name: str
    kind: StateKind = StateKind.SIMPLE
    parent: str | None = None
    region: int = 0
    invariant: "OclExpr | None" = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    trigger: Trigger
    target_resource: str | None = None
    guard: str = ""
    post: str = ""
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BehavioralModel:
    name: str
    for_resource: str
    states: tuple[State, ...] = ()
    transitions: tuple[Transition, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def state(self, name: str) -> State | None:
        for s in self.states:
            if s.name == name:
                return s
        return None


# --- structural validation ---------------------------------------------------


def validate_resource_model(rm: ResourceModel) -> list[Diagnostic]:
    """Check the structural rules for a resource model.

    Returns one diagnostic per violation; an empty list means the model is
    fit for translation.
    """
    diags: list[Diagnostic] = []
    by_name: dict[str, ResourceDef] = {}
    for r in rm.resources:
        if r.name in by_name:
            diags.append(error(Code.DUPLICATE_LABEL,
                               f"duplicate resource name '{r.name}'", r.span))
        else:
            by_name[r.name] = r

    for r in rm.resources:
        if r.parent is not None and r.parent not in by_name:
            diags.append(error(Code.UNRESOLVED_PATH,
                               f"resource '{r.name}' extends unknown resource '{r.parent}'",
                               r.span))
        elif _parent_cycle(by_name, r):
            # a generalization hierarchy must be acyclic
            diags.append(error(Code.CONNECTIVITY,
                               f"inheritance cycle involving '{r.name}'", r.span))
        seen_attrs: set[str] = set()
        for att in r.attributes:
            if att.name in seen_attrs:
                diags.append(error(Code.DUPLICATE_LABEL,
                                   f"duplicate attribute '{att.name}' on resource '{r.name}'",
                                   att.span or r.span))
            seen_attrs.add(att.name)
        if r.kind is ResourceKind.COLLECTION and r.attributes:
            diags.append(error(Code.COLLECTION_HAS_ATTR,
                               f"collection '{r.name}' must not declare attributes",
                               r.span))
        # with an unknown ancestor the inherited attributes are unknown too
        if (r.kind is ResourceKind.NORMAL and not rm.attributes_of(r.name)
                and not _unknown_ancestor(by_name, r)):
            diags.append(error(Code.NORMAL_NO_ATTR,
                               f"resource '{r.name}' declares no attributes",
                               r.span))

    seen_labels: set[str] = set()
    for a in rm.associations:
        if a.label in seen_labels:
            diags.append(error(Code.DUPLICATE_LABEL,
                               f"duplicate association label '{a.label}'", a.span))
        seen_labels.add(a.label)
        for end in (a.source, a.target):
            if end not in by_name:
                diags.append(error(Code.UNRESOLVED_PATH,
                                   f"association '{a.label}' refers to unknown resource '{end}'",
                                   a.span))
        if a.min < 0:
            diags.append(error(Code.BAD_CARDINALITY,
                               f"association '{a.label}' has negative multiplicity", a.span))
        elif a.max is not None and a.min > a.max:
            diags.append(error(Code.BAD_CARDINALITY,
                               f"association '{a.label}' has min {a.min} greater than max {a.max}",
                               a.span))

    roots = [r for r in rm.resources if r.is_root]
    if not roots:
        diags.append(error(Code.CONNECTIVITY, "model declares no root resource"))
    elif len(roots) > 1:
        extra = ", ".join(f"'{r.name}'" for r in roots[1:])
        diags.append(error(Code.CONNECTIVITY,
                           f"model declares more than one root resource ({extra} besides '{roots[0].name}')",
                           roots[1].span))
    else:
        # Addressability: every resource must be reachable from the root by
        # following associations forward.
        reachable = {roots[0].name}
        frontier = [roots[0].name]
        while frontier:
            cur = frontier.pop()
            for a in rm.associations:
                if a.source == cur and a.target in by_name and a.target not in reachable:
                    reachable.add(a.target)
                    frontier.append(a.target)
        for r in rm.resources:
            if r.name not in reachable:
                diags.append(error(Code.CONNECTIVITY,
                                   f"resource '{r.name}' is not reachable from root '{roots[0].name}'",
                                   r.span))
    return diags


def _parent_cycle(lookup: dict[str, ResourceDef] | dict[str, State],
                  start: ResourceDef | State) -> bool:
    """Whether following parents from start, by name in lookup, runs into a
    cycle: start is on one or leads into one."""
    seen = set()
    cur = start
    while cur is not None and cur.parent is not None:
        if cur.name in seen:
            return True
        seen.add(cur.name)
        cur = lookup.get(cur.parent)
    return cur is not None and cur.name in seen


def _unknown_ancestor(lookup: dict[str, ResourceDef], start: ResourceDef) -> bool:
    """Whether following parents from start reaches a name not in lookup."""
    cur, hops = start, 0
    while cur.parent is not None and hops <= len(lookup):
        if cur.parent not in lookup:
            return True
        cur, hops = lookup[cur.parent], hops + 1
    return False


def validate_behavioral_model(bm: BehavioralModel, rm: ResourceModel) -> list[Diagnostic]:
    """Check that a behavioral model is well formed against its resource model."""
    from .ocl import PathError, resolve_path

    diags: list[Diagnostic] = []
    if rm.resource(bm.for_resource) is None:
        diags.append(error(Code.UNRESOLVED_PATH,
                           f"behavioral model '{bm.name}' is for unknown resource '{bm.for_resource}'",
                           bm.span))

    by_name: dict[str, State] = {}
    for s in bm.states:
        if s.name in by_name:
            diags.append(error(Code.DUPLICATE_LABEL, f"duplicate state name '{s.name}'", s.span))
        else:
            by_name[s.name] = s

    for s in bm.states:
        if s.parent is not None:
            parent = by_name.get(s.parent)
            if parent is None:
                diags.append(error(Code.UNRESOLVED_PATH,
                                   f"state '{s.name}' is declared inside unknown state '{s.parent}'",
                                   s.span))
            elif parent.kind in (StateKind.INITIAL, StateKind.FINAL):
                diags.append(error(Code.UNRESOLVED_PATH,
                                   f"state '{s.name}' cannot be nested inside pseudostate '{s.parent}'",
                                   s.span))
            elif _parent_cycle(by_name, s):
                diags.append(error(Code.CONNECTIVITY,
                                   f"state containment cycle involving '{s.name}'", s.span))

    initials = [s for s in bm.states if s.kind is StateKind.INITIAL]
    if not initials:
        diags.append(error(Code.CONNECTIVITY,
                           f"behavioral model '{bm.name}' has no initial state",
                           bm.span))
    elif len(initials) > 1:
        diags.append(error(Code.DUPLICATE_LABEL,
                           f"behavioral model '{bm.name}' has more than one initial state",
                           initials[1].span))

    for t in bm.transitions:
        for end in (t.source, t.target):
            if end not in by_name:
                diags.append(error(Code.UNRESOLVED_PATH,
                                   f"transition refers to unknown state '{end}'", t.span))
        if t.target_resource is not None and rm.resource(t.target_resource) is None:
            diags.append(error(Code.UNRESOLVED_PATH,
                               f"transition refers to unknown resource '{t.target_resource}'",
                               t.span))

    if rm.resource(bm.for_resource) is not None:
        for s in bm.states:
            if s.invariant is None:
                continue
            for path, needs_attribute in _invariant_paths(s.invariant):
                try:
                    resolve_path(rm, bm.for_resource, path, attribute=needs_attribute)
                except PathError as exc:
                    diags.append(error(Code.UNRESOLVED_PATH,
                                       f"invariant of state '{s.name}': {exc}", s.span))
    return diags


def _invariant_paths(expr: "OclExpr"):
    from .ocl import AttrEq, OclAnd, OclOr, SizeCmp

    if isinstance(expr, (OclAnd, OclOr)):
        for arg in expr.args:
            yield from _invariant_paths(arg)
    elif isinstance(expr, AttrEq):
        yield expr.path, True
    elif isinstance(expr, SizeCmp):
        yield expr.path, False
