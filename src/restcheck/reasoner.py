"""Tableau-based satisfiability for the supported ontology fragment.

The fragment is ALC plus unqualified number restrictions, general inclusion
axioms and single-valued data properties with literal values.  There are no
inverse roles and no nominals, which keeps a few things simple: completion
graphs are trees, node labels are final before successors are generated, and
subset blocking against ancestors guarantees termination.

Axioms are absorbed where they can be (lazy unfolding): an inclusion whose
left side is a class name A becomes the rule "when A enters a label, add the
right side", and a disjointness of A and B becomes A's inclusion in not B.
Only the inclusions with a compound left side, which for translated models
are the halves of the state equivalences that say each invariant implies
its state, are internalized as disjunctions that must hold at every node.
Domain and range axioms are applied lazily when edges appear, which avoids
useless universal branching.

Literals are compared by value: nnf rewrites each DataHasValue to the one
spelling of its value that owl.canon_value defines, so equal values are
equal concepts.  An excluded value is then the complement of that concept in
the label, and "a value is required" and "no value" are the label entries
DataExactCard(1, p) and DataExactCard(0, p).  A node keeps only the value it
holds for each property, which single-valuedness needs.

Only a node whose label asks for successors (an existential or an at-least
restriction) is ever blocked.  Blocking a leaf saves no work, and in the
witness it would copy all of its blocker's edges.

Number restrictions are unqualified, so the successors an at-least bound asks
for beyond the existential ones would all get the same label.  One node with
a count stands for them, and the witness unfolds it into that many elements.
A merge is needed only when the existential successors alone exceed an
at-most bound, so the merge choice is always between two of them.

The search is one loop.  The rules at node n change only n and its
successors, and successors are created after n, so the engine keeps a cursor:
every node before it is finished and stays unchanged on every branch.  A
choice (which disjunct of a union, which two successors to merge) pushes
the cursor, copies of the nodes from the cursor on, and the untried
alternatives onto a stack.  A clash pops the next alternative and puts the
saved nodes back, which also drops any node the failed branch created.
Restoring that suffix, rather than undoing a trail of edits, keeps the rules
free of bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import owl
from .model import DataType
from .owl import (Complement, DataExactCard, DataHasValue, ExactCard,
                  Intersection, MaxCard, MinCard, Named, OwlLiteral, Some,
                  Union, UnsupportedAxiomError, canon_value)

MAX_NODES = 5000
MAX_STEPS = 500000


class ReasonerLimitError(Exception):
    """Search exceeded the safety limits; treated as an internal failure."""


# --- normal form -------------------------------------------------------------


@dataclass(frozen=True)
class _Top:
    pass


@dataclass(frozen=True)
class _Bot:
    pass


@dataclass(frozen=True)
class _All:
    """Universal restriction, only ever produced by negating Some."""

    prop: str
    filler: "owl.ClassExpr | _Top | _Bot | _All"


TOP = _Top()
BOT = _Bot()


def _and(args) -> object:
    flat: list = []
    for a in args:
        if isinstance(a, _Top):
            continue
        if isinstance(a, _Bot):
            return BOT
        if isinstance(a, Intersection):
            flat.extend(x for x in a.args if x not in flat)
        elif a not in flat:
            flat.append(a)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return Intersection(tuple(flat))


def _or(args) -> object:
    flat: list = []
    for a in args:
        if isinstance(a, _Bot):
            continue
        if isinstance(a, _Top):
            return TOP
        if isinstance(a, Union):
            flat.extend(x for x in a.args if x not in flat)
        elif a not in flat:
            flat.append(a)
    if not flat:
        return BOT
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def nnf(expr, positive: bool = True):
    """Negation normal form of an owl.ClassExpr, with constant folding."""
    if isinstance(expr, Named):
        return expr if positive else Complement(expr)
    if isinstance(expr, Complement):
        return nnf(expr.arg, not positive)
    if isinstance(expr, Intersection):
        parts = [nnf(a, positive) for a in expr.args]
        return _and(parts) if positive else _or(parts)
    if isinstance(expr, Union):
        parts = [nnf(a, positive) for a in expr.args]
        return _or(parts) if positive else _and(parts)
    if isinstance(expr, Some):
        filler = nnf(expr.filler, positive)
        if positive:
            return BOT if isinstance(filler, _Bot) else Some(expr.prop, filler)
        # no successor may satisfy the filler's negation... i.e. all do
        if isinstance(filler, _Bot):
            return MaxCard(0, expr.prop)
        if isinstance(filler, _Top):
            return TOP
        return _All(expr.prop, filler)
    if isinstance(expr, MinCard):
        if positive:
            return TOP if expr.n == 0 else expr
        return BOT if expr.n == 0 else MaxCard(expr.n - 1, expr.prop)
    if isinstance(expr, MaxCard):
        if positive:
            return expr
        return MinCard(expr.n + 1, expr.prop)
    if isinstance(expr, ExactCard):
        if positive:
            return _and([nnf(MinCard(expr.n, expr.prop)), MaxCard(expr.n, expr.prop)])
        low = BOT if expr.n == 0 else MaxCard(expr.n - 1, expr.prop)
        return _or([low, MinCard(expr.n + 1, expr.prop)])
    if isinstance(expr, DataHasValue):
        # one spelling per value, so that equal values are equal concepts
        has = DataHasValue(expr.prop, canon_value(expr.value))
        return has if positive else Complement(has)
    if isinstance(expr, DataExactCard):
        # data properties are attributes, single-valued everywhere, so the
        # cardinality can only say whether a value exists
        if expr.n > 1:
            return BOT if positive else TOP
        return expr if positive else DataExactCard(1 - expr.n, expr.prop)
    raise TypeError(f"not a class expression: {expr!r}")


# --- compiled TBox -----------------------------------------------------------


@dataclass(frozen=True)
class TBox:
    classes: tuple[str, ...]
    axioms_nnf: tuple       # concepts every node must satisfy
    unfold: dict            # class name -> concepts every member satisfies
    obj_domain: dict
    obj_range: dict
    data_domain: dict
    data_range: dict        # prop -> frozenset[DataType]


def compile_tbox(ontology: owl.Ontology) -> TBox:
    """Compile an ontology for the tableau.

    Inclusion, equivalence and disjointness axioms are split into inclusions
    of one side in the other.  Those whose left side is a class name are
    absorbed into `unfold`; the rest are internalized into per-node
    constraints.  Domains and ranges are kept as edge rules.
    """
    classes: list[str] = []
    globals_: list = []
    unfold: dict[str, list] = {}
    obj_domain: dict[str, list] = {}
    obj_range: dict[str, list] = {}
    data_domain: dict[str, list] = {}
    data_range: dict[str, set] = {}

    def inclusion(sub, sup):
        if isinstance(sub, Named):
            c = nnf(sup, True)
            if not isinstance(c, _Top):
                unfold.setdefault(sub.name, []).append(c)
            return
        c = _or([nnf(sub, False), nnf(sup, True)])
        if not isinstance(c, _Top):
            globals_.append(c)

    for ax in ontology.axioms:
        if isinstance(ax, owl.Declaration):
            if ax.entity is owl.EntityKind.CLASS and ax.name not in classes:
                classes.append(ax.name)
        elif isinstance(ax, owl.SubClassOf):
            inclusion(ax.sub, ax.sup)
        elif isinstance(ax, owl.EquivalentClasses):
            ring = ax.args + (ax.args[0],)
            for a, b in zip(ring, ring[1:]):
                inclusion(a, b)
        elif isinstance(ax, owl.DisjointClasses):
            for i, a in enumerate(ax.args):
                for b in ax.args[i + 1:]:
                    inclusion(a, Complement(b))
        elif isinstance(ax, owl.ObjectPropertyDomain):
            obj_domain.setdefault(ax.prop, []).append(nnf(ax.expr))
        elif isinstance(ax, owl.ObjectPropertyRange):
            obj_range.setdefault(ax.prop, []).append(nnf(ax.expr))
        elif isinstance(ax, owl.DataPropertyDomain):
            data_domain.setdefault(ax.prop, []).append(nnf(ax.expr))
        elif isinstance(ax, owl.DataPropertyRange):
            data_range.setdefault(ax.prop, set()).add(ax.datatype)
        else:
            raise UnsupportedAxiomError(f"unsupported axiom {ax!r}")

    return TBox(tuple(classes), tuple(globals_),
                {k: tuple(v) for k, v in unfold.items()},
                {k: tuple(v) for k, v in obj_domain.items()},
                {k: tuple(v) for k, v in obj_range.items()},
                {k: tuple(v) for k, v in data_domain.items()},
                {k: frozenset(v) for k, v in data_range.items()})


# --- completion graph --------------------------------------------------------


class _Node:
    __slots__ = ("labels", "queue", "parent", "count", "blocker", "done",
                 "succ", "held")

    def __init__(self, parent: int | None, count: int = 1):
        self.labels: dict = {}
        self.queue: list = []
        self.parent = parent
        self.count = count  # how many identical successors the node stands for
        self.blocker: int | None = None
        self.done = False
        self.succ: dict[str, list[int]] = {}
        self.held: dict[str, OwlLiteral] = {}  # data property -> its value

    def copy(self) -> "_Node":
        n = _Node(self.parent, self.count)
        n.labels = dict(self.labels)
        n.queue = list(self.queue)
        n.blocker = self.blocker
        n.done = self.done
        n.succ = {k: list(v) for k, v in self.succ.items()}
        n.held = dict(self.held)
        return n


@dataclass(frozen=True)
class SatResult:
    sat: bool
    witness: owl.FiniteModel | None = field(default=None, compare=False)


class _Engine:
    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self.nodes: list[_Node] = []
        self.cursor = 0  # every node before it is finished
        self.steps = 0

    # -- label management

    def add(self, nid: int, concept) -> bool:
        """Assert a concept at a node; False means the label clashed."""
        node = self.nodes[nid]
        if isinstance(concept, _Top):
            return True
        if isinstance(concept, _Bot):
            return False
        if concept in node.labels:
            return True
        if isinstance(concept, Intersection):
            return all(self.add(nid, a) for a in concept.args)
        node.labels[concept] = None
        if isinstance(concept, Named):
            return (Complement(concept) not in node.labels
                    and all(self.add(nid, c) for c in self.tbox.unfold.get(concept.name, ())))
        if isinstance(concept, Complement):
            inner = concept.arg
            if isinstance(inner, Named):
                return inner not in node.labels
            if isinstance(inner, DataHasValue):
                return (inner not in node.labels
                        and not self._boolean_exhausted(node, inner.prop))
            raise TypeError(f"unexpected complement in label: {concept!r}")
        if isinstance(concept, Union):
            if not any(a in node.labels for a in concept.args):
                node.queue.append(concept)
            return True
        if isinstance(concept, Some):
            if any(isinstance(c, MaxCard) and c.n == 0 and c.prop == concept.prop
                   for c in node.labels):
                return False
            return self._add_domains(nid, self.tbox.obj_domain.get(concept.prop, ()))
        if isinstance(concept, MinCard):
            for c in node.labels:
                if isinstance(c, MaxCard) and c.prop == concept.prop and c.n < concept.n:
                    return False
            return self._add_domains(nid, self.tbox.obj_domain.get(concept.prop, ()))
        if isinstance(concept, MaxCard):
            for c in node.labels:
                if isinstance(c, MinCard) and c.prop == concept.prop and c.n > concept.n:
                    return False
                if isinstance(c, Some) and c.prop == concept.prop and concept.n == 0:
                    return False
            return True
        if isinstance(concept, _All):
            return True
        if isinstance(concept, DataHasValue):
            # literals are canonical (see nnf), so equal values are equal
            # concepts and a second value is a clash
            prop, value = concept.prop, concept.value
            if (node.held.setdefault(prop, value) != value
                    or Complement(concept) in node.labels
                    or DataExactCard(0, prop) in node.labels
                    or any(dt is not value.datatype
                           for dt in self.tbox.data_range.get(prop, ()))):
                return False
            return self._add_domains(nid, self.tbox.data_domain.get(prop, ()))
        if isinstance(concept, DataExactCard):
            prop = concept.prop
            if concept.n == 0:
                return prop not in node.held and DataExactCard(1, prop) not in node.labels
            return (DataExactCard(0, prop) not in node.labels
                    and len(self.tbox.data_range.get(prop, ())) < 2
                    and not self._boolean_exhausted(node, prop)
                    and self._add_domains(nid, self.tbox.data_domain.get(prop, ())))
        raise TypeError(f"cannot assert {concept!r}")

    def _add_domains(self, nid: int, concepts) -> bool:
        return all(self.add(nid, c) for c in concepts)

    def _boolean_exhausted(self, node: _Node, prop: str) -> bool:
        # a required boolean with both truth values excluded cannot be filled
        return (self.tbox.data_range.get(prop) == {DataType.BOOLEAN}
                and DataExactCard(1, prop) in node.labels
                and all(Complement(DataHasValue(prop, OwlLiteral(b, DataType.BOOLEAN)))
                        in node.labels for b in ("true", "false")))

    # -- search

    def new_node(self, parent: int | None, count: int = 1) -> int:
        if len(self.nodes) >= MAX_NODES:
            raise ReasonerLimitError("completion graph grew past the node limit")
        self.nodes.append(_Node(parent, count))
        return len(self.nodes) - 1

    def solve(self) -> bool:
        """Apply the rules until the graph is complete; False when every
        alternative of every choice clashed."""
        stack: list[tuple[int, list[_Node], list]] = []
        while (alts := self._step()) is not None:
            if len(alts) > 1:
                # the untried alternatives, reversed so that pop() takes them in order
                saved = [n.copy() for n in self.nodes[self.cursor:]]
                stack.append((self.cursor, saved, alts[:0:-1]))
            ok = bool(alts) and alts[0]()
            while not ok:
                if not stack:
                    return False
                self.cursor, saved, untried = stack[-1]
                alt = untried.pop()
                if untried:
                    saved = [n.copy() for n in saved]
                else:
                    stack.pop()
                self.nodes[self.cursor:] = saved
                ok = alt()
        return True

    def _step(self):
        """Apply deterministic rules up to the next choice.

        None: the graph is complete.  []: a clash.  Otherwise the
        alternatives, callables that return False on a clash, in the order
        they are to be tried.
        """
        while True:
            self.steps += 1
            if self.steps > MAX_STEPS:
                raise ReasonerLimitError("search exceeded the step limit")
            while self.cursor < len(self.nodes) and self.nodes[self.cursor].done:
                self.cursor += 1
            if self.cursor == len(self.nodes):
                return None
            nid = self.cursor
            node = self.nodes[nid]
            if node.queue:
                union = node.queue.pop(0)
                if not any(a in node.labels for a in union.args):
                    return [partial(self.add, nid, a) for a in union.args]
            elif (alts := self._generate(nid)) is not None:
                return alts

    def _generate(self, nid: int):
        """Successor construction at a node whose label is complete; None
        means progress, otherwise as for _step."""
        node = self.nodes[nid]
        if not node.succ and any(isinstance(c, (Some, MinCard)) for c in node.labels):
            # the first visit of a node that needs successors: it is blocked,
            # or it gets every successor.  Leaves are never blocked
            node.blocker = self._blocked_by(nid)
            if node.blocker is None and not self._create_successors(nid):
                return []
        for role, succs in node.succ.items():
            cap = self._cap(node, role)
            if cap is not None and len(succs) > cap:
                # more fillers than the cap allows, which is at least the
                # at-least bound, so there is no counted node: merge two
                # existential successors, newest pair first, the older surviving
                pairs = [(a, b) for i, a in enumerate(succs) for b in succs[i + 1:]]
                pairs.sort(key=lambda p: (p[1], p[0]), reverse=True)
                return [partial(self._merge, nid, role, a, b) for a, b in pairs]
        node.done = True
        return None

    def _cap(self, node: _Node, role: str):
        caps = [c.n for c in node.labels if isinstance(c, MaxCard) and c.prop == role]
        return min(caps) if caps else None

    def _create_successors(self, nid: int) -> bool:
        """Give the node its successors for every role; False on a clash.

        Each distinct existential filler gets one successor.  When the
        largest at-least bound n exceeds the number k of fillers, one more
        node with count n - k stands for the other successors: the bounds
        are unqualified, so those would all get the same label.  Every new
        node receives its filler, the universal fillers, the range and the
        global axioms at once.
        """
        node = self.nodes[nid]
        fillers: dict[str, list] = {}
        need: dict[str, int] = {}
        alls: dict[str, list] = {}
        for c in node.labels:
            if isinstance(c, Some):
                fs = fillers.setdefault(c.prop, [])
                if c.filler not in fs:
                    fs.append(c.filler)
            elif isinstance(c, MinCard):
                fillers.setdefault(c.prop, [])
                need[c.prop] = max(need.get(c.prop, 0), c.n)
            elif isinstance(c, _All):
                alls.setdefault(c.prop, []).append(c.filler)
        for role, fs in fillers.items():
            common = (*alls.get(role, ()), *self.tbox.obj_range.get(role, ()),
                      *self.tbox.axioms_nnf)
            kids = [(1, (f, *common)) for f in fs]
            if need.get(role, 0) > len(fs):
                kids.append((need[role] - len(fs), common))
            node.succ[role] = []
            for count, concepts in kids:
                child = self.new_node(nid, count)
                node.succ[role].append(child)
                if not all(self.add(child, c) for c in concepts):
                    return False
        return True

    def _merge(self, nid: int, role: str, keep: int, drop: int) -> bool:
        # successors are merged before they are expanded, so the victim's
        # whole state is reachable from its label set; marked done, it is
        # skipped by the search and unreachable from the root
        node = self.nodes[nid]
        self.nodes[drop].done = True
        node.succ[role] = [s for s in node.succ[role] if s != drop]
        return all(self.add(keep, c) for c in self.nodes[drop].labels)

    def _blocked_by(self, nid: int):
        mine = self.nodes[nid].labels.keys()
        anc = self.nodes[nid].parent
        while anc is not None:
            if mine <= self.nodes[anc].labels.keys():
                return anc
            anc = self.nodes[anc].parent
        return None

    # -- witness extraction

    def extract_witness(self) -> owl.FiniteModel:
        """Unfold the graph from the root into a structure, of the type the
        bounded search returns too.

        A node with count c becomes c elements, each with its own copy of
        the node's subtree.  The walk stops where the structure would pass
        MAX_NODES elements, and the cut-off structure is marked not faithful.
        """
        of = [0]                                # element -> its node
        first: dict[int, int] = {}              # node -> its first element
        out: list[list[tuple[str, int]]] = []   # element -> (role, successor)
        classes: dict[str, set[int]] = {}
        values: dict[str, dict[int, OwlLiteral]] = {}
        faithful = True
        for k, nid in enumerate(of):  # `of` grows as the walk goes
            first.setdefault(nid, k)
            # a blocked node never expanded, so it stands for a copy of its
            # blocker: the blocker's classes, values and successors.  That is
            # legal because its label is a subset of the blocker's, and needed
            # because the successors it borrows may ask for classes (domains,
            # unfolded axioms) that only the blocker's label holds
            blocker = self.nodes[nid].blocker
            node = self.nodes[nid if blocker is None else blocker]
            for c in node.labels:
                if isinstance(c, Named):
                    classes.setdefault(c.name, set()).add(k)
                elif isinstance(c, DataExactCard) and c.n == 1 and c.prop not in node.held:
                    lit = self._pick_value(node, c.prop)
                    if lit is None:
                        faithful = False
                    else:
                        values.setdefault(c.prop, {})[k] = lit
            for prop, lit in node.held.items():
                values.setdefault(prop, {})[k] = lit
            if blocker is not None:
                out.append(out[first[blocker]])
                continue
            kids = [(role, s) for role, succs in node.succ.items() for s in succs]
            if len(of) + sum(self.nodes[s].count for _, s in kids) > MAX_NODES:
                faithful = False
                break
            out.append([])
            for role, s in kids:
                for _ in range(self.nodes[s].count):
                    out[k].append((role, len(of)))
                    of.append(s)
        roles: dict[str, set[tuple[int, int]]] = {}
        for k, edges in enumerate(out):
            for role, s in edges:
                roles.setdefault(role, set()).add((k, s))
        return owl.FiniteModel(len(of),
                               {c: frozenset(v) for c, v in classes.items()},
                               {r: frozenset(v) for r, v in roles.items()},
                               values, faithful)

    def _pick_value(self, node: _Node, prop: str):
        """A value for a required property that no label concept fixes: the
        first canonical literal of its range that the label does not exclude."""
        ranges = self.tbox.data_range.get(prop, frozenset())
        dt = next(iter(ranges)) if len(ranges) == 1 else DataType.STRING
        excluded = {c.arg.value for c in node.labels if isinstance(c, Complement)
                    and isinstance(c.arg, DataHasValue) and c.arg.prop == prop}
        if dt is DataType.BOOLEAN:
            candidates = ["true", "false"]
        elif dt in (DataType.INTEGER, DataType.DECIMAL):
            candidates = [str(i) for i in range(len(excluded) + 1)]
        else:
            candidates = [f"v{i}" for i in range(len(excluded) + 1)]
        for lex in candidates:
            lit = OwlLiteral(lex, dt)
            if lit not in excluded:
                return lit
        return None


# --- public entry points -----------------------------------------------------


def is_satisfiable(tbox: TBox, concept) -> SatResult:
    """Decide satisfiability of a class (fragment name or expression)."""
    if isinstance(concept, str):
        concept = Named(concept)
    engine = _Engine(tbox)
    root = engine.new_node(None)
    query = nnf(concept)
    ok = engine.add(root, query)
    for c in tbox.axioms_nnf:
        ok = ok and engine.add(root, c)
    if not ok or not engine.solve():
        return SatResult(False)
    return SatResult(True, engine.extract_witness())


def classify_all(tbox: TBox) -> list[tuple[str, SatResult]]:
    """Satisfiability of every declared class, in declaration order."""
    return [(name, is_satisfiable(tbox, name)) for name in tbox.classes]
