"""Bounded model finding, independent of the tableau.

Satisfiability of a class is checked by exhaustive search for a finite
structure over domains of size 1..k: the ontology is grounded to
propositional clauses and handed to a conflict-driven (CDCL) solver with
first-UIP clause learning.  `BoundedSearch` grounds each domain size once
and decides every class on that grounding by solving under the assumption
that element 0 is in the class, keeping learned clauses across queries.

Data properties are interpreted as partial functions over a finite literal
universe (the values written in the ontology, in the spelling
owl.canon_value gives them, plus a fresh one), which matches how the
translation uses them.

Any structure the search returns is re-checked against the axioms by a
direct evaluator before it is reported, so a positive answer carries its
own proof.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from . import owl
from .model import DataType
from .owl import (Complement, DataExactCard, DataHasValue, ExactCard,
                  FiniteModel, Intersection, MaxCard, MinCard, Named,
                  OwlLiteral, Some, Union, canon_value)

ORACLE_MAX_DOMAIN = 6


class BoundTooLargeError(Exception):
    pass


class OracleInternalError(Exception):
    """The search produced a structure the evaluator rejects; a bug."""


class OracleStatus(enum.Enum):
    SAT = "sat"
    NO_MODEL_UP_TO_BOUND = "no_model_up_to_bound"


@dataclass(frozen=True)
class OracleResult:
    status: OracleStatus
    bound: int
    model: FiniteModel | None = None


# --- direct evaluation -------------------------------------------------------


def eval_expr(model: FiniteModel, expr: owl.ClassExpr, i: int) -> bool:
    if isinstance(expr, Named):
        return i in model.classes.get(expr.name, frozenset())
    if isinstance(expr, Intersection):
        return all(eval_expr(model, a, i) for a in expr.args)
    if isinstance(expr, Union):
        return any(eval_expr(model, a, i) for a in expr.args)
    if isinstance(expr, Complement):
        return not eval_expr(model, expr.arg, i)
    if isinstance(expr, Some):
        edges = model.roles.get(expr.prop, frozenset())
        return any(a == i and eval_expr(model, expr.filler, b) for a, b in edges)
    if isinstance(expr, (MinCard, MaxCard, ExactCard)):
        count = sum(1 for a, _ in model.roles.get(expr.prop, frozenset()) if a == i)
        if isinstance(expr, MinCard):
            return count >= expr.n
        if isinstance(expr, MaxCard):
            return count <= expr.n
        return count == expr.n
    if isinstance(expr, DataHasValue):
        held = model.values.get(expr.prop, {}).get(i)
        return held is not None and canon_value(held) == canon_value(expr.value)
    if isinstance(expr, DataExactCard):
        has = i in model.values.get(expr.prop, {})
        if expr.n == 1:
            return has
        if expr.n == 0:
            return not has
        return False  # values are single-valued here
    raise TypeError(f"not a class expression: {expr!r}")


def violations(model: FiniteModel, ontology: owl.Ontology) -> list[str]:
    """Axioms the structure fails, described for humans; empty means a model."""
    bad: list[str] = []
    domain = range(model.size)
    for ax in ontology.axioms:
        if isinstance(ax, owl.SubClassOf):
            for i in domain:
                if eval_expr(model, ax.sub, i) and not eval_expr(model, ax.sup, i):
                    bad.append(f"element {i} breaks {owl.format_axiom(ax)}")
        elif isinstance(ax, owl.EquivalentClasses):
            for i in domain:
                values = {eval_expr(model, a, i) for a in ax.args}
                if len(values) > 1:
                    bad.append(f"element {i} breaks {owl.format_axiom(ax)}")
        elif isinstance(ax, owl.DisjointClasses):
            for i in domain:
                if sum(1 for a in ax.args if eval_expr(model, a, i)) > 1:
                    bad.append(f"element {i} breaks {owl.format_axiom(ax)}")
        elif isinstance(ax, owl.ObjectPropertyDomain):
            for a, _ in model.roles.get(ax.prop, frozenset()):
                if not eval_expr(model, ax.expr, a):
                    bad.append(f"edge source {a} breaks {owl.format_axiom(ax)}")
        elif isinstance(ax, owl.ObjectPropertyRange):
            for _, b in model.roles.get(ax.prop, frozenset()):
                if not eval_expr(model, ax.expr, b):
                    bad.append(f"edge target {b} breaks {owl.format_axiom(ax)}")
        elif isinstance(ax, owl.DataPropertyDomain):
            for i in model.values.get(ax.prop, {}):
                if not eval_expr(model, ax.expr, i):
                    bad.append(f"element {i} breaks {owl.format_axiom(ax)}")
        elif isinstance(ax, owl.DataPropertyRange):
            for i, lit in model.values.get(ax.prop, {}).items():
                if lit.datatype is not ax.datatype:
                    bad.append(f"value at {i} breaks {owl.format_axiom(ax)}")
    return bad


def check_witness(ontology: owl.Ontology, class_name: str,
                  structure: FiniteModel) -> list[str]:
    """Why the structure is not a model of the ontology with element 0 in the
    class; empty when it is."""
    problems = violations(structure, ontology)
    if not eval_expr(structure, Named(class_name), 0):
        problems.append(f"element 0 is not a member of {class_name}")
    return problems


# --- propositional encoding --------------------------------------------------


class _Cnf:
    def __init__(self):
        self.count = 1  # var 1 is the constant TRUE
        self.clauses: list[list[int]] = [[1]]

    def new_var(self) -> int:
        self.count += 1
        return self.count

    @property
    def true(self) -> int:
        return 1

    @property
    def false(self) -> int:
        return -1

    def add(self, clause: list[int]):
        self.clauses.append(clause)


class _Encoder:
    def __init__(self, ontology: owl.Ontology, size: int):
        self.ontology = ontology
        self.size = size
        self.cnf = _Cnf()
        self.class_vars: dict[tuple[str, int], int] = {}
        self.role_vars: dict[tuple[str, int, int], int] = {}
        self.val_vars: dict[tuple[str, int, OwlLiteral], int] = {}
        self.has_vars: dict[tuple[str, int], int] = {}
        self.gates: dict[tuple[owl.ClassExpr, int], int] = {}
        self.universes: dict[str, list[OwlLiteral]] = {}
        self._collect_signature()
        self._build_data_vars()
        self._ground_axioms()

    # -- signature

    def _collect_signature(self):
        classes: list[str] = []
        roles: list[str] = []
        data_props: list[str] = []
        literals: list[OwlLiteral] = []
        ranges: dict[str, set[DataType]] = {}

        def register(seq, name):
            if name not in seq:
                seq.append(name)

        for ax in self.ontology.axioms:
            if isinstance(ax, owl.Declaration):
                if ax.entity is owl.EntityKind.CLASS:
                    register(classes, ax.name)
                elif ax.entity is owl.EntityKind.OBJECT_PROPERTY:
                    register(roles, ax.name)
                else:
                    register(data_props, ax.name)
            elif isinstance(ax, (owl.ObjectPropertyDomain, owl.ObjectPropertyRange)):
                register(roles, ax.prop)
            elif isinstance(ax, owl.DataPropertyDomain):
                register(data_props, ax.prop)
            elif isinstance(ax, owl.DataPropertyRange):
                register(data_props, ax.prop)
                ranges.setdefault(ax.prop, set()).add(ax.datatype)
        for e in self.ontology.class_exprs():
            for sub in owl.walk(e):
                if isinstance(sub, Named):
                    register(classes, sub.name)
                elif isinstance(sub, (Some, MinCard, MaxCard, ExactCard)):
                    register(roles, sub.prop)
                elif isinstance(sub, (DataHasValue, DataExactCard)):
                    register(data_props, sub.prop)
                    if isinstance(sub, DataHasValue):
                        register(literals, canon_value(sub.value))

        self.classes = classes
        self.roles = roles
        self.data_props = data_props
        self.ranges = ranges
        for c in classes:
            for i in range(self.size):
                self.class_vars[(c, i)] = self.cnf.new_var()
        for r in roles:
            for i in range(self.size):
                for j in range(self.size):
                    self.role_vars[(r, i, j)] = self.cnf.new_var()
        for p in data_props:
            self.universes[p] = self._universe(p, literals)

    def _universe(self, prop: str, literals: list[OwlLiteral]) -> list[OwlLiteral]:
        declared = self.ranges.get(prop, set())
        if len(declared) > 1:
            return []  # two range datatypes leave no legal value
        if len(declared) == 1:
            dt = next(iter(declared))
            pool = [x for x in literals if x.datatype is dt]
            fresh = _fresh_literal(dt, pool)
        else:
            pool = list(literals)
            fresh = _fresh_literal(DataType.STRING,
                                   [x for x in pool if x.datatype is DataType.STRING])
        if fresh is not None:
            pool = pool + [fresh]
        return pool

    def _build_data_vars(self):
        for p in self.data_props:
            universe = self.universes[p]
            for i in range(self.size):
                slots = []
                for lit in universe:
                    v = self.cnf.new_var()
                    self.val_vars[(p, i, lit)] = v
                    slots.append(v)
                # at most one value per element
                for a, b in itertools.combinations(slots, 2):
                    self.cnf.add([-a, -b])
                has = self.cnf.new_var()
                self.has_vars[(p, i)] = has
                self.cnf.add([-has] + slots)
                for v in slots:
                    self.cnf.add([-v, has])

    # -- expression grounding

    def denote(self, expr: owl.ClassExpr, i: int) -> int:
        key = (expr, i)
        if key in self.gates:
            return self.gates[key]
        lit = self._denote(expr, i)
        self.gates[key] = lit
        return lit

    def _denote(self, expr: owl.ClassExpr, i: int) -> int:
        cnf = self.cnf
        if isinstance(expr, Named):
            return self.class_vars.get((expr.name, i), cnf.false)
        if isinstance(expr, Complement):
            return -self.denote(expr.arg, i)
        if isinstance(expr, Intersection):
            parts = [self.denote(a, i) for a in expr.args]
            g = cnf.new_var()
            for p in parts:
                cnf.add([-g, p])
            cnf.add([g] + [-p for p in parts])
            return g
        if isinstance(expr, Union):
            parts = [self.denote(a, i) for a in expr.args]
            g = cnf.new_var()
            for p in parts:
                cnf.add([-p, g])
            cnf.add([-g] + parts)
            return g
        if isinstance(expr, Some):
            hits = []
            for j in range(self.size):
                e = self.role_vars[(expr.prop, i, j)]
                f = self.denote(expr.filler, j)
                c = cnf.new_var()
                cnf.add([-c, e])
                cnf.add([-c, f])
                cnf.add([c, -e, -f])
                hits.append(c)
            g = cnf.new_var()
            for h in hits:
                cnf.add([-h, g])
            cnf.add([-g] + hits)
            return g
        if isinstance(expr, ExactCard):
            pair = Intersection((MinCard(expr.n, expr.prop), MaxCard(expr.n, expr.prop)))
            return self.denote(pair, i)
        if isinstance(expr, (MinCard, MaxCard)):
            return self._denote_count(expr, i)
        if isinstance(expr, DataHasValue):
            return self.val_vars.get((expr.prop, i, canon_value(expr.value)), cnf.false)
        if isinstance(expr, DataExactCard):
            has = self.has_vars.get((expr.prop, i), cnf.false)
            if expr.n == 1:
                return has
            if expr.n == 0:
                return -has
            return cnf.false  # single-valued interpretation
        raise TypeError(f"not a class expression: {expr!r}")

    def _denote_count(self, expr: MinCard | MaxCard, i: int) -> int:
        cnf = self.cnf
        edges = [self.role_vars[(expr.prop, i, j)] for j in range(self.size)]
        total = len(edges)
        n = expr.n
        if isinstance(expr, MinCard):
            if n == 0:
                return cnf.true
            if n > total:
                return cnf.false
            g = cnf.new_var()
            # g -> at least n: every (total-n+1)-subset contains a true edge
            for subset in itertools.combinations(edges, total - n + 1):
                cnf.add([-g] + list(subset))
            # not g -> at most n-1: every n-subset contains a false edge
            for subset in itertools.combinations(edges, n):
                cnf.add([g] + [-e for e in subset])
            return g
        if n >= total:
            return cnf.true
        g = cnf.new_var()
        # g -> at most n
        for subset in itertools.combinations(edges, n + 1):
            cnf.add([-g] + [-e for e in subset])
        # not g -> at least n+1
        for subset in itertools.combinations(edges, total - n):
            cnf.add([g] + list(subset))
        return g

    # -- axiom grounding

    def _ground_axioms(self):
        cnf = self.cnf
        for ax in self.ontology.axioms:
            if isinstance(ax, owl.SubClassOf):
                for i in range(self.size):
                    cnf.add([-self.denote(ax.sub, i), self.denote(ax.sup, i)])
            elif isinstance(ax, owl.EquivalentClasses):
                ring = ax.args + (ax.args[0],)
                for a, b in zip(ring, ring[1:]):
                    for i in range(self.size):
                        cnf.add([-self.denote(a, i), self.denote(b, i)])
            elif isinstance(ax, owl.DisjointClasses):
                for a, b in itertools.combinations(ax.args, 2):
                    for i in range(self.size):
                        cnf.add([-self.denote(a, i), -self.denote(b, i)])
            elif isinstance(ax, owl.ObjectPropertyDomain):
                for i in range(self.size):
                    for j in range(self.size):
                        cnf.add([-self.role_vars[(ax.prop, i, j)], self.denote(ax.expr, i)])
            elif isinstance(ax, owl.ObjectPropertyRange):
                for i in range(self.size):
                    for j in range(self.size):
                        cnf.add([-self.role_vars[(ax.prop, i, j)], self.denote(ax.expr, j)])
            elif isinstance(ax, owl.DataPropertyDomain):
                for i in range(self.size):
                    cnf.add([-self.has_vars[(ax.prop, i)], self.denote(ax.expr, i)])

    def decode(self, assignment: list[bool | None], member_of: str) -> FiniteModel:
        """The structure an assignment describes.  A class outside the
        signature is unconstrained, so element 0 alone is put in it."""
        def truth(v: int) -> bool:
            return bool(assignment[v])

        classes = {c: frozenset(i for i in range(self.size)
                                if truth(self.class_vars[(c, i)]))
                   for c in self.classes}
        classes.setdefault(member_of, frozenset({0}))
        roles = {r: frozenset((i, j) for i in range(self.size)
                              for j in range(self.size)
                              if truth(self.role_vars[(r, i, j)]))
                 for r in self.roles}
        values: dict[str, dict[int, OwlLiteral]] = {}
        for p in self.data_props:
            held: dict[int, OwlLiteral] = {}
            for lit in self.universes[p]:
                for i in range(self.size):
                    if truth(self.val_vars[(p, i, lit)]):
                        held[i] = lit
            if held:
                values[p] = held
        return FiniteModel(self.size, classes, roles, values)


def _fresh_literal(dt: DataType, taken: list[OwlLiteral]) -> OwlLiteral | None:
    """A canonical literal of the datatype outside the canonical literals
    `taken`; None when the datatype has no value left."""
    if dt is DataType.BOOLEAN:
        for lex in ("true", "false"):
            if OwlLiteral(lex, dt) not in taken:
                return OwlLiteral(lex, dt)
        return None
    if dt is DataType.INTEGER:
        ints = [int(x.lexical) for x in taken]
        return OwlLiteral(str(max(ints, default=-1) + 1), dt)
    if dt is DataType.DECIMAL:
        n = 0
        while OwlLiteral(f"{n}.5", dt) in taken:
            n += 1
        return OwlLiteral(f"{n}.5", dt)
    n = 0
    while OwlLiteral(f"fresh{n}", dt) in taken:
        n += 1
    return OwlLiteral(f"fresh{n}", dt)


# --- CDCL solver -------------------------------------------------------------


class CnfSolver:
    """Conflict-driven clause learning with two watched literals.

    Plain chronological backtracking degenerates on the pigeonhole-shaped
    cores the cardinality encodings produce, so conflicts are analyzed to the
    first unique implication point and the solver backjumps.

    The clauses are loaded once and `solve` may be called many times, each
    time under its own assumptions (Eén & Sörensson, *An extensible
    SAT-solver*, SAT 2003).  Each assumption is the decision of its own
    level, taken before any free decision, so a learned clause never rests on
    an assumption as a fact: it follows from the clauses alone and stays
    sound for every later query.
    """

    def __init__(self, num_vars: int, clauses: list[list[int]]):
        self.num_vars = num_vars
        self.assign: list[bool | None] = [None] * (num_vars + 1)
        self.var_level = [0] * (num_vars + 1)
        self.reason: list[int | None] = [None] * (num_vars + 1)
        self.watches: dict[int, list[int]] = {}
        self.trail: list[int] = []
        self.lim: list[int] = []  # trail length at the start of each decision level
        self.db: list[list[int]] = []
        self.qhead = 0
        # a conflict at level 0: the clauses have no model, whatever is assumed
        self.unsat = False

        units: list[int] = []
        for clause in clauses:
            c = sorted(set(clause), key=abs)
            # sorted by variable, a literal and its negation are neighbours
            if any(a == -b for a, b in zip(c, c[1:])):
                continue
            if not c:
                self.unsat = True
                return
            if len(c) == 1:
                units.append(c[0])
                continue
            self._add_clause(c)
        if not all(self._enqueue(u, None) for u in units) or self._propagate() is not None:
            self.unsat = True

    def _value(self, lit: int) -> bool | None:
        v = self.assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _add_clause(self, c: list[int]) -> int:
        self.db.append(c)
        ci = len(self.db) - 1
        self.watches.setdefault(c[0], []).append(ci)
        self.watches.setdefault(c[1], []).append(ci)
        return ci

    def _enqueue(self, lit: int, why: int | None) -> bool:
        v = self._value(lit)
        if v is False:
            return False
        if v is None:
            var = abs(lit)
            self.assign[var] = lit > 0
            self.var_level[var] = len(self.lim)
            self.reason[var] = why
            self.trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Exhaust unit propagation; returns a conflicting clause index."""
        trail, watches, db, value = self.trail, self.watches, self.db, self._value
        while self.qhead < len(trail):
            falsified = -trail[self.qhead]
            self.qhead += 1
            watching = watches.get(falsified, [])
            k = 0
            while k < len(watching):
                ci = watching[k]
                c = db[ci]
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if value(c[0]) is True:
                    k += 1
                    continue
                moved = False
                for m in range(2, len(c)):
                    if value(c[m]) is not False:
                        c[1], c[m] = c[m], c[1]
                        watches.setdefault(c[1], []).append(ci)
                        watching[k] = watching[-1]
                        watching.pop()
                        moved = True
                        break
                if moved:
                    continue
                if value(c[0]) is False:
                    return ci
                self._enqueue(c[0], ci)
                k += 1
        return None

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to jump back to."""
        trail, var_level, level = self.trail, self.var_level, len(self.lim)
        seen: set[int] = set()
        rest: list[int] = []
        counter = 0
        clause = self.db[confl]
        p: int | None = None
        idx = len(trail) - 1
        while True:
            for q in clause:
                if q == p:
                    continue
                var = abs(q)
                if var in seen or var_level[var] == 0:
                    continue
                seen.add(var)
                if var_level[var] == level:
                    counter += 1
                else:
                    rest.append(q)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.db[self.reason[abs(p)]]
        learned = [-p] + rest
        if not rest:
            return learned, 0
        jump = max(var_level[abs(q)] for q in rest)
        spot = next(i for i in range(1, len(learned))
                    if var_level[abs(learned[i])] == jump)
        learned[1], learned[spot] = learned[spot], learned[1]
        return learned, jump

    def _unwind(self, to_level: int) -> None:
        if to_level >= len(self.lim):
            return
        keep = self.lim[to_level]
        for lit in self.trail[keep:]:
            self.assign[abs(lit)] = None
        del self.trail[keep:]
        del self.lim[to_level:]
        self.qhead = len(self.trail)

    def solve(self, assumptions: tuple[int, ...] = ()) -> list[bool | None] | None:
        """A satisfying assignment in which every assumption holds, indexed by
        variable, or None when there is none.  The solver is back at level 0
        when it returns, with what it learned kept."""
        if self.unsat:
            return None
        try:
            return self._search(assumptions)
        finally:
            self._unwind(0)

    def _search(self, assumptions: tuple[int, ...]) -> list[bool | None] | None:
        assign, lim = self.assign, self.lim
        cursor = 1
        while True:
            confl = self._propagate()
            if confl is not None:
                if not lim:
                    self.unsat = True
                    return None
                learned, jump = self._analyze(confl)
                self._unwind(jump)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._enqueue(learned[0], self._add_clause(learned))
                cursor = 1
                continue
            if len(lim) < len(assumptions):
                lit = assumptions[len(lim)]
                held = self._value(lit)
                if held is False:
                    return None  # no model under these assumptions
                lim.append(len(self.trail))
                if held is None:
                    self._enqueue(lit, None)
                continue
            while cursor <= self.num_vars and assign[cursor] is not None:
                cursor += 1
            if cursor > self.num_vars:
                return list(assign)
            lim.append(len(self.trail))
            self._enqueue(-cursor, None)


# --- public entry ------------------------------------------------------------


class BoundedSearch:
    """Bounded model search for many classes of one ontology.

    The ontology is grounded once per domain size, and only when some query
    is still open after every smaller size.  Each class is then decided on
    that one grounding by solving under the assumption that element 0 is a
    member (by symmetry a witness can sit at element 0), so what the solver
    learns on one query speeds up the next.
    """

    def __init__(self, ontology: owl.Ontology, max_domain: int):
        if max_domain < 1:
            raise ValueError("max_domain must be at least 1")
        if max_domain > ORACLE_MAX_DOMAIN:
            raise BoundTooLargeError(
                f"domain bound {max_domain} exceeds the enumeration budget ({ORACLE_MAX_DOMAIN})")
        self.ontology = ontology
        self.max_domain = max_domain
        self._groundings: list[tuple[_Encoder, CnfSolver]] = []

    def _grounding(self, size: int) -> tuple[_Encoder, CnfSolver]:
        while len(self._groundings) < size:
            enc = _Encoder(self.ontology, len(self._groundings) + 1)
            self._groundings.append((enc, CnfSolver(enc.cnf.count, enc.cnf.clauses)))
        return self._groundings[size - 1]

    def query(self, class_name: str) -> OracleResult:
        """Search for a structure with a nonempty extent for the class.

        Tries domain sizes 1..max_domain in order; the first hit is verified
        by the evaluator and returned.
        """
        for size in range(1, self.max_domain + 1):
            enc, solver = self._grounding(size)
            # a class outside the signature is unconstrained, so any
            # structure of this size can hold it
            member = enc.class_vars.get((class_name, 0))
            assignment = solver.solve(() if member is None else (member,))
            if assignment is None:
                continue
            model = enc.decode(assignment, class_name)
            problems = check_witness(self.ontology, class_name, model)
            if problems:
                raise OracleInternalError(
                    "search returned a structure the evaluator rejects: "
                    + "; ".join(problems[:3]))
            return OracleResult(OracleStatus.SAT, size, model)
        return OracleResult(OracleStatus.NO_MODEL_UP_TO_BOUND, self.max_domain)


def bounded_model_search(ontology: owl.Ontology, class_name: str,
                         max_domain: int) -> OracleResult:
    """Decide one class: `BoundedSearch.query` on a fresh search."""
    return BoundedSearch(ontology, max_domain).query(class_name)
