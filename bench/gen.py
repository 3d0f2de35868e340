"""Seeded model families whose verdicts are known by construction.

Every family is a binary tree of resources: R0 is the root and the anchor of
the state machine, resource Ri (i >= 1) hangs off R((i-1)//2) through the
association `ai`.  Sibling resources are pairwise disjoint in the
translation, so a node of the completion graph belongs to at most one
resource.

Why the SAT verdicts hold
-------------------------
*Resources.*  A plain instance of Ri is a tree: Ri's attributes get any value
of their type and every association leaving Ri gets exactly `min` plain
successors.  No association ever has max 0, so this always fits.

*States.*  Every state's invariant is a conjunction whose first atom is
`self.status = "s<k>"` with a value no other state uses.  `status` is a
single-valued attribute, so an R0 node carries one status and satisfies at
most one invariant; the pairwise `DisjointClasses` of the states is then
harmless.  The remaining atoms are accepted only if the "one successor per
label" model below exists: all atoms whose path starts with label `a` are
served by a single `a`-successor, which takes every attribute value asked of
it (each attribute is asked once per path) and every size bound on its own
associations; extra successors demanded by `>=` bounds are plain instances.
The generator keeps, per path, the interval of successor counts the
association multiplicity and the atoms allow (at least 1 wherever a longer
path passes through) and drops an atom that would empty an interval.  A
disjunction is satisfied through its first alternative, the only one booked.
`self.flag` is never used by an unplanted invariant (see "overlap").

That is the trap these families are built around: invariants that can hold
together at one node make the `DisjointClasses` axiom of the states empty one
of them.  The distinct `status` value per state is what rules it out.

Why the planted UNSAT verdicts hold
-----------------------------------
*local*: `self.aX->size() >= max+1` (or `<= min-1`) on an association of R0.
Every state is a subclass of R0, and R0 is a subclass of `max aX` (`min aX`),
so no R0 node meets the bound.

*deep*: the same kind of bound on the second label of a 2-hop path.  The
node reached by the first hop lies in the range of the first association,
that is in the resource the second association leaves, whose multiplicity
axiom contradicts the bound.  The tableau only meets the clash after building
that node, below every choice it made at the root.

*overlap* (the paper's mutation M1): state j's invariant is state i's
invariant plus `self.flag = <b>`.  Every instance of j satisfies i's
invariant, so it is an instance of i as well, which `DisjointClasses(i, j)`
forbids.  State i stays satisfiable: its model sets `flag` to `not b`, which
no unplanted invariant mentions.  Both invariants are regenerated with atoms
at the root node only.

A local or deep victim keeps only its status next to the clash.  A tree that
offers no multiplicity to contradict gets an overlap instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

ROOT_ATTRS = (("status", "string"), ("flag", "boolean"), ("level", "integer"))
MULTIPLICITIES = ((0, None), (0, 1), (0, 2), (1, 1), (1, None), (1, 2))
CROSSCHECK_BOUND = 4  # oracle_bound of the crosscheck workload, the largest the CLI accepts


@dataclass(frozen=True)
class Case:
    """One generated model and the answer expected for it."""

    name: str                      # also the seed string of its generator
    text: str
    expected: tuple[tuple[str, str, bool], ...]  # (kind, element, satisfiable)
    exit_code: int
    planted: tuple[tuple[str, str], ...] = ()    # (state, kind) for UNSAT states

    @property
    def concepts(self) -> int:
        return len(self.expected)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Case":
        d = json.loads(text)
        return cls(d["name"], d["text"], tuple(map(tuple, d["expected"])),
                   d["exit_code"], tuple(map(tuple, d["planted"])))


@dataclass(frozen=True)
class _Assoc:
    label: str
    source: int
    target: int
    lo: int
    hi: int | None


class _Tree:
    """A binary resource tree with its associations."""

    def __init__(self, rng: random.Random, n: int):
        # fixed proportions of multiplicities and collections per size keep
        # the cost of models of one shape close together across seeds
        collections = set(rng.sample(range(1, n), (n - 1) // 5))
        self.n = n
        self.collection = [i in collections for i in range(n)]
        self.attrs: list[tuple[tuple[str, str], ...]] = [ROOT_ATTRS]
        for i in range(1, n):
            pool = [(f"n{i}", "integer"), (f"s{i}", "string"), (f"b{i}", "boolean")]
            self.attrs.append(() if self.collection[i] else tuple(rng.sample(pool, 2)))
        mults = [MULTIPLICITIES[i % len(MULTIPLICITIES)] for i in range(n - 1)]
        rng.shuffle(mults)
        self.out: list[list[_Assoc]] = [[] for _ in range(n)]
        for i, (lo, hi) in enumerate(mults, start=1):
            a = _Assoc(f"a{i}", (i - 1) // 2, i, lo, hi)
            self.out[a.source].append(a)

    def paths(self, max_hops: int) -> list[tuple[_Assoc, ...]]:
        found: list[tuple[_Assoc, ...]] = []
        frontier: list[tuple[_Assoc, ...]] = [()]
        for _ in range(max_hops):
            frontier = [p + (a,) for p in frontier
                        for a in self.out[p[-1].target if p else 0]]
            found.extend(frontier)
        return found

    def plain_size(self, i: int) -> int:
        return 1 + sum(a.lo * self.plain_size(a.target) for a in self.out[i])

    def resources_text(self, name: str) -> list[str]:
        lines = [f"resources {name} {{"]
        for i in range(self.n):
            head = "  root " if i == 0 else "  "
            if self.collection[i]:
                lines.append(f"{head}collection R{i}")
                continue
            lines.append(f"{head}resource R{i} {{")
            lines.extend(f"    attr {a}: {t}" for a, t in self.attrs[i])
            lines.append("  }")
        for out in self.out:
            for a in out:
                hi = "*" if a.hi is None else a.hi
                lines.append(f"  association {a.label}: R{a.source} -> R{a.target} "
                             f"[{a.lo}..{hi}]")
        lines.append("}")
        return lines


def _labels(path) -> tuple[str, ...]:
    return tuple(a.label for a in path)


def _literal(rng: random.Random, datatype: str) -> str:
    if datatype == "integer":
        return str(rng.randint(0, 9))
    if datatype == "boolean":
        return rng.choice(("True", "False"))
    return f'"v{rng.randint(0, 3)}"'


def _nav(path) -> str:
    return ".".join(("self",) + _labels(path))


class _Invariant:
    """Atoms of one state invariant and the one-successor-per-label booking."""

    def __init__(self, tree: _Tree, status: int):
        self.tree = tree
        self.atoms: list[str] = [f'self.status = \\"s{status}\\"']
        self.bounds: dict[tuple[str, ...], list] = {}
        self.attrs: set[tuple[tuple[str, ...], str]] = set()

    def _book(self, bounds, path, lo=0, hi=None) -> None:
        key = _labels(path)
        if key not in bounds:
            bounds[key] = [path[-1].lo, path[-1].hi]
        b = bounds[key]
        b[0] = max(b[0], lo)
        if hi is not None:
            b[1] = hi if b[1] is None else min(b[1], hi)

    def _through(self, bounds, path) -> None:
        for k in range(1, len(path) + 1):
            self._book(bounds, path[:k], lo=1)

    def attr_atom(self, rng, path) -> tuple[str, tuple] | None:
        """`self.<path>.<attr> = v` for an attribute of the path's end."""
        owner = path[-1].target if path else 0
        choices = [a for a in self.tree.attrs[owner]
                   if (_labels(path), a[0]) not in self.attrs and a[0] not in ("status", "flag")]
        if not choices:
            return None
        name, datatype = rng.choice(choices)
        nav = _nav(path)
        lit = _literal(rng, datatype).replace('"', '\\"')
        return f"{nav}.{name} = {lit}", ("attr", path, name)

    def size_atom(self, rng, path) -> tuple[str, tuple]:
        a = path[-1]
        op = rng.choice((">=", "<=", "="))
        top = a.hi if a.hi is not None else a.lo + 2
        bound = rng.randint(max(a.lo, 1), max(top, 1))
        return f"{_nav(path)}->size() {op} {bound}", ("size", path, op, bound)

    def fits(self, effect) -> dict | None:
        """The bounds after booking `effect`, or None if one would be empty."""
        bounds = {k: list(v) for k, v in self.bounds.items()}
        if effect[0] == "attr":
            self._through(bounds, effect[1])
        else:
            _, path, op, bound = effect
            self._through(bounds, path[:-1])
            self._book(bounds, path,
                       lo=bound if op in (">=", "=") else 0,
                       hi=bound if op in ("<=", "=") else None)
        if any(hi is not None and lo > hi for lo, hi in bounds.values()):
            return None
        return bounds

    def commit(self, atom: str, effect, bounds: dict) -> None:
        self.bounds = bounds
        if effect[0] == "attr":
            self.attrs.add((_labels(effect[1]), effect[2]))
        self.atoms.append(atom)

    def candidate(self, rng, paths, root_only=False):
        if rng.random() < 0.35 or not paths:
            ends = [()] if root_only else [()] + [
                p for p in paths if not self.tree.collection[p[-1].target]]
            return self.attr_atom(rng, rng.choice(ends))
        return self.size_atom(rng, rng.choice(paths))

    def grow(self, rng, paths, atoms: int, root_only: bool = False) -> None:
        """Add up to `atoms` atoms after the status; the first is a disjunction."""
        for _ in range(atoms * 8):
            if len(self.atoms) > atoms:
                return
            picked = self.candidate(rng, paths, root_only)
            if picked is None:
                continue
            text, effect = picked
            bounds = self.fits(effect)
            if bounds is None:
                continue
            if len(self.atoms) == 1:
                # only the first alternative is booked; the second is free
                other = next(filter(None, (self.candidate(rng, paths, root_only)
                                           for _ in range(8))), None)
                if other is not None:
                    text = f"({text} or {other[0]})"
            self.commit(text, effect, bounds)

    def unfolded_size(self) -> int:
        """Elements of the one-successor-per-label model of this invariant."""
        def size(node: int, prefix: tuple[str, ...]) -> int:
            total = 1
            for a in self.tree.out[node]:
                key = prefix + (a.label,)
                count = self.bounds[key][0] if key in self.bounds else a.lo
                served = any(k[:len(key)] == key and len(k) > len(key) for k in self.bounds) \
                    or any(p[:len(key)] == key for p, _ in self.attrs if len(p) >= len(key))
                if served:
                    count = max(count, 1)
                    total += size(a.target, key) + (count - 1) * self.tree.plain_size(a.target)
                else:
                    total += count * self.tree.plain_size(a.target)
            return total
        return size(0, ())

    def text(self) -> str:
        return " and ".join(self.atoms)


def _clash_atom(path) -> str:
    a = path[-1]
    if a.hi is not None:
        return f"{_nav(path)}->size() >= {a.hi + 1}"
    return f"{_nav(path)}->size() <= {a.lo - 1}"


def _clashable(path) -> bool:
    return path[-1].hi is not None or path[-1].lo >= 1


def _build(name: str, rng: random.Random, n: int, k: int, *, atoms: int,
           kinds: tuple[str, ...] = (), max_unfolded: int | None = None) -> Case:
    for _ in range(50):
        tree = _Tree(rng, n)
        if max_unfolded is None or tree.plain_size(0) <= max_unfolded:
            break
    else:
        raise RuntimeError(f"{name}: no resource tree fits {max_unfolded} elements")
    paths = tree.paths(2)  # invariant paths of one or two hops
    invariants: list[_Invariant] = []
    for s in range(k):
        inv = _Invariant(tree, s)
        inv.grow(rng, paths, atoms)
        if max_unfolded is not None and inv.unfolded_size() > max_unfolded:
            inv = _Invariant(tree, s)  # status alone: R0 plus its plain successors
        invariants.append(inv)
    texts = [inv.text() for inv in invariants]

    planted: dict[int, str] = {}
    victims = rng.sample(range(k), len(kinds))
    sat = [s for s in range(k) if s not in victims]
    targets = {"local": [p for p in tree.paths(1) if _clashable(p)],
               "deep": [p for p in tree.paths(2) if len(p) == 2 and _clashable(p)]}
    for j, kind in zip(victims, kinds):
        if kind != "overlap" and not targets[kind]:
            kind = "overlap"  # no multiplicity to contradict; sat outnumbers victims
        if kind == "overlap":
            i = rng.choice(sat)
            sat.remove(i)
            # the pair's atoms stay at the root node; see the module docstring
            base = _Invariant(tree, i)
            base.grow(rng, [p for p in paths if len(p) == 1], atoms, root_only=True)
            if max_unfolded is not None and base.unfolded_size() > max_unfolded:
                base = _Invariant(tree, i)
            texts[i] = base.text()
            texts[j] = texts[i] + f" and self.flag = {rng.choice(('True', 'False'))}"
        else:
            # the victim keeps only its status, so the clash is all it asks for
            clash = _clash_atom(rng.choice(targets[kind]))
            texts[j] = _Invariant(tree, j).text() + " and " + clash
        planted[j] = kind

    lines = tree.resources_text("M" + name.replace("-", "_"))
    lines += ["", "behavior Life for R0 {", "  initial init"]
    lines += [f'  state st{s} {{ inv: "{texts[s]}" }}' for s in range(k)]
    lines += ["  final done", "  transition init -> st0 on POST R0"]
    lines += [f"  transition st{s - 1} -> st{s} on PUT" for s in range(1, k)]
    lines += [f"  transition st{k - 1} -> done on DELETE", "}"]

    expected = [("resource", f"R{i}", True) for i in range(n)]
    expected += [("state", f"st{s}", s not in planted) for s in range(k)]
    expected.append(("state", "done", True))
    return Case(name, "\n".join(lines) + "\n", tuple(expected),
                1 if planted else 0,
                tuple((f"st{s}", planted[s]) for s in sorted(planted)))


# --- the families ------------------------------------------------------------
#
# A family is a list of rounds, and a round holds one model of each shape of
# the family, in the family's order.  Every seed therefore yields the same mix
# of sizes in the same order; the seed only changes the content of each model.
# Planted kinds are fixed per slot for the same reason.


@dataclass(frozen=True)
class Family:
    shapes: tuple[tuple[int, int], ...]   # (resources, states)
    atoms: int                            # atoms per invariant after the status
    rounds: int                           # rounds in one untraced run
    plant: bool = False                   # make about a third of the states UNSAT
    max_unfolded: int | None = None


# Deep clashes stay out of the timed families: at this commit one of them can
# keep the tableau backtracking below every root choice for minutes, so a
# run's length would hang on which seed drew one.
KINDS = ("local", "overlap")

# The rounds make a run hold enough models that its median and 80th
# percentile hardly depend on the seed (models of one family differ in cost
# by about 20%), and at least ten models beyond the 80th percentile.  At this
# commit one pass over them takes 9-16 s on lifecycle and mutants, 8-12 s on
# crosscheck and 8-15 s on frontend, depending on the machine's phase.
FAMILIES = {
    # 8 resources, 5 states: the SAT path of the tableau.  One shape per
    # family keeps the cost of a run's models close together, so a run's
    # median and 80th percentile move with the program, not with the seed.
    "lifecycle": Family(((8, 5),), atoms=2, rounds=56),
    # the same bases, about a third of the states UNSAT by construction
    "mutants": Family(((8, 5),), atoms=2, rounds=56, plant=True),
    # small enough for the bounded search to decide every concept; one shape,
    # as a mix of shapes puts the percentiles on the edges between them
    "crosscheck": Family(((5, 4),), atoms=2, rounds=160, plant=True,
                         max_unfolded=CROSSCHECK_BOUND),
    # no reasoning, only parse, validate, translate and serialize
    "frontend": Family(((300, 150),), atoms=3, rounds=50),
}


def cases(workload: str, seed: int, rounds: int | None = None) -> list[Case]:
    """The workload's models for `seed`: `rounds` rounds, the family's by default."""
    fam = FAMILIES[workload]
    out: list[Case] = []
    for _ in range(fam.rounds if rounds is None else rounds):
        for n, k in fam.shapes:
            slot = len(out)
            name = f"{workload}-{seed}-{slot}"
            kinds: tuple[str, ...] = ()
            if fam.plant:
                kinds = tuple(KINDS[(slot + v) % len(KINDS)]
                              for v in range(max(1, round(k / 3))))
            out.append(_build(name, random.Random(name), n, k, atoms=fam.atoms,
                              kinds=kinds, max_unfolded=fam.max_unfolded))
    return out
