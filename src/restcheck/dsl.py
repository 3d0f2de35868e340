"""Textual syntax for resource and behavioral models.

A file holds one `resources` block and optionally one `behavior` block:

    resources Shop {
      root resource Order { attr status: string }
      collection items
      association items: Order -> items [1..1]
    }

    behavior OrderLife for Order {
      initial start
      state open { inv: "self.status = \"open\"" }
      transition start -> open on POST Order
    }

Comments run from '#' to end of line.  Parsing only checks syntax: names are
stored as written, and binding them to declared resources and states is left
to the validators in `model`, with every other structural rule.
"""

from __future__ import annotations

import re

from .diagnostics import ParseError, SourceSpan
from .lexer import Tok, TokenCursor, quote, tokenize, unquote
from .model import (Association, AttributeDef, BehavioralModel, DataType,
                    ResourceDef, ResourceKind, ResourceModel, State, StateKind,
                    Transition, Trigger)
from .ocl import OclExpr, format_ocl, parse_ocl

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<arrow>->)
  | (?P<range>\.\.)
  | (?P<punct>[{}:\[\]*])
""", re.VERBOSE)

_KEYWORDS = {
    "resources", "resource", "collection", "root", "extends", "attr",
    "association", "behavior", "for", "state", "in", "region", "initial",
    "final", "transition", "on", "guard", "post", "inv",
    "string", "boolean", "integer", "decimal",
}

_TRIGGERS = {"PUT", "POST", "DELETE"}


class _Parser(TokenCursor):
    """Recursive descent over the token list."""

    # -- token plumbing

    def ident(self, what: str = "an identifier") -> Tok:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail(what)
        return self.next()

    def nat(self) -> Tok:
        tok = self.peek()
        if tok.kind != "nat":
            self.fail("a number")
        return self.next()

    def string(self, what: str = "a quoted string") -> Tok:
        tok = self.peek()
        if tok.kind != "string":
            self.fail(what)
        return self.next()

    def span(self, start: Tok, end: Tok | None = None) -> SourceSpan:
        end = end or self.toks[max(self.i - 1, 0)]
        return SourceSpan(self.file, start.line, start.col, end.line, end.col + len(end.text))

    # -- grammar

    def model(self) -> tuple[ResourceModel, BehavioralModel | None]:
        rm = self.resources_block()
        bm = None
        if self.at("behavior"):
            bm = self.behavior_block()
        if self.peek().kind != "eof":
            self.fail("'behavior' or end of input")
        return rm, bm

    def resources_block(self) -> ResourceModel:
        self.expect("resources")
        name = self.ident("a model name")
        self.expect("{")
        resources: list[ResourceDef] = []
        associations: list[Association] = []
        while not self.at("}"):
            if self.at("association"):
                associations.append(self.assoc_decl())
            elif self.at("root") or self.at("resource") or self.at("collection"):
                resources.append(self.resource_decl())
            else:
                self.fail("'resource', 'collection', 'association' or '}'")
        self.expect("}")
        return ResourceModel(name.text, tuple(resources), tuple(associations))

    def resource_decl(self) -> ResourceDef:
        start = self.peek()
        is_root = self.accept("root")
        if self.accept("resource"):
            kind = ResourceKind.NORMAL
        elif self.accept("collection"):
            kind = ResourceKind.COLLECTION
        else:
            self.fail("'resource' or 'collection'")
        name = self.ident("a resource name")
        parent = None
        if self.accept("extends"):
            parent = self.ident("a resource name").text
        attrs: list[AttributeDef] = []
        if self.accept("{"):
            while not self.at("}"):
                attrs.append(self.attr_decl())
            self.expect("}")
        return ResourceDef(name.text, kind, is_root, parent, tuple(attrs),
                           span=self.span(start))

    def attr_decl(self) -> AttributeDef:
        start = self.expect("attr")
        name = self.ident("an attribute name")
        self.expect(":")
        tok = self.peek()
        if tok.text not in ("string", "boolean", "integer", "decimal"):
            self.fail("'string', 'boolean', 'integer' or 'decimal'")
        self.next()
        return AttributeDef(name.text, DataType(tok.text), span=self.span(start))

    def assoc_decl(self) -> Association:
        start = self.expect("association")
        label = self.ident("an association label")
        self.expect(":")
        source = self.ident("a resource name")
        self.expect("->")
        target = self.ident("a resource name")
        self.expect("[")
        lo = int(self.nat().text)
        self.expect("..")
        if self.accept("*"):
            hi = None
        else:
            hi = int(self.nat().text)
        self.expect("]")
        return Association(label.text, source.text, target.text, lo, hi,
                           span=self.span(start))

    def behavior_block(self) -> BehavioralModel:
        start = self.expect("behavior")
        name = self.ident("a behavior name")
        self.expect("for")
        target = self.ident("a resource name")
        self.expect("{")
        states: list[State] = []
        while self.at("state") or self.at("initial") or self.at("final"):
            states.append(self.state_decl())
        transitions: list[Transition] = []
        while self.at("transition"):
            transitions.append(self.trans_decl())
        self.expect("}")
        return BehavioralModel(name.text, target.text, tuple(states),
                               tuple(transitions), span=self.span(start))

    def state_decl(self) -> State:
        start = self.peek()
        if self.accept("initial"):
            name = self.ident("a state name")
            return State(name.text, StateKind.INITIAL, span=self.span(start))
        if self.accept("final"):
            name = self.ident("a state name")
            return State(name.text, StateKind.FINAL, span=self.span(start))
        self.expect("state")
        name = self.ident("a state name")
        parent = None
        region = 0
        if self.accept("in"):
            parent = self.ident("a state name").text
            if self.accept("region"):
                region = int(self.nat().text)
        invariant = None
        if self.accept("{"):
            if self.accept("inv"):
                self.expect(":")
                invariant = self.inv_text()
            self.expect("}")
        return State(name.text, StateKind.SIMPLE, parent, region, invariant,
                     span=self.span(start))

    def inv_text(self) -> OclExpr:
        tok = self.string("a quoted invariant")
        # positions inside the invariant are offset past the opening quote
        origin = SourceSpan.point(self.file, tok.line, tok.col + 1)
        return parse_ocl(unquote(tok.text), origin)

    def trans_decl(self) -> Transition:
        start = self.expect("transition")
        source = self.ident("a state name")
        self.expect("->")
        target = self.ident("a state name")
        self.expect("on")
        tok = self.peek()
        if tok.text not in _TRIGGERS:
            if tok.text == "GET":
                raise ParseError(self.file, tok.line, tok.col,
                                 "expected 'PUT', 'POST' or 'DELETE', found 'GET'"
                                 " (GET has no side effects and cannot trigger a transition)")
            self.fail("'PUT', 'POST' or 'DELETE'")
        self.next()
        trigger = Trigger(tok.text)
        target_resource = None
        if self.peek().kind == "ident" and self.peek().text not in _KEYWORDS:
            target_resource = self.ident().text
        guard = post = ""
        if self.accept("guard"):
            guard = unquote(self.string().text)
        if self.accept("post"):
            post = unquote(self.string().text)
        return Transition(source.text, target.text, trigger, target_resource,
                          guard, post, span=self.span(start))


def parse_model(text: str, file_name: str = "<input>") -> tuple[ResourceModel, BehavioralModel | None]:
    """Parse a model file into its resource and optional behavioral model.

    Raises ParseError, with a file position, on syntax errors.  No name is
    bound here: a reference to an undeclared resource or state parses, and
    the validators (or translate_models, which runs them) report it.
    """
    parser = _Parser(tokenize(_TOKEN_RE, text, file_name), file_name)
    return parser.model()


# --- formatting --------------------------------------------------------------


def format_model(rm: ResourceModel, bm: BehavioralModel | None = None) -> str:
    """Render models back to the textual syntax in a canonical layout."""
    out: list[str] = [f"resources {rm.name} {{"]
    for r in rm.resources:
        head = "  "
        if r.is_root:
            head += "root "
        head += "resource " if r.kind is ResourceKind.NORMAL else "collection "
        head += r.name
        if r.parent is not None:
            head += f" extends {r.parent}"
        if r.attributes:
            out.append(head + " {")
            for att in r.attributes:
                out.append(f"    attr {att.name}: {att.datatype.value}")
            out.append("  }")
        else:
            out.append(head)
    for a in rm.associations:
        hi = "*" if a.max is None else str(a.max)
        out.append(f"  association {a.label}: {a.source} -> {a.target} [{a.min}..{hi}]")
    out.append("}")
    if bm is not None:
        out.append("")
        out.append(f"behavior {bm.name} for {bm.for_resource} {{")
        for s in bm.states:
            if s.kind is StateKind.INITIAL:
                out.append(f"  initial {s.name}")
                continue
            if s.kind is StateKind.FINAL:
                out.append(f"  final {s.name}")
                continue
            head = f"  state {s.name}"
            if s.parent is not None:
                head += f" in {s.parent}"
                if s.region:
                    head += f" region {s.region}"
            if s.invariant is not None:
                out.append(head + " {")
                out.append(f"    inv: {quote(format_ocl(s.invariant))}")
                out.append("  }")
            else:
                out.append(head)
        for t in bm.transitions:
            line = f"  transition {t.source} -> {t.target} on {t.trigger.value}"
            if t.target_resource is not None:
                line += f" {t.target_resource}"
            if t.guard:
                line += f" guard {quote(t.guard)}"
            if t.post:
                line += f" post {quote(t.post)}"
            out.append(line)
        out.append("}")
    return "\n".join(out) + "\n"
