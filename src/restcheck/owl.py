"""In-memory form of the ontology fragment the checker works with and of the
finite structures that interpret it, plus a canonical functional-syntax
serializer and a parser for the same fragment.

Only the constructs the translation emits are representable: named classes,
boolean combinations, existential restrictions, unqualified object
cardinalities, data property values and data exact cardinality.  The parser
rejects anything else with UnsupportedAxiomError rather than guessing.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Iterator

from .diagnostics import ParseError
from .lexer import Tok, TokenCursor, quote, tokenize, unquote
from .model import DataType

XSD_PREFIX = "http://www.w3.org/2001/XMLSchema#"
DEFAULT_BASE_IRI = "http://restcheck.example/models#"


class UnsupportedAxiomError(Exception):
    """The input uses a construct outside the supported fragment."""


# --- literals ----------------------------------------------------------------


@dataclass(frozen=True)
class OwlLiteral:
    lexical: str
    datatype: DataType


_LEXICAL_RE = {
    DataType.INTEGER: re.compile(r"[+-]?\d+$"),
    DataType.DECIMAL: re.compile(r"[+-]?(\d+\.?\d*|\.\d+)$"),
    DataType.BOOLEAN: re.compile(r"(true|false)$"),
    DataType.STRING: re.compile(r""),
}


def valid_lexical(lexical: str, datatype: DataType) -> bool:
    return _LEXICAL_RE[datatype].match(lexical) is not None


def canon_value(lit: OwlLiteral) -> OwlLiteral:
    """The literal in the canonical spelling of its value; two literals denote
    the same value iff their canonical literals are equal."""
    lexical = lit.lexical
    if lit.datatype is DataType.INTEGER:
        lexical = str(int(lexical))
    elif lit.datatype is DataType.BOOLEAN:
        lexical = lexical.lower()
    elif lit.datatype is DataType.DECIMAL:
        try:
            dec = Decimal(lexical)
        except InvalidOperation:
            raise ValueError(f"bad decimal literal {lexical!r}")
        lexical = "0" if dec == 0 else format(dec.normalize(), "f")
    return OwlLiteral(lexical, lit.datatype)


# --- class expressions -------------------------------------------------------


@dataclass(frozen=True)
class Named:
    name: str


@dataclass(frozen=True)
class Intersection:
    args: tuple["ClassExpr", ...]


@dataclass(frozen=True)
class Union:
    args: tuple["ClassExpr", ...]


@dataclass(frozen=True)
class Complement:
    arg: "ClassExpr"


@dataclass(frozen=True)
class Some:
    prop: str
    filler: "ClassExpr"


@dataclass(frozen=True)
class MinCard:
    n: int
    prop: str


@dataclass(frozen=True)
class MaxCard:
    n: int
    prop: str


@dataclass(frozen=True)
class ExactCard:
    n: int
    prop: str


@dataclass(frozen=True)
class DataHasValue:
    prop: str
    value: OwlLiteral


@dataclass(frozen=True)
class DataExactCard:
    n: int
    prop: str


ClassExpr = (Named | Intersection | Union | Complement | Some | MinCard
             | MaxCard | ExactCard | DataHasValue | DataExactCard)


def walk(expr: ClassExpr) -> Iterator[ClassExpr]:
    """Yield expr and every subexpression."""
    yield expr
    if isinstance(expr, (Intersection, Union)):
        for a in expr.args:
            yield from walk(a)
    elif isinstance(expr, Complement):
        yield from walk(expr.arg)
    elif isinstance(expr, Some):
        yield from walk(expr.filler)


# --- axioms ------------------------------------------------------------------


class EntityKind(enum.Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"


@dataclass(frozen=True)
class Declaration:
    entity: EntityKind
    name: str


@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses:
    args: tuple[ClassExpr, ...]


@dataclass(frozen=True)
class DisjointClasses:
    args: tuple[ClassExpr, ...]


@dataclass(frozen=True)
class ObjectPropertyDomain:
    prop: str
    expr: ClassExpr


@dataclass(frozen=True)
class ObjectPropertyRange:
    prop: str
    expr: ClassExpr


@dataclass(frozen=True)
class DataPropertyDomain:
    prop: str
    expr: ClassExpr


@dataclass(frozen=True)
class DataPropertyRange:
    prop: str
    datatype: DataType


Axiom = (Declaration | SubClassOf | EquivalentClasses | DisjointClasses
         | ObjectPropertyDomain | ObjectPropertyRange | DataPropertyDomain
         | DataPropertyRange)


@dataclass(frozen=True)
class Ontology:
    base_iri: str
    axioms: tuple[Axiom, ...]

    def declared(self, kind: EntityKind) -> tuple[str, ...]:
        return tuple(a.name for a in self.axioms
                     if isinstance(a, Declaration) and a.entity is kind)

    def class_exprs(self) -> Iterator[ClassExpr]:
        """Every class expression appearing in some axiom."""
        for ax in self.axioms:
            if isinstance(ax, SubClassOf):
                yield ax.sub
                yield ax.sup
            elif isinstance(ax, (EquivalentClasses, DisjointClasses)):
                yield from ax.args
            elif isinstance(ax, (ObjectPropertyDomain, ObjectPropertyRange,
                                 DataPropertyDomain)):
                yield ax.expr


@dataclass(frozen=True)
class FiniteModel:
    """An interpretation over domain {0..size-1}, as the tableau and the
    bounded search both produce it."""

    size: int
    classes: dict[str, frozenset[int]]
    roles: dict[str, frozenset[tuple[int, int]]]
    values: dict[str, dict[int, OwlLiteral]]
    faithful: bool = True  # false on a tableau witness that was cut off


# --- serialization -----------------------------------------------------------


def _lit(value: OwlLiteral) -> str:
    return f"{quote(value.lexical)}^^xsd:{value.datatype.value}"


def _expr(e: ClassExpr) -> str:
    if isinstance(e, Named):
        return f":{e.name}"
    if isinstance(e, Intersection):
        return "ObjectIntersectionOf(" + " ".join(_expr(a) for a in e.args) + ")"
    if isinstance(e, Union):
        return "ObjectUnionOf(" + " ".join(_expr(a) for a in e.args) + ")"
    if isinstance(e, Complement):
        return f"ObjectComplementOf({_expr(e.arg)})"
    if isinstance(e, Some):
        return f"ObjectSomeValuesFrom(:{e.prop} {_expr(e.filler)})"
    if isinstance(e, MinCard):
        return f"ObjectMinCardinality({e.n} :{e.prop})"
    if isinstance(e, MaxCard):
        return f"ObjectMaxCardinality({e.n} :{e.prop})"
    if isinstance(e, ExactCard):
        return f"ObjectExactCardinality({e.n} :{e.prop})"
    if isinstance(e, DataHasValue):
        return f"DataHasValue(:{e.prop} {_lit(e.value)})"
    if isinstance(e, DataExactCard):
        return f"DataExactCardinality({e.n} :{e.prop})"
    raise TypeError(f"not a class expression: {e!r}")


def format_axiom(ax: Axiom) -> str:
    """One axiom in functional syntax, without surrounding document."""
    if isinstance(ax, Declaration):
        return f"Declaration({ax.entity.value}(:{ax.name}))"
    if isinstance(ax, SubClassOf):
        return f"SubClassOf({_expr(ax.sub)} {_expr(ax.sup)})"
    if isinstance(ax, EquivalentClasses):
        return "EquivalentClasses(" + " ".join(_expr(a) for a in ax.args) + ")"
    if isinstance(ax, DisjointClasses):
        return "DisjointClasses(" + " ".join(_expr(a) for a in ax.args) + ")"
    if isinstance(ax, ObjectPropertyDomain):
        return f"ObjectPropertyDomain(:{ax.prop} {_expr(ax.expr)})"
    if isinstance(ax, ObjectPropertyRange):
        return f"ObjectPropertyRange(:{ax.prop} {_expr(ax.expr)})"
    if isinstance(ax, DataPropertyDomain):
        return f"DataPropertyDomain(:{ax.prop} {_expr(ax.expr)})"
    if isinstance(ax, DataPropertyRange):
        return f"DataPropertyRange(:{ax.prop} xsd:{ax.datatype.value})"
    raise TypeError(f"not an axiom: {ax!r}")


def serialize(ontology: Ontology) -> str:
    """Canonical functional-syntax text: fixed prefixes, one axiom per line."""
    lines = [
        f"Prefix(:=<{ontology.base_iri}>)",
        f"Prefix(xsd:=<{XSD_PREFIX}>)",
        f"Ontology(<{ontology.base_iri.rstrip('#/')}>",
    ]
    lines.extend(format_axiom(ax) for ax in ontology.axioms)
    lines.append(")")
    return "\n".join(lines) + "\n"


# --- parsing -----------------------------------------------------------------

_OFS_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^>\s]*>)
  | (?P<literal>"(?:\\.|[^"\\])*")
  | (?P<carets>\^\^)
  | (?P<abbrev>[A-Za-z_][A-Za-z0-9_.-]*:[A-Za-z_][A-Za-z0-9_.-]*|:[A-Za-z_][A-Za-z0-9_.-]*)
  | (?P<prefixname>[A-Za-z_][A-Za-z0-9_.-]*:|:)
  | (?P<name>[A-Za-z][A-Za-z0-9]*)
  | (?P<nat>\d+)
  | (?P<eq>=)
  | (?P<paren>[()])
""", re.VERBOSE)

_DATATYPES = {f"xsd:{d.value}": d for d in DataType}


class _OfsParser(TokenCursor):
    def __init__(self, text: str, file: str):
        super().__init__(tokenize(_OFS_TOKEN_RE, text, file), file)
        self.prefixes: dict[str, str] = {}

    def expect(self, kind: str, text: str | None = None) -> Tok:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail(text or kind)
        return self.next()

    def open(self):
        self.expect("paren", "(")

    def close(self):
        self.expect("paren", ")")

    # -- entry

    def ontology(self) -> Ontology:
        while self.peek().text == "Prefix":
            self.next()
            self.open()
            prefix = self.expect("prefixname").text[:-1]
            self.expect("eq")
            iri = self.expect("iri").text
            self.close()
            self.prefixes[prefix] = iri[1:-1]
        self.expect("name", "Ontology")
        self.open()
        if self.peek().kind == "iri":
            self.next()
            if self.peek().kind == "iri":  # version IRI
                self.next()
        axioms = []
        while not (self.peek().kind == "paren" and self.peek().text == ")"):
            axioms.append(self.axiom())
        self.close()
        if self.peek().kind != "eof":
            self.fail("end of input")
        base = self.prefixes.get("", DEFAULT_BASE_IRI)
        return Ontology(base, tuple(axioms))

    # -- axioms

    def axiom(self) -> Axiom:
        tok = self.peek()
        if tok.kind != "name":
            self.fail("an axiom")
        head = self.next().text
        if head == "Declaration":
            self.open()
            kind_tok = self.expect("name")
            try:
                kind = EntityKind(kind_tok.text)
            except ValueError:
                raise UnsupportedAxiomError(
                    f"{self.pos(kind_tok)}: unsupported entity kind {kind_tok.text}")
            self.open()
            name = self.fragment()
            self.close()
            self.close()
            return Declaration(kind, name)
        if head == "SubClassOf":
            self.open()
            sub = self.class_expr()
            sup = self.class_expr()
            self.close()
            return SubClassOf(sub, sup)
        if head in ("EquivalentClasses", "DisjointClasses"):
            self.open()
            args = [self.class_expr()]
            while not (self.peek().kind == "paren" and self.peek().text == ")"):
                args.append(self.class_expr())
            self.close()
            if len(args) < 2:
                raise UnsupportedAxiomError(f"{head} needs at least two classes")
            cls = EquivalentClasses if head == "EquivalentClasses" else DisjointClasses
            return cls(tuple(args))
        if head in ("ObjectPropertyDomain", "ObjectPropertyRange", "DataPropertyDomain"):
            self.open()
            prop = self.fragment()
            expr = self.class_expr()
            self.close()
            cls = {"ObjectPropertyDomain": ObjectPropertyDomain,
                   "ObjectPropertyRange": ObjectPropertyRange,
                   "DataPropertyDomain": DataPropertyDomain}[head]
            return cls(prop, expr)
        if head == "DataPropertyRange":
            self.open()
            prop = self.fragment()
            dt = self.datatype()
            self.close()
            return DataPropertyRange(prop, dt)
        raise UnsupportedAxiomError(f"{self.pos(tok)}: unsupported axiom {head}")

    # -- expressions

    def class_expr(self) -> ClassExpr:
        tok = self.peek()
        if tok.kind == "abbrev":
            return Named(self.fragment())
        if tok.kind != "name":
            self.fail("a class expression")
        head = self.next().text
        if head in ("ObjectIntersectionOf", "ObjectUnionOf"):
            self.open()
            args = [self.class_expr()]
            while not (self.peek().kind == "paren" and self.peek().text == ")"):
                args.append(self.class_expr())
            self.close()
            return (Intersection if head == "ObjectIntersectionOf" else Union)(tuple(args))
        if head == "ObjectComplementOf":
            self.open()
            arg = self.class_expr()
            self.close()
            return Complement(arg)
        if head == "ObjectSomeValuesFrom":
            self.open()
            prop = self.fragment()
            filler = self.class_expr()
            self.close()
            return Some(prop, filler)
        if head in ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality"):
            self.open()
            n = int(self.expect("nat").text)
            prop = self.fragment()
            if not (self.peek().kind == "paren" and self.peek().text == ")"):
                raise UnsupportedAxiomError(
                    f"{self.pos(tok)}: qualified cardinality is not supported")
            self.close()
            cls = {"ObjectMinCardinality": MinCard, "ObjectMaxCardinality": MaxCard,
                   "ObjectExactCardinality": ExactCard}[head]
            return cls(n, prop)
        if head == "DataHasValue":
            self.open()
            prop = self.fragment()
            value = self.literal()
            self.close()
            return DataHasValue(prop, value)
        if head == "DataExactCardinality":
            self.open()
            n = int(self.expect("nat").text)
            prop = self.fragment()
            self.close()
            return DataExactCard(n, prop)
        raise UnsupportedAxiomError(f"{self.pos(tok)}: unsupported expression {head}")

    def fragment(self) -> str:
        tok = self.expect("abbrev")
        prefix, _, local = tok.text.rpartition(":")
        if prefix != "":
            self.fail("a name in the default namespace", tok)
        return local

    def datatype(self) -> DataType:
        tok = self.expect("abbrev")
        dt = _DATATYPES.get(tok.text)
        if dt is None:
            raise UnsupportedAxiomError(f"{self.pos(tok)}: unsupported datatype {tok.text}")
        return dt

    def literal(self) -> OwlLiteral:
        tok = self.expect("literal")
        lexical = unquote(tok.text)
        dt = DataType.STRING
        if self.peek().kind == "carets":
            self.next()
            dt = self.datatype()
        if not valid_lexical(lexical, dt):
            raise ParseError(self.file, tok.line, tok.col,
                             f"{lexical!r} is not a valid xsd:{dt.value} literal")
        return OwlLiteral(lexical, dt)

    def pos(self, tok: Tok) -> str:
        return f"{self.file}:{tok.line}:{tok.col}"


def parse_functional_syntax(text: str, file_name: str = "<ontology>") -> Ontology:
    """Parse functional-syntax text covering the supported fragment."""
    return _OfsParser(text, file_name).ontology()
