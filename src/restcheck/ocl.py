"""Parser and AST for the invariant expression language used on states.

The language is a small OCL-like fragment over navigation paths: attribute
equality against a literal, size comparisons on association ends, and and/or
combinations.  `and` binds tighter than `or`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .diagnostics import SourceSpan
from .lexer import Tok, TokenCursor, quote, tokenize, unquote
from .model import AttributeDef, Association, DataType

if TYPE_CHECKING:
    from .model import ResourceModel


class CmpOp(enum.Enum):
    EQ = "="
    GE = ">="
    LE = "<="
    GT = ">"
    LT = "<"


@dataclass(frozen=True)
class OclLiteral:
    """A typed literal as written in an invariant."""

    datatype: DataType
    lexical: str

    def format(self) -> str:
        if self.datatype is DataType.BOOLEAN:
            return "True" if self.lexical == "true" else "False"
        if self.datatype is DataType.STRING:
            return quote(self.lexical)
        return self.lexical


@dataclass(frozen=True)
class NavPath:
    """Dot-separated navigation from the context resource."""

    segments: tuple[str, ...]

    def format(self) -> str:
        return ".".join(("self",) + self.segments)


@dataclass(frozen=True)
class AttrEq:
    path: NavPath
    value: OclLiteral
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SizeCmp:
    path: NavPath
    op: CmpOp
    bound: int
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class OclAnd:
    args: tuple["OclExpr", ...]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class OclOr:
    args: tuple["OclExpr", ...]
    span: SourceSpan | None = field(default=None, compare=False)


OclExpr = AttrEq | SizeCmp | OclAnd | OclOr


# --- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<decimal>\d+\.\d+)
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<arrow>->)
  | (?P<cmp>>=|<=|=|>|<)
  | (?P<punct>[().-])
""", re.VERBOSE)

_KEYWORDS = {"self", "and", "or", "True", "False", "size"}


# --- parser ------------------------------------------------------------------


class _Parser(TokenCursor):
    def expr(self) -> OclExpr:
        first = self.term()
        args = [first]
        while self.accept("or"):
            args.append(self.term())
        if len(args) == 1:
            return first
        # associativity: (a or b) or c is the same disjunction as a or b or c
        flat: list[OclExpr] = []
        for a in args:
            flat.extend(a.args) if isinstance(a, OclOr) else flat.append(a)
        return OclOr(tuple(flat), span=args[0].span)

    def term(self) -> OclExpr:
        first = self.prim()
        args = [first]
        while self.accept("and"):
            args.append(self.prim())
        if len(args) == 1:
            return first
        flat: list[OclExpr] = []
        for a in args:
            flat.extend(a.args) if isinstance(a, OclAnd) else flat.append(a)
        return OclAnd(tuple(flat), span=args[0].span)

    def prim(self) -> OclExpr:
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        start = self.peek()
        path = self.path()
        if self.accept("->"):
            self.expect("size")
            self.expect("(")
            self.expect(")")
            op_tok = self.peek()
            if op_tok.kind != "cmp":
                self.fail("a comparison operator")
            op = CmpOp(self.next().text)
            bound_tok = self.peek()
            if bound_tok.kind != "nat":
                self.fail("a number", bound_tok)
            self.next()
            span = SourceSpan(self.file, start.line, start.col, bound_tok.line,
                              bound_tok.col + len(bound_tok.text))
            return SizeCmp(path, op, int(bound_tok.text), span=span)
        if self.accept("="):
            lit, end = self.literal()
            span = SourceSpan(self.file, start.line, start.col, end.line, end.col + len(end.text))
            return AttrEq(path, lit, span=span)
        self.fail("'->' or '='")
        raise AssertionError("unreachable")

    def path(self) -> NavPath:
        segs: list[str] = []
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("a navigation path")
        if self.accept("self"):
            self.expect(".")
        while True:
            tok = self.peek()
            if tok.kind != "ident" or tok.text in _KEYWORDS:
                self.fail("an identifier")
            segs.append(self.next().text)
            if not self.accept("."):
                break
        return NavPath(tuple(segs))

    def literal(self) -> tuple[OclLiteral, Tok]:
        tok = self.peek()
        if tok.text in ("True", "False"):
            self.next()
            return OclLiteral(DataType.BOOLEAN, tok.text.lower()), tok
        if tok.kind == "decimal":
            self.next()
            return OclLiteral(DataType.DECIMAL, tok.text), tok
        if tok.kind == "nat":
            self.next()
            return OclLiteral(DataType.INTEGER, tok.text), tok
        if self.accept("-"):
            num = self.peek()
            if num.kind == "decimal":
                self.next()
                return OclLiteral(DataType.DECIMAL, "-" + num.text), num
            if num.kind == "nat":
                self.next()
                return OclLiteral(DataType.INTEGER, "-" + num.text), num
            self.fail("a number", num)
        if tok.kind == "string":
            self.next()
            return OclLiteral(DataType.STRING, unquote(tok.text)), tok
        self.fail("a literal")
        raise AssertionError("unreachable")


def parse_ocl(text: str, origin: SourceSpan | None = None) -> OclExpr:
    """Parse an invariant expression.

    When origin is given, positions in errors and spans are reported relative
    to it, so invariants embedded in a larger file point at the right place.
    """
    if origin is not None:
        file, base_line, base_col = origin.file, origin.line, origin.col
    else:
        file, base_line, base_col = "<ocl>", 1, 1
    parser = _Parser(tokenize(_TOKEN_RE, text, file, base_line, base_col), file)
    expr = parser.expr()
    if parser.peek().kind != "eof":
        parser.fail("end of input")
    return expr


def format_ocl(expr: OclExpr) -> str:
    """Render an expression; parsing the result reconstructs the same tree."""
    return _fmt(expr, in_and=False)


def _fmt(expr: OclExpr, in_and: bool) -> str:
    if isinstance(expr, AttrEq):
        return f"{expr.path.format()} = {expr.value.format()}"
    if isinstance(expr, SizeCmp):
        return f"{expr.path.format()}->size() {expr.op.value} {expr.bound}"
    if isinstance(expr, OclAnd):
        return " and ".join(_fmt(a, in_and=True) for a in expr.args)
    text = " or ".join(_fmt(a, in_and=False) for a in expr.args)
    # an or-expression under an and needs the parentheses back
    return f"({text})" if in_and else text


# --- path resolution ---------------------------------------------------------


class PathError(Exception):
    """A navigation path does not fit the resource model."""


@dataclass(frozen=True)
class ResolvedPath:
    associations: tuple[Association, ...]
    resource: str
    attribute: AttributeDef | None = None


def resolve_path(rm: "ResourceModel", context: str, path: NavPath, *,
                 attribute: bool) -> ResolvedPath:
    """Walk a path from a context resource.

    With attribute=True the last segment must name an attribute of the
    resource the earlier segments navigate to; otherwise every segment is an
    association label.  Association segments must be labels of associations
    leaving the current resource.
    """
    if not path.segments:
        raise PathError("empty navigation path")
    nav = path.segments[:-1] if attribute else path.segments
    hops: list[Association] = []
    cur = context
    for seg in nav:
        assoc = next((a for a in rm.associations if a.label == seg and a.source == cur), None)
        if assoc is None:
            if rm.association(seg) is not None:
                raise PathError(f"association '{seg}' does not start at resource '{cur}'")
            raise PathError(f"no association '{seg}' on resource '{cur}'")
        hops.append(assoc)
        cur = assoc.target
    if not attribute:
        return ResolvedPath(tuple(hops), cur)
    att_name = path.segments[-1]
    att = next((a for a in rm.attributes_of(cur) if a.name == att_name), None)
    if att is None:
        raise PathError(f"resource '{cur}' has no attribute '{att_name}'")
    return ResolvedPath(tuple(hops), cur, att)
