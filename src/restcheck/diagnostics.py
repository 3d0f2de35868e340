"""Shared diagnostic types: source positions, error codes, and the syntax
error raised by the parsing layers."""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """A 1-based region of an input file."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    @classmethod
    def point(cls, file: str, line: int, col: int) -> "SourceSpan":
        return cls(file, line, col, line, col)


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class Code(enum.Enum):
    """Diagnostic codes reported by validation, translation and reasoning."""

    CONNECTIVITY = "CONNECTIVITY"
    DUPLICATE_LABEL = "DUPLICATE_LABEL"
    COLLECTION_HAS_ATTR = "COLLECTION_HAS_ATTR"
    NORMAL_NO_ATTR = "NORMAL_NO_ATTR"
    BAD_CARDINALITY = "BAD_CARDINALITY"
    UNRESOLVED_PATH = "UNRESOLVED_PATH"
    PARSE = "PARSE"
    UNSAT_RESOURCE = "UNSAT_RESOURCE"
    UNSAT_STATE = "UNSAT_STATE"
    NEGATIVE_BOUND = "NEGATIVE_BOUND"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: Code
    message: str
    span: SourceSpan | None = None

    def format(self) -> str:
        text = f"{self.severity.value}[{self.code.value}] {self.message}"
        if self.span is not None:
            text += f" ({self.span.file}:{self.span.line}:{self.span.col})"
        return text


def error(code: Code, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span)


def has_errors(diagnostics) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def errors_first(diagnostics) -> list[Diagnostic]:
    """The errors, then the warnings, each in their original order."""
    return sorted(diagnostics, key=lambda d: d.severity is not Severity.ERROR)


class ParseError(Exception):
    """Syntax error with a file position, formatted as file:line:col: message."""

    def __init__(self, file: str, line: int, col: int, message: str):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file = file
        self.line = line
        self.col = col
        self.message = message

    def to_diagnostic(self) -> Diagnostic:
        span = SourceSpan.point(self.file, self.line, self.col)
        return error(Code.PARSE, self.message, span)

