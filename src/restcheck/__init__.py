"""restcheck: consistency checking for REST resource and behavioral models.

The package parses a small modeling language, validates its structural rules,
translates models into an OWL 2 ontology fragment, and decides satisfiability
of every resource and state with two independent procedures: a tableau
reasoner and a bounded finite-model search.
"""

from .checker import (CheckOutcome, check_model, translate_model,
                      validate_model)
from .diagnostics import Code, Diagnostic, ParseError, Severity, SourceSpan
from .dsl import format_model, parse_model
from .model import (BehavioralModel, ResourceModel, validate_behavioral_model,
                    validate_resource_model)
from .ocl import format_ocl, parse_ocl
from .oracle import OracleResult, OracleStatus, bounded_model_search
from .owl import Ontology, parse_functional_syntax, serialize
from .reasoner import SatResult, classify_all, compile_tbox, is_satisfiable
from .report import CheckReport, ConceptVerdict, build_report
from .translate import IriMap, translate_models

__version__ = "0.1.0"

__all__ = [
    "BehavioralModel",
    "CheckOutcome",
    "CheckReport",
    "Code",
    "ConceptVerdict",
    "Diagnostic",
    "IriMap",
    "Ontology",
    "OracleResult",
    "OracleStatus",
    "ParseError",
    "ResourceModel",
    "SatResult",
    "Severity",
    "SourceSpan",
    "bounded_model_search",
    "build_report",
    "check_model",
    "classify_all",
    "compile_tbox",
    "format_model",
    "format_ocl",
    "is_satisfiable",
    "parse_functional_syntax",
    "parse_model",
    "parse_ocl",
    "serialize",
    "translate_model",
    "translate_models",
    "validate_behavioral_model",
    "validate_model",
    "validate_resource_model",
    "__version__",
]
