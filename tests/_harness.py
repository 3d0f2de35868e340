"""Shared drivers: the two-engine comparison and the round-trip gates."""
from __future__ import annotations

import random

from restcheck.dsl import format_model, parse_model
from restcheck.ocl import format_ocl, parse_ocl
from restcheck.oracle import OracleStatus, bounded_model_search, check_witness
from restcheck.owl import parse_functional_syntax, serialize
from restcheck.reasoner import compile_tbox, is_satisfiable

import _generators

DIFFERENTIAL_BOUND = 4


def differential_case(seed: int) -> tuple[list[str], int, int]:
    """Run both decision procedures on one generated ontology.

    Returns (problems, sat_count, unsat_count).  A tableau SAT answer must be
    matched by a found model, and a tableau UNSAT answer by an exhausted
    search, at every domain size up to the bound.
    """
    rng = random.Random(seed)
    ont = _generators.ontology(rng)
    tbox = compile_tbox(ont)
    problems: list[str] = []
    sat_n = unsat_n = 0
    for name in _generators.CLASS_NAMES:
        tab = is_satisfiable(tbox, name)
        res = bounded_model_search(ont, name, DIFFERENTIAL_BOUND)
        if tab.sat:
            sat_n += 1
            if res.status is not OracleStatus.SAT:
                problems.append(
                    f"seed {seed} {name}: tableau sat, no model up to "
                    f"{DIFFERENTIAL_BOUND}")
            w = tab.witness
            if w is None or not w.faithful:
                problems.append(f"seed {seed} {name}: witness missing")
            else:
                why = check_witness(ont, name, w)
                if why:
                    problems.append(f"seed {seed} {name}: witness: {why[0]}")
        else:
            unsat_n += 1
            if res.status is not OracleStatus.NO_MODEL_UP_TO_BOUND:
                problems.append(
                    f"seed {seed} {name}: tableau unsat, model of size "
                    f"{res.bound} found")
    return problems, sat_n, unsat_n


def dsl_fixed_point(text: str, file_name: str = "<input>") -> str | None:
    rm, bm = parse_model(text, file_name)
    once = format_model(rm, bm)
    again, bagain = parse_model(once, file_name)
    if format_model(again, bagain) != once:
        return f"{file_name}: model formatting is not a fixed point"
    return None


def ofn_fixed_point(text: str, label: str = "<ontology>") -> str | None:
    once = serialize(parse_functional_syntax(text, label))
    if serialize(parse_functional_syntax(once, label)) != once:
        return f"{label}: ontology serialization is not a fixed point"
    return None


def ocl_fixed_point(text: str) -> str | None:
    tree = parse_ocl(text)
    once = format_ocl(tree)
    back = parse_ocl(once)
    if back != tree:
        # a stable string would not prove the meaning survived
        return f"printing changed the expression tree: {text!r}"
    if format_ocl(back) != once:
        return f"constraint formatting is not a fixed point: {text!r}"
    return None
