"""End-to-end command behavior: exit codes, streams, files, flags."""
from __future__ import annotations

import json

import jsonschema
import pytest

from conftest import DATA, EXAMPLES, GOLDEN, run_cli

from restcheck import cli
from restcheck.oracle import FiniteModel, OracleResult, OracleStatus
from restcheck.report import REPORT_SCHEMA

BOOKING = str(EXAMPLES / "hotel_booking.model")
MUTATED = str(EXAMPLES / "hb_mutated_m1.model")
ISOLATED = str(DATA / "isolated.model")


def test_check_consistent_model():
    proc = run_cli("check", BOOKING)
    assert proc.returncode == 0
    assert proc.stdout.startswith(
        "CONSISTENT: 6 resources, 5 states, all satisfiable")
    assert proc.stderr == ""


def test_check_inconsistent_model():
    proc = run_cli("check", MUTATED)
    assert proc.returncode == 1
    assert proc.stdout.startswith("INCONSISTENT: 1 of 11 concepts unsatisfiable")
    assert "error[UNSAT_STATE] state 'processingPayment'" in proc.stdout
    assert proc.stderr == ""


def test_check_invalid_model():
    proc = run_cli("check", ISOLATED)
    assert proc.returncode == 2
    assert proc.stdout.startswith("INVALID: input could not be checked")
    assert "error[CONNECTIVITY]" in proc.stdout


def test_exit_code_matches_overall_field():
    for path, expected in ((BOOKING, "consistent"), (MUTATED, "inconsistent"),
                           (ISOLATED, "invalid")):
        proc = run_cli("check", path, "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["overall"] == expected
        assert proc.returncode == {"consistent": 0, "inconsistent": 1,
                                   "invalid": 2}[expected]


def test_json_output_validates_and_diagnostics_go_to_stderr():
    proc = run_cli("check", MUTATED, "--format", "json")
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["model"] == "HotelBooking"
    unsat = [c for c in doc["concepts"] if c["status"] == "unsat"]
    assert [c["element"] for c in unsat] == ["processingPayment"]
    assert unsat[0]["kind"] == "state"
    assert unsat[0]["line"] > 0
    # the same diagnostic text a human would see, kept off stdout
    assert "error[UNSAT_STATE]" in proc.stderr
    assert "error[UNSAT_STATE]" not in proc.stdout


def test_report_can_be_written_to_a_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("check", MUTATED, "--format", "json", "-o", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    jsonschema.validate(json.loads(out.read_text()), REPORT_SCHEMA)


def test_validate_runs_structural_checks_only():
    proc = run_cli("validate", BOOKING)
    assert proc.returncode == 0
    assert proc.stdout.startswith("VALID: model is well formed")

    proc = run_cli("validate", ISOLATED)
    assert proc.returncode == 2
    assert "error[CONNECTIVITY]" in proc.stdout

    # no reasoning happens, so the mutated model still validates
    proc = run_cli("validate", MUTATED)
    assert proc.returncode == 0


def test_translate_matches_golden_and_is_idempotent(tmp_path):
    proc = run_cli("translate", BOOKING)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "hb.ofn").read_text()
    again = run_cli("translate", BOOKING)
    assert again.stdout == proc.stdout

    out = tmp_path / "m.ofn"
    assert run_cli("translate", BOOKING, "-o", str(out)).returncode == 0
    assert out.read_text() == proc.stdout


def test_translate_respects_base_iri():
    proc = run_cli("translate", BOOKING, "--base-iri", "http://x.test/v#")
    assert proc.stdout.splitlines()[0] == "Prefix(:=<http://x.test/v#>)"
    assert "Ontology(<http://x.test/v>" in proc.stdout


def test_translate_invalid_model_yields_no_document():
    proc = run_cli("translate", ISOLATED)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error[CONNECTIVITY]" in proc.stderr


def test_missing_file_is_an_io_error():
    proc = run_cli("check", "no/such/file.model")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "cannot read" in proc.stderr


def test_unwritable_output_is_an_io_error(tmp_path):
    proc = run_cli("check", BOOKING, "-o", str(tmp_path / "no" / "dir" / "x"))
    assert proc.returncode == 3
    assert "cannot write" in proc.stderr


@pytest.mark.parametrize("value", ["bounded:0", "bounded:9", "full", "5"])
def test_bad_oracle_argument_is_a_usage_error(value):
    proc = run_cli("check", BOOKING, "--oracle", value)
    assert proc.returncode == 2
    assert "usage" in proc.stderr


def test_oracle_agreement_keeps_exit_zero():
    proc = run_cli("check", BOOKING, "--oracle", "bounded:3")
    assert proc.returncode == 0
    assert proc.stderr == ""


INHERITED = """\
resources Inherit {
  root resource R { attr name: string }
  resource S extends R { attr x: integer }
  association s: R -> S [0..1]
}

behavior B for S {
  initial i
  state a { inv: "self.name = \\"n\\"" }
  transition i -> a on POST S
}
"""


def test_invariant_on_an_inherited_attribute(tmp_path):
    # the data property is the one of R, which declares the attribute
    path = tmp_path / "inherit.model"
    path.write_text(INHERITED)
    proc = run_cli("translate", str(path))
    assert proc.returncode == 0
    assert ('EquivalentClasses(:State_a DataHasValue(:name "n"^^xsd:string))'
            in proc.stdout.splitlines())
    for oracle in ([], ["--oracle", "bounded:3"]):
        proc = run_cli("check", str(path), *oracle)
        assert proc.returncode == 0
        assert proc.stdout.startswith(
            "CONSISTENT: 2 resources, 1 states, all satisfiable")
        assert proc.stderr == ""


NEGATIVE = """\
resources Neg {
  root resource R { attr x: boolean }
  resource C { attr y: boolean }
  association c: R -> C [0..*]
}
behavior B for R {
  initial start
  state s { inv: "self.c->size() < 0" }
  state t { inv: "self.x = True" }
  transition start -> s on POST R
}
"""


def test_negative_size_bound_is_reported_and_translated_empty(tmp_path, capsys):
    path = tmp_path / "negative.model"
    path.write_text(NEGATIVE)
    bound = (f"error[NEGATIVE_BOUND] size() < 0 can never hold in invariant "
             f"of state 's' ({path}:8:19)")
    assert cli.main(["check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["INCONSISTENT: 1 of 4 concepts unsatisfiable", bound]
    assert out[2].startswith("error[UNSAT_STATE] state 's'")

    assert cli.main(["translate", str(path)]) == 0
    out, err = capsys.readouterr()
    assert ("EquivalentClasses(:State_s ObjectIntersectionOf("
            "ObjectMinCardinality(1 :c) ObjectMaxCardinality(0 :c)))"
            in out.splitlines())
    assert err.splitlines() == [bound]

    assert cli.main(["validate", str(path)]) == 0


UNSAT_ROOT = """\
resources U {
  root resource R { attr flag: boolean }
  resource C { attr n: integer }
  association c: R -> C [0..*]
}
behavior B for R {
  initial i
  state a { inv: "self.flag = True or self.flag = False" }
  state b { inv: "self.flag = True or self.flag = False" }
  transition i -> a on POST
}
"""


def test_unsatisfiable_resource_is_reported_as_a_resource(tmp_path, capsys):
    # every R is in both a and b, which are disjoint siblings, so R, a and b
    # are empty; C stays satisfiable because nothing forces an R to exist
    path = tmp_path / "unsat.model"
    path.write_text(UNSAT_ROOT)
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "INCONSISTENT: 3 of 4 concepts unsatisfiable",
        f"error[UNSAT_RESOURCE] resource 'R' can never be instantiated ({path}:2:3)",
        f"error[UNSAT_STATE] state 'a' can never be active ({path}:8:3)",
        f"error[UNSAT_STATE] state 'b' can never be active ({path}:9:3)",
    ]
    assert cli.main(["check", str(path), "--oracle", "bounded:3"]) == 1


def _search_finds_a_model(search, fragment):
    return OracleResult(OracleStatus.SAT, 1, FiniteModel(1, {}, {}, {}))


def _search_finds_none(search, fragment):
    return OracleResult(OracleStatus.NO_MODEL_UP_TO_BOUND, search.max_domain)


@pytest.mark.parametrize("search, path, expected", [
    (_search_finds_a_model, MUTATED,
     "restcheck: oracle disagreement on 'processingPayment'"),
    (_search_finds_none, BOOKING, "tableau produced a verified structure"),
], ids=["tableau-unsat", "tableau-sat"])
def test_oracle_disagreement_exit_code(monkeypatch, capsys, search, path, expected):
    """Force the search to contradict the tableau and watch the front end."""
    import restcheck.oracle
    monkeypatch.setattr(restcheck.oracle.BoundedSearch, "query", search)
    code = cli.main(["check", path, "--oracle", "bounded:3"])
    assert code == 4
    err = capsys.readouterr().err
    assert expected in err
