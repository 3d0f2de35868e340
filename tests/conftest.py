"""Shared paths, a CLI runner, and the acceptance summary hook."""
from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN = EXAMPLES / "golden"
DATA = pathlib.Path(__file__).resolve().parent / "data"

ACCEPTANCE_LINES: list[str] = []


def record(criterion: int, ok: bool, detail: str) -> None:
    """One verdict line per acceptance criterion, echoed in the summary."""
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    """Invoke the command line in a fresh interpreter, from the repo root."""
    return subprocess.run([sys.executable, "-m", "restcheck", *args],
                          capture_output=True, text=True, cwd=ROOT)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
