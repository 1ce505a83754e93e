"""Shared test scaffolding: acceptance-criterion results and the CPU line."""

import os
from pathlib import Path

import pytest

from randquad import engine

# subprocesses the tests start (`python -m randquad.cli`) import the same
# checkout as the tests themselves, which pyproject.toml puts on sys.path
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


@pytest.fixture
def acceptance():
    """Record a criterion verdict for the end-of-run summary."""

    def record(number: int, ok: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS[number] = (bool(ok), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(f"randquad usable CPUs: {engine._usable_cpus()}")
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} — {detail}")
