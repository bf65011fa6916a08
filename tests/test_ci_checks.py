"""The helpers of ci/checks.py: the memory cap, exit codes, time limits and the
PASS/FAIL runner. The checks themselves run in CI, not here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ci_checks", Path(__file__).resolve().parent.parent / "ci" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def python(program):
    return [sys.executable, "-c", program]


def test_capped_child_is_refused_two_gigabytes_at_once():
    done = checks.run(python("bytearray(2 * 10**9)"), code=1, capped=True)
    assert b"MemoryError" in done.stderr


def test_capped_child_may_allocate_100_megabytes():
    checks.run(python("bytearray(100 * 10**6)"), capped=True)


def test_run_fails_on_another_exit_code():
    with pytest.raises(AssertionError, match="exit 3, not 0"):
        checks.run(python("raise SystemExit(3)"))
    with pytest.raises(AssertionError, match="exit 0, not 1"):
        checks.run(python("pass"), code=1)


def test_run_stops_a_child_at_its_time_limit():
    with pytest.raises(subprocess.TimeoutExpired):
        checks.run(python("import time; time.sleep(5)"), timeout=0.5)


def test_main_runs_every_check_and_fails_if_one_fails(monkeypatch, capsys):
    def failing(out):
        checks.pin("answer", 41, 42)

    def passing(out):
        assert out.is_dir()

    monkeypatch.setattr(checks, "CHECKS", [failing, passing])
    assert checks.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("PASS", "FAIL"))] == [
        "FAIL failing", "PASS passing"]
    assert "AssertionError: answer: 41, not 42" in lines
