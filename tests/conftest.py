"""Terminal summary for the acceptance suite: one line per criterion, and a
guard that no test leaves CPython's int<->str digit limit changed."""

import sys

import pytest

_acceptance_results = []


@pytest.fixture(autouse=True)
def _int_str_digit_limit_unchanged():
    """The library converts long integers without touching the interpreter's
    limit; a test that changes it fails, and the limit is put back."""
    get = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = get()
    yield
    after = get()
    if after != before:
        sys.set_int_max_str_digits(before)
        pytest.fail(f"int<->str digit limit changed from {before} to {after}")


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append(
            (report.nodeid.split("::")[-1], report.passed, report.duration)
        )


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, passed, duration in _acceptance_results:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  {status} {name} ({duration:.2f}s)")
