"""Shared pytest plumbing: per-criterion acceptance lines in the summary, and
a fixture that counts the runs of `spectral_data` behind its cache."""

import pytest

from tropasym import spectral

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def spectral_runs(monkeypatch):
    """The matrices `spectral_data` solves (cache misses), from an empty cache."""
    runs = []
    check = spectral._require_max_plus

    def recording(A, what):
        check(A, what)
        if what == "spectral_data":
            runs.append(A)

    spectral.spectral_data.cache_clear()
    monkeypatch.setattr(spectral, "_require_max_plus", recording)
    yield runs
    spectral.spectral_data.cache_clear()
