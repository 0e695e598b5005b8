"""Benchmark-suite fixtures: measured cost matrices, shared per session.

Every bench in this directory derives its figure/table from the same
per-dataset cost matrices, mirroring how the paper derives all of its
evaluation from one measurement campaign.  The paper benches take
their tables from :data:`repro.harness.figures.FIGURES`, which measures
each matrix once per session through
:func:`repro.harness.figures.matrix` (a few minutes of pure Python in
total); the ``matrix`` fixture hands the same matrices to the
assertions and publishes how long each measurement took.

Rendered tables are accumulated and printed in the terminal summary, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
every reproduced figure/table without needing ``-s``.

Each bench times its recipe once (the ``benchmark`` fixture below): a
recipe reads memoised matrices, so pytest-benchmark's calibration would
re-run it for hundreds of rounds to time a table lookup.
"""

from __future__ import annotations

import time

import pytest
from pytest_benchmark.fixture import BenchmarkFixture

from repro.harness import figures

_REPORTS: list[str] = []


def publish(table_or_text) -> None:
    """Register a rendered table for the end-of-run report."""
    text = (
        table_or_text
        if isinstance(table_or_text, str)
        else table_or_text.render()
    )
    _REPORTS.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep(
        "=", "reproduced paper figures and tables"
    )
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def matrix():
    """``dataset`` -> its default-scale cost matrix."""
    timed: set[str] = set()

    def get(dataset: str):
        if dataset not in timed:
            timed.add(dataset)
            start = time.time()
            figures.matrix(dataset)
            publish(
                f"[measurement] {dataset} matrix: "
                f"{time.time() - start:.1f}s"
            )
        return figures.matrix(dataset)

    return get


@pytest.fixture(scope="session")
def tables(matrix):
    """``(name, *datasets)`` -> ``FIGURES[name]``'s default-scale
    tables (default: the paper's datasets), each matrix measured
    through :func:`matrix` first."""

    def get(name: str, *datasets: str):
        figure = figures.FIGURES[name]
        for dataset in datasets or figure.datasets:
            matrix(dataset)
        return figure.tables(*datasets)

    return get


class _TimedOnce(BenchmarkFixture):
    """``benchmark(recipe, *args)`` runs and times ``recipe`` once."""

    def __call__(self, recipe, *args, **kwargs):
        return self.pedantic(recipe, args=args, kwargs=kwargs)


@pytest.fixture
def benchmark(benchmark):
    """pytest-benchmark's fixture, timing its recipe in one round.

    pytest-benchmark checks that the fixture is its own class, so this
    one is, with a ``__call__`` that takes the one-round path."""
    benchmark.__class__ = _TimedOnce
    return benchmark
