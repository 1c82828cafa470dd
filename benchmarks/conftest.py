"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table, figure or claim from the paper,
or gates one quality experiment; every assertion binds on every run (no
branch on example count or CPU count). Experiment state is cached per
``(task, scale, seed)`` inside :mod:`repro.experiments.harness`, so the
expensive end-to-end pipelines run once per pytest session; the
``benchmark`` fixture then times a representative core computation for
that experiment. Rendered tables are written to ``results/`` and echoed
to stdout (run with ``-s`` to see them inline).
"""

import os

import pytest

#: Scale used by the benchmark suite; override with REPRO_SCALE=full.
SCALE = os.environ.get("REPRO_SCALE", "small")


@pytest.fixture(scope="session")
def scale() -> str:
    return SCALE


def emit(result) -> None:
    """Write an ExperimentResult to results/ and echo it."""
    path = result.write()
    print(f"\n{result.text}\n[written to {path}]")
