"""Shared fixtures for the test suite.

Heavy artifacts (tiny-scale datasets, label matrices) are session-scoped:
they are deterministic given (seed, scale), so sharing them across tests
only trades isolation we do not need for a large speedup.

With ``REPRO_TSAN=1`` the whole suite runs under the runtime
concurrency sanitizer (``repro.sanitizer``): the threading primitives
are swapped for recording proxies at configure time, the session writes
``sanitizer-report.json`` at teardown, and any finding (a lock-order
cycle observed live) fails the run.
With the knob unset the sanitizer is never imported.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Iterator

import numpy as np
import pytest

from repro.config import TINY_SCALE
from repro.datasets.content import (
    build_content_world,
    generate_product_dataset,
    generate_topic_dataset,
)
from repro.datasets.events import generate_events_dataset
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import RecordCorruption


_TSAN_INSTALLED = False

#: ``[length][CRC32]``, both 4-byte big-endian: the record framing.
_RECORD_HEADER = struct.Struct(">II")


def _tsan_requested() -> bool:
    """The REPRO_TSAN check, inlined so the off-path imports nothing."""
    value = os.environ.get("REPRO_TSAN", "").strip().lower()
    return value not in {"", "0", "false", "no"}


def pytest_configure(config):
    """Install the concurrency sanitizer before any test module loads."""
    global _TSAN_INSTALLED
    if _tsan_requested():
        from repro import sanitizer

        sanitizer.install()
        _TSAN_INSTALLED = True


def pytest_unconfigure(config):
    """Restore the real threading primitives at session end."""
    global _TSAN_INSTALLED
    if _TSAN_INSTALLED:
        from repro import sanitizer

        if sanitizer.installed():
            sanitizer.uninstall()
        _TSAN_INSTALLED = False


@pytest.fixture(scope="session", autouse=True)
def _concurrency_sanitizer_gate():
    """Session gate: write the sanitizer report and fail on findings.

    Runs its teardown after the last test, so the report covers every
    acquisition order the suite ran; a recorded cycle is a genuine
    deadlock hazard.
    """
    yield
    if not _TSAN_INSTALLED:
        return
    from repro import sanitizer

    graph = sanitizer.active_graph()
    if graph is None:
        return
    payload = sanitizer.write_report(graph, sanitizer.report_path_from_env())
    assert payload["ok"], (
        "concurrency sanitizer recorded findings "
        f"(see {sanitizer.report_path_from_env()}):\n"
        + "\n".join(
            f"  {row['rule']} at {row['path']}:{row['line']}: "
            f"{row['message']}"
            for row in payload["findings"]
        )
    )


@pytest.fixture()
def dfs() -> DistributedFileSystem:
    return DistributedFileSystem()


@pytest.fixture(scope="session")
def content_world():
    return build_content_world(seed=0)


@pytest.fixture(scope="session")
def topic_dataset():
    return generate_topic_dataset(TINY_SCALE, seed=3)


@pytest.fixture(scope="session")
def product_dataset():
    return generate_product_dataset(TINY_SCALE, seed=3)


@pytest.fixture(scope="session")
def events_dataset():
    return generate_events_dataset(TINY_SCALE, seed=1)


def synthetic_label_matrix(
    m: int = 2000,
    accuracies=(0.9, 0.8, 0.75, 0.7, 0.65),
    propensities=(0.6, 0.5, 0.6, 0.4, 0.5),
    positive_rate: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (L, y) exactly from the paper's generative model.

    Each LF votes with its propensity and, conditioned on voting, is
    correct with its accuracy — the model the sampling-free trainer
    assumes, so parameter-recovery tests have a well-defined target.
    """
    rng = np.random.default_rng(seed)
    accuracies = np.asarray(accuracies, dtype=float)
    propensities = np.asarray(propensities, dtype=float)
    if accuracies.shape != propensities.shape:
        raise ValueError("accuracies and propensities must align")
    y = np.where(rng.random(m) < positive_rate, 1, -1).astype(np.int8)
    L = np.zeros((m, len(accuracies)), dtype=np.int8)
    for j, (acc, prop) in enumerate(zip(accuracies, propensities)):
        fires = rng.random(m) < prop
        correct = rng.random(m) < acc
        L[fires, j] = np.where(correct[fires], y[fires], -y[fires])
    return L, y


def decode_records(blob: bytes) -> Iterator[dict[str, Any]]:
    """Yield payloads from a framed byte blob, verifying CRCs.

    The whole-blob reference decoder: the stream-decoder tests judge
    ``repro.dfs.records``' incremental readers (payloads and every
    corruption message) against it.
    """
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _RECORD_HEADER.size > total:
            raise RecordCorruption(
                f"truncated header at offset {offset} of {total}"
            )
        length, crc = _RECORD_HEADER.unpack_from(blob, offset)
        offset += _RECORD_HEADER.size
        if offset + length > total:
            raise RecordCorruption(
                f"record of {length} bytes overruns file (offset {offset})"
            )
        body = blob[offset:offset + length]
        offset += length
        if zlib.crc32(body) != crc:
            raise RecordCorruption(f"CRC mismatch at offset {offset - length}")
        yield json.loads(body.decode("utf-8"))


def same_rows(votes, L) -> bool:
    """True when ``votes`` (a ``CompressedVotes``) holds exactly the
    rows of ``L`` as a multiset. ``CompressedVotes`` keeps one canonical
    pattern order, so multiset equality is field equality."""
    from repro.core.patterns import compress_votes

    expected = compress_votes(np.asarray(L))
    return np.array_equal(votes.patterns, expected.patterns) and (
        np.array_equal(votes.weights, expected.weights)
    )


@pytest.fixture(scope="session")
def recovery_matrix():
    """A 3000x6 matrix from known parameters, for recovery tests."""
    return synthetic_label_matrix(
        m=3000,
        accuracies=(0.92, 0.85, 0.8, 0.72, 0.65, 0.6),
        propensities=(0.6, 0.5, 0.7, 0.4, 0.55, 0.45),
        seed=11,
    )


def contract_keys(kind=None, layer=None, conditional=None) -> tuple[str, ...]:
    """Keys of ``repro.obs.KEY_CONTRACT`` matching every given column."""
    from repro.obs import KEY_CONTRACT

    return tuple(
        row.key
        for row in KEY_CONTRACT
        if (kind is None or row.kind == kind)
        and (layer is None or row.layer == layer)
        and (conditional is None or row.conditional == conditional)
    )
