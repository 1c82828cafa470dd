"""Smoke test of the repo benchmark (run explicitly: ``bench/`` is
outside tier-1 ``testpaths``):

    python3 -m pytest bench/test_smoke.py -q

One ``run.py --smoke`` — every workload, untraced and traced, at a
2,000-example pool — then assertions on what it printed and wrote.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_BUDGET_S = 30.0


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke", "--out", str(out)],
        cwd=REPO_DIR,
        capture_output=True,
        text=True,
        timeout=600,
    )
    seconds = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return {"stdout": done.stdout, "seconds": seconds, "document": json.load(handle)}


def test_declared_names_and_counts(spec):
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for names in (workloads, end_to_end + per_layer):
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in end_to_end
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_run_reports_exactly_the_declared_metrics(spec, smoke):
    results = smoke["document"]["results"]
    seen = {(r["workload"], r["trace"]) for r in results}
    assert seen == {(w["name"], t) for w in spec["workloads"] for t in (0, 1)}
    for result in results:
        declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], float)
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"] is True
        if not result["trace"]:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_table_prints_each_name_once_per_workload_with_its_unit(spec, smoke):
    groups = smoke["stdout"].split("\n== ")[1:]
    assert [g.split()[0] for g in groups] == sorted(w["name"] for w in spec["workloads"])
    for group in groups:
        lines = group.splitlines()[1:]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            rows = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
            assert len(rows) == 1, (group.split()[0], metric["name"])
            assert rows[0][2] == metric["unit"]


def test_host_record_and_budget(smoke):
    host = smoke["document"]["host"]
    for key in ("nproc", "python", "numpy", "seed", "pool_workers", "serve_clients"):
        assert key in host
    assert smoke["seconds"] < SMOKE_BUDGET_S
