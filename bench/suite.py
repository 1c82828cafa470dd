"""Sets of runs, result files, and the parent-vs-change comparison.

A *set* is what the benchmark driver collects: for every workload, N
untraced runs (each a fresh process with its own seed) and optionally
one traced run. ``compare`` judges two sets row by row — one row per
(end-to-end metric, workload) — by the direction and bound declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy

from harness import median, spread

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run in a fresh interpreter; returns its parsed result line."""
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_record(seed: int, runs: int, seconds: float) -> dict:
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "runs": runs,
        "run_seconds": seconds,
        "pool_workers": min(nproc, 4),
        "serve_clients": nproc,
        "recorded_unix": round(time.time()),
    }


def run_suite(spec: dict, args, seconds: float) -> int:
    """Every workload, ``--runs`` seeds each; print medians, write the file."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    smoke = args.smoke
    runs = 1 if smoke else (args.runs or 10)
    seconds = 1.0 if smoke else seconds
    jobs = []
    for workload in names:
        jobs += [(workload, args.seed + k, 0) for k in range(runs)]
        if smoke or args.traced:
            jobs.append((workload, args.seed, 1))

    def run(job) -> dict:
        workload, seed, trace = job
        line = _child(workload, seed, seconds, trace, smoke)
        print(f"{workload} seed {seed} trace {trace}: ok={line['correct']}", flush=True)
        return {"workload": workload, "seed": seed, "trace": trace, **line}

    # Measured runs have the host to themselves; a smoke run checks
    # names and correctness only, so its children may share it.
    with ThreadPoolExecutor(max_workers=(os.cpu_count() or 1) if smoke else 1) as pool:
        results = list(pool.map(run, jobs))
    document = {"host": host_record(args.seed, runs, seconds), "results": results}
    print_summary(spec, document)
    out = args.out
    if out is None:
        os.makedirs(OUT_DIR, exist_ok=True)
        out = os.path.join(OUT_DIR, "smoke.json" if smoke else f"result-{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    failed = sum(r["failed"] for r in results)
    return 1 if failed else 0


def _series(document: dict, workload: str, name: str, trace: int = 0) -> list[float]:
    return [
        r["metrics"][name]["value"]
        for r in document["results"]
        if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]
    ]


def print_summary(spec: dict, document: dict) -> None:
    """One table: every workload a row group, every metric a named line."""
    host = document["host"]
    print(
        f"host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
        f"seed={host['seed']} runs={host['runs']} seconds={host['run_seconds']} "
        f"pool_workers={host['pool_workers']} serve_clients={host['serve_clients']}"
    )
    for workload in sorted({r["workload"] for r in document["results"]}):
        attempted = sum(r["attempted"] for r in document["results"] if r["workload"] == workload)
        failed = sum(r["failed"] for r in document["results"] if r["workload"] == workload)
        print(f"== {workload}  ops_attempted={attempted} ops_failed={failed}")
        for metric in spec["end_to_end"]:
            values = _series(document, workload, metric["name"])
            if not values:
                continue
            iqr = f"{spread(values):.3f}" if len(values) >= 2 else "n/a"
            print(
                f"{metric['name']:<52} {median(values):>16.6g} {metric['unit']:<6}"
                f" spread={iqr} bound={metric['bound']} n={len(values)}"
            )
        for metric in spec["per_layer"]:
            values = _series(document, workload, metric["name"], trace=1)
            if values:
                print(f"{metric['name']:<52} {median(values):>16.6g} {metric['unit']}")


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Judge B against A; returns 1 when any row is not ``ok``."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    one_core = min(a["host"]["nproc"], b["host"]["nproc"]) < 2
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<16}{'metric':<28}{'A median':>14}{'B median':>14}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            va = _series(a, workload, metric["name"])
            vb = _series(b, workload, metric["name"])
            if len(va) < 2 or len(vb) < 2:
                raise SystemExit(
                    f"bench: {workload}/{metric['name']} needs >= 2 runs in both files"
                )
            ma, mb = median(va), median(vb)
            lower = metric["better"] == "lower"
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            widest = max(spread(va), spread(vb))
            b_always_better = max(vb) < min(va) if lower else min(vb) > max(va)
            timed = metric["unit"] not in ("B", "MB", "count")
            if workload == "pool_parallel" and one_core and timed:
                # One core cannot show a pool's wall-clock behaviour.
                verdict = "unresolved"
            elif widest > metric["bound"] and not b_always_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{workload:<16}{metric['name']:<28}{ma:>14.6g}{mb:>14.6g}"
                  f"{worse_by:>+10.3f}{widest:>9.3f}{metric['bound']:>7}  {verdict}")
    print(", ".join(f"{count} {name}" for name, count in verdicts.items()))
    return 0 if verdicts["regressed"] == verdicts["unresolved"] == 0 else 1
