"""The repo benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N [--runs R] [--traced] [--out FILE]
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --smoke

See ``bench/README.md`` for the glossary. The first form is one
measured run in this process (the benchmark driver's contract: the last
stdout line is the result object); the second runs every workload in a
fresh child process per run and writes a result file; ``--compare``
judges two result files by each metric's declared direction and bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("batch_offline", "stream_durable", "pool_parallel", "serve_mixed")
SETUP_REPEATS = 3


def _hermetic() -> None:
    """Scrub every ``REPRO_*`` knob and put ``src`` on the path — before
    anything imports ``repro`` (several modules read the environment at
    import or construction time)."""
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    src = os.path.join(REPO_DIR, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"bench: no program to measure under {src}")
    for path in (src, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_one(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One measured run of one workload in this process."""
    import importlib

    import harness
    import inputs

    module = importlib.import_module(workload)
    sizes = inputs.SMOKE if smoke else inputs.FULL
    clock = harness.Clock()

    setups, ctx, self_seconds = [], None, {}
    for _ in range(1 if (traced or smoke) else SETUP_REPEATS):
        if ctx is not None:
            module.close(ctx)
        with clock.segment() as seg:
            ctx = module.setup(seed, sizes)
        setups.append(seg.calibrated)
    # The resident inputs are the benchmark's, not the program's: keep
    # them out of the collector's way while the program is measured.
    gc.collect()
    gc.freeze()
    try:
        if traced:
            tracer = harness.Tracer(f"{workload}-{seed}")
            result = module.trace(ctx, seconds, clock, tracer)
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.dump(os.path.join(OUT_DIR, f"trace-{workload}.jsonl"))
            values = {**result["metrics"], **result["layer"]}
            values["bench.kernel_ms"] = 1e3 * harness.median(clock.samples)
            values["trace_span_coverage"] = tracer.coverage()
            self_seconds = tracer.self_seconds()
        else:
            result = module.measure(ctx, seconds, clock)
            values = dict(result["metrics"])
            values["setup_s"] = harness.median(setups)
    finally:
        module.close(ctx)
        clock.close()
    if not traced:
        values["peak_rss_mb"] = harness.peak_rss_mb(children=workload == "pool_parallel")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "values": values,
        "idle": module.IDLE,
        "self_seconds": self_seconds,
    }


def result_line(spec: dict, run: dict) -> dict:
    """The driver's result object: exactly the declared metrics."""
    declared = spec["per_layer"] if run["trace"] else spec["end_to_end"]
    values = run["values"]
    for metric in declared:
        name = metric["name"]
        if name not in values:
            # A layer the workload never enters did no work: 0, by name.
            if not run["trace"] or not name.startswith(tuple(run["idle"])):
                raise SystemExit(f"bench: {run['workload']} did not measure {name}")
            values[name] = 0.0
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            metric["name"]: {
                "value": float(run["values"][metric["name"]]),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def print_table(run: dict, line: dict) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"== {run['workload']}  seed={run['seed']}  {kind}")
    for name, metric in line["metrics"].items():
        print(f"{name:<52} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'ops_attempted':<52} {line['attempted']:>16d} count")
    print(f"{'ops_failed':<52} {line['failed']:>16d} count")
    for name, seconds in sorted(run["self_seconds"].items(), key=lambda item: -item[1]):
        print(f"self time  {name:<41} {seconds:>16.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20190630)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, help="runs per workload (default 10); with --workload, run a set of it")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    traced = bool(args.trace or args.traced)

    if args.compare:
        import suite

        return suite.compare(spec, *args.compare)
    if args.workload is None or args.runs is not None:
        import suite

        return suite.run_suite(spec, args, seconds)

    _hermetic()
    run = run_one(args.workload, args.seed, seconds, traced, args.smoke)
    line = result_line(spec, run)
    print_table(run, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
