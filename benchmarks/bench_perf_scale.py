"""Section 1 benchmark: 6M+ examples in under 30 minutes, measured.

Streams the product pool, cloned by id suffix and staged one epoch per
shard, through the durable ``CheckpointedStream`` (batch 1,024, a
manifest every batch, vote and label shards) at n = 96,000 and
n = 960,000, each in its own child process so ``ru_maxrss`` is that
run's alone. 6.5M examples are extrapolated from the measured 960k rate.
The claim in Section 1 is "implementing weak supervision over 6M+ data
points with sub-30min execution time".

Both gates bind on every run: what the stream holds must not grow with
``n`` (peak RSS), and neither may its cost per example (examples/s).
Commit-to-commit throughput is judged by ``bench/run.py`` only.
"""

from repro.experiments import perf

from benchmarks.conftest import emit

#: Largest peak-RSS growth allowed from the small run to the large one.
RSS_GROWTH_MB = 32

#: Smallest examples/s of the large run, as a share of the small run's.
RATE_RATIO = 0.85


def test_scale_is_flat_in_n(benchmark):
    result = benchmark.pedantic(perf.run_scale, rounds=1, iterations=1)
    emit(result)
    small, large = result.rows
    assert large["examples"] == 10 * small["examples"] >= 960_000
    growth = large["peak_rss_mb_after"] - small["peak_rss_mb_after"]
    assert growth <= RSS_GROWTH_MB, (
        f"peak RSS grew {growth:.1f} MB from n = {small['examples']:,} "
        f"to {large['examples']:,}"
    )
    ratio = large["examples_per_second"] / small["examples_per_second"]
    assert ratio >= RATE_RATIO, f"examples/s at the large n is {ratio:.2f}x"
