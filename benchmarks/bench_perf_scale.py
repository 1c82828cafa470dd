"""Section 1 benchmark: the 6M-point sub-30-minute extrapolation.

Runs the full DFS + MapReduce labeling path (staging, one map job for
the whole product suite with its eight token-match LFs fused, per-LF
vote shards written from its returned int8 blocks, the label matrix
assembled from the same blocks) on a slice of the product pool, measures
examples/second, and extrapolates how many simulated nodes would be
needed to label 6.5M examples in under 30 minutes — the claim in
Section 1 ("implementing weak supervision over 6M+ data points with
sub-30min execution time").

This is the paper's claim restated for this substrate, not a perf gate:
throughput of the labeling path is measured and compared across commits
by ``bench/run.py`` (``batch_offline``, ``pool_parallel``) only.
"""

from repro.experiments import perf

from benchmarks.conftest import emit


def test_scale_extrapolation(benchmark, scale):
    result = benchmark.pedantic(
        lambda: perf.run_scale(scale=scale), rounds=1, iterations=1
    )
    emit(result)
    row = result.rows[0]
    assert row["examples_per_second"] > 0
    assert row["nodes_for_30min_at_6_5m"] >= 1
