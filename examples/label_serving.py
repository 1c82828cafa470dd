#!/usr/bin/env python
"""Low-latency label serving with checkpoint hot-swap.

Runs the full deployment story from docs/SERVING.md on a toy corpus:

1. a checkpointed stream labels the corpus, writing a manifest per
   micro-batch — the serving tier's deployable artifacts;
2. a `LabelServer` starts against an *empty* serving root and answers
   degraded (class prior) — nothing is deployed yet;
3. a mid-stream manifest is "released" (its bytes copied into the
   serving root); the next request hot-swaps generation 1 in (the
   server owns no thread: a request leader checks the root at most
   once per ``poll_ms``);
4. concurrent client threads hammer the server while the *final*
   manifest is released mid-load — generation 2 swaps in without
   dropping a request;
5. every served posterior is verified bitwise against an offline
   `SamplingFreeLabelModel` fit of the served snapshot's stream prefix.

Run:  python examples/label_serving.py
"""

import threading
import time

import numpy as np

from repro.core import SamplingFreeLabelModel
from repro.core.label_model import LabelModelConfig
from repro.core.online_label_model import OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import iter_record_blobs
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.serving import CheckpointModelRegistry, LabelServer, ServeConfig
from repro.streaming import CheckpointedStream, RecordStreamSource
from repro.types import Example

try:
    from examples.quickstart import make_documents
    from examples.streaming_pipeline import build_lfs
except ImportError:  # run as `python examples/label_serving.py`
    from quickstart import make_documents
    from streaming_pipeline import build_lfs


def main():
    examples, _gold = make_documents(n=600, seed=7)
    lfs = build_lfs()
    online_config = OnlineLabelModelConfig()

    # 1. Train side: checkpoint-per-batch stream over staged shards.
    dfs = DistributedFileSystem()
    shards = stage_examples(dfs, examples, "/demo/examples", num_shards=3)
    stream = CheckpointedStream(
        dfs,
        lfs,
        "/demo/stream",
        batch_size=64,
        online_config=online_config,
        checkpoint_every=2,
        write_labels=False,
    )
    stream.run(RecordStreamSource(dfs, shards))
    manifests = stream.manager.manifest_paths()
    print(f"stream wrote {len(manifests)} deployable manifests")

    # Offline references, in stream (shard) order.
    decoded = [
        Example.from_record(r) for r in iter_record_blobs(dfs, shards)
    ]
    matrix = apply_lfs_in_memory(lfs, decoded).matrix
    row_of = {ex.example_id: i for i, ex in enumerate(decoded)}

    def offline_fit(path):
        cursor = stream.manager.load(path).cursor
        model = SamplingFreeLabelModel(LabelModelConfig(seed=0))
        model.fit(matrix[:cursor])
        return model.predict_proba(matrix)

    mid, final = manifests[len(manifests) // 2 - 1], manifests[-1]
    expected = {1: offline_fit(mid), 2: offline_fit(final)}

    def release(path):
        """A deploy is just a manifest copy into the serving root."""
        name = path.rsplit("/", 1)[1]
        dfs.write_file(f"/demo/live/checkpoints/{name}", dfs.read_file(path))

    # 2. Serve side: empty root -> degraded responses.
    registry = CheckpointModelRegistry(
        dfs, "/demo/live", online_config=online_config
    )
    config = ServeConfig(poll_ms=2.0)
    with LabelServer(registry, lfs, config) as server:
        probe = server.predict(decoded[0])
        print(
            f"before any deploy: degraded={probe.degraded} "
            f"posterior={probe.posterior:.2f} (class prior)"
        )

        # 3. First release: a request that finds it deploys it.
        release(mid)
        deadline = time.perf_counter() + 30.0
        while server.predict(decoded[0]).generation != 1:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{mid} was never deployed")
            time.sleep(config.poll_ms / 1e3)
        print(f"deployed {mid} -> generation {registry.generation}")

        # 4. Concurrent load with a mid-load release of the final model.
        served, mismatched = [], 0
        lock = threading.Lock()
        n_clients, per_client = 4, 100

        def client(c):
            # At least per_client requests, then on until the mid-load
            # release answers: the load always outlasts the deploy.
            for i in range(100 * per_client):
                example = decoded[(c * per_client + i) % len(decoded)]
                result = server.predict(example)
                with lock:
                    served.append((example.example_id, result))
                    if len(served) == n_clients * per_client // 2:
                        release(final)
                if i + 1 >= per_client and result.generation == 2:
                    break

        threads = [
            threading.Thread(target=client, args=(c,))
            for c in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = server.report()

    # 5. Verify bitwise against each generation's offline fit.
    by_generation = {}
    for example_id, result in served:
        by_generation[result.generation] = (
            by_generation.get(result.generation, 0) + 1
        )
        if result.posterior != expected[result.generation][row_of[example_id]]:
            mismatched += 1
    print(f"served by generation: {by_generation}")
    print(f"posteriors bitwise-equal to offline fits: {mismatched == 0}")
    print(f"counters: {report['counters']}")
    assert mismatched == 0
    assert report["counters"]["serving/swaps"] == 2
    assert not np.isnan([r.posterior for _, r in served]).any()


if __name__ == "__main__":
    main()
