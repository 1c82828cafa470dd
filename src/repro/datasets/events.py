"""Synthetic real-time events stream (Section 3.3).

The application: classify events "across two of Google's platforms",
where the incumbent approach uses offline, non-servable features
(aggregate statistics, relationship graphs) and therefore "induces
latency between when an event occurs and when it is identified".

World model
-----------
* **Sources** emit events. Each source has a latent badness rate, drawn
  from a good/bad mixture, and belongs to a community; bad sources
  cluster (communities share badness), which is what makes the
  relationship graph informative.
* **Aggregates** (volume, historical bad rate, account age, burst score,
  distinct targets) are batch-computed per source — but only for sources
  with history. A configurable slice of traffic comes from *fresh*
  sources with no aggregates at all: offline signals are structurally
  blind there, which is precisely the detection-latency gap the paper
  motivates (and why the Logical-OR baseline under-identifies events).
* **Offline models**: several small pre-existing classifiers score each
  source from its aggregates with varying noise — the "several smaller
  models that had previously been developed" used as weak labelers.
* **Servable features**: each event carries a real-time signal vector
  (some dimensions shifted under bad events, some weakly shifted, some
  pure noise) that is available at serving time with no aggregation
  delay. The cross-feature transfer trains a DNN on exactly these.

The label matrix regime this produces: ~140 weak sources, individually
low coverage, graph-based ones higher-recall/lower-precision (as stated
in Section 3.3), and a meaningful all-abstain slice where only the
real-time model can act.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ScaleConfig, get_scale
from repro.services.aggregates import AggregateStore
from repro.types import Example

__all__ = ["EventsWorld", "EventsDataset", "generate_events_dataset"]

#: Names of the servable real-time signals (the DNN's feature view).
SERVABLE_SIGNALS = [f"rt_signal_{i}" for i in range(16)]

#: Aggregate statistics computed per source by the offline batch jobs.
AGGREGATE_STATS = [
    "volume_30d",
    "bad_rate_30d",
    "age_days",
    "burst_score",
    "distinct_targets",
]

#: Number of pre-existing offline model *families* used as weak labelers.
N_OFFLINE_MODELS = 8

#: Independent variants (versions/snapshots/retrainings) per model
#: family. Each weak-labeler rule thresholds its own variant — a large
#: organization's 140 sources are distinct artifacts, not 140 thresholds
#: over one score, and the conditionally-independent generative model is
#: only well-posed when votes are not bit-identical duplicates.
N_MODEL_VARIANTS = 8

#: Distinct graph-signal views (different teams' graph models).
N_GRAPH_VIEWS = 12


@dataclass
class EventsWorld:
    """Sources, their graph, aggregates, and offline models."""

    n_sources: int
    badness: np.ndarray                  # latent per-source bad rate
    platforms: np.ndarray                # "A" / "B" per source
    has_history: np.ndarray              # bool: aggregates exist
    graph: list[dict[int, None]]         # neighbours per source, insertion-ordered
    aggregate_store: AggregateStore
    aggregates: dict[str, dict[str, float]]
    neighbor_bad_rate: np.ndarray
    neighbor_bad_rate_2hop: np.ndarray
    weighted_neighbor_bad: np.ndarray
    graph_views: np.ndarray              # (n_sources, N_GRAPH_VIEWS)
    offline_model_scores: np.ndarray     # (n_sources, N_OFFLINE_MODELS * N_MODEL_VARIANTS)
    seed: int

    def source_id(self, index: int) -> str:
        return f"src-{index:05d}"


@dataclass
class EventsDataset:
    """The events benchmark: pools, world, and signal metadata."""

    unlabeled: list[Example]
    test: list[Example]
    world: EventsWorld
    signals: list[str] = field(default_factory=lambda: list(SERVABLE_SIGNALS))

    @property
    def unlabeled_gold(self) -> np.ndarray:
        return np.array([e.label for e in self.unlabeled])

    @property
    def test_gold(self) -> np.ndarray:
        return np.array([e.label for e in self.test])

    def stats(self) -> dict[str, object]:
        return {
            "task": "realtime_events",
            "n_unlabeled": len(self.unlabeled),
            "n_test": len(self.test),
            "n_sources": self.world.n_sources,
            "pct_positive_test": 100.0 * float((self.test_gold == 1).mean()),
            "fresh_source_events_pct": 100.0
            * float(
                np.mean(
                    [
                        not e.non_servable.get("has_history", False)
                        for e in self.unlabeled
                    ]
                )
            ),
        }


# ----------------------------------------------------------------------
# world construction
# ----------------------------------------------------------------------
def _build_world(n_sources: int, seed: int) -> EventsWorld:
    rng = np.random.default_rng(seed + 404)

    # Good/bad mixture with community structure. Bad events come almost
    # entirely from bad sources (event badness tracks source badness
    # closely below), so source-level offline signals are genuinely
    # informative — the paper's incumbent approach works, it is just
    # slow and blind to fresh sources.
    n_communities = max(20, n_sources // 12)
    community_of = rng.integers(0, n_communities, size=n_sources)
    community_bad = np.where(
        rng.random(n_communities) < 0.10,
        rng.beta(12.0, 1.5, size=n_communities),  # bad rings: near-pure abuse
        rng.beta(1.0, 25.0, size=n_communities),  # normal communities
    )
    individual = rng.beta(1.0, 18.0, size=n_sources)
    badness = np.clip(
        0.95 * community_bad[community_of] + 0.05 * individual, 0.0, 0.97
    )

    platforms = np.where(rng.random(n_sources) < 0.5, "A", "B")
    # Fresh sources (no aggregate history) skew bad: abusers rotate
    # identities, so the offline signals are blindest exactly where it
    # matters (the detection-latency gap of Section 3.3).
    fresh_prob = np.clip(0.10 + 0.5 * badness, 0.0, 0.85)
    has_history = rng.random(n_sources) >= fresh_prob

    # Relationship graph with homophily: mostly intra-community edges.
    # Undirected adjacency, one dict per source used as an ordered set:
    # neighbours iterate in the order their first edge was added.
    graph: list[dict[int, None]] = [{} for _ in range(n_sources)]
    for s in range(n_sources):
        same = np.flatnonzero(community_of == community_of[s])
        targets = [int(rng.choice(same)) for _ in range(3)]
        targets.append(int(rng.integers(0, n_sources)))
        for t in targets:
            if t != s:
                graph[s][t] = graph[t][s] = None

    # Aggregates (only for sources with history).
    aggregates: dict[str, dict[str, float]] = {}
    store = AggregateStore()
    volume = rng.lognormal(3.0, 1.0, size=n_sources)
    age = rng.exponential(500.0 * (1.0 - badness) + 40.0)
    burst = np.clip(0.55 * badness + rng.normal(0.0, 0.18, n_sources), 0.0, 1.0)
    bad_rate = np.clip(badness + rng.normal(0.0, 0.07, n_sources), 0.0, 1.0)
    targets = rng.poisson(4.0 + 50.0 * badness)
    for s in range(n_sources):
        if not has_history[s]:
            continue
        aggregates[f"src-{s:05d}"] = {
            "volume_30d": float(volume[s]),
            "bad_rate_30d": float(bad_rate[s]),
            "age_days": float(age[s]),
            "burst_score": float(burst[s]),
            "distinct_targets": float(targets[s]),
        }
    store.load_batch(aggregates)

    # Graph signals. Different graph models at the organization compute
    # different neighborhood statistics (1-hop vs 2-hop, degree-weighted,
    # ...); modeling them as distinct noisy views keeps the 30 graph LFs
    # from being bit-identical copies of one field.
    neighbor_bad_rate = np.zeros(n_sources)
    neighbor_bad_rate_2hop = np.zeros(n_sources)
    for s in range(n_sources):
        rates = [bad_rate[t] for t in graph[s] if has_history[t]]
        neighbor_bad_rate[s] = float(np.mean(rates)) if rates else 0.0
        two_hop: set[int] = set()
        for t in graph[s]:
            # From an iterator, not the dict: ``set.update(dict)``
            # presizes the table, which reorders the set and so the
            # float sum below.
            two_hop.update(iter(graph[t]))
        two_hop.discard(s)
        rates2 = [bad_rate[t] for t in two_hop if has_history[t]]
        neighbor_bad_rate_2hop[s] = float(np.mean(rates2)) if rates2 else 0.0
    weighted_neighbor_bad = np.clip(
        neighbor_bad_rate + rng.normal(0.0, 0.06, n_sources), 0.0, 1.0
    )
    base_graph = [neighbor_bad_rate, neighbor_bad_rate_2hop, weighted_neighbor_bad]
    graph_views = np.zeros((n_sources, N_GRAPH_VIEWS))
    for v in range(N_GRAPH_VIEWS):
        graph_views[:, v] = np.clip(
            base_graph[v % 3] + rng.normal(0.0, 0.05, n_sources), 0.0, 1.0
        )

    # Offline models: noisy linear-sigmoid scorers over the aggregates.
    features = np.column_stack([
        np.log1p(volume),
        bad_rate,
        np.log1p(age),
        burst,
        np.log1p(targets),
        weighted_neighbor_bad,
    ])
    standardized = (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-9)
    #: Hand-set signs so every offline model family is positively oriented
    #: toward badness but attends to different signals with different noise.
    base_weights = np.array([
        [0.1, 1.6, -0.6, 0.7, 0.4, 0.5],
        [0.0, 1.2, -0.9, 0.2, 0.1, 0.9],
        [0.3, 0.8, -0.2, 1.1, 0.6, 0.1],
        [-0.2, 1.9, -0.4, 0.3, 0.2, 0.2],
        [0.2, 0.5, -1.1, 0.8, 0.9, 0.3],
        [0.1, 1.0, -0.5, 0.5, 0.3, 1.2],
        [0.4, 0.6, -0.3, 1.4, 0.2, 0.4],
        [0.0, 1.4, -0.7, 0.6, 0.5, 0.6],
    ])
    noise_levels = np.array([0.4, 0.5, 0.8, 0.45, 0.9, 0.55, 1.0, 0.6])
    model_scores = np.zeros((n_sources, N_OFFLINE_MODELS * N_MODEL_VARIANTS))
    for m in range(N_OFFLINE_MODELS):
        raw_base = standardized @ base_weights[m]
        for v in range(N_MODEL_VARIANTS):
            # Each variant (model version / retraining) draws its own
            # noise, so no two weak-labeler rules threshold an identical
            # score.
            raw = raw_base + rng.normal(0.0, noise_levels[m], n_sources)
            model_scores[:, m * N_MODEL_VARIANTS + v] = 1.0 / (1.0 + np.exp(-raw))
    # Fresh sources have no offline scores; mark with NaN.
    model_scores[~has_history] = np.nan
    graph_views[~has_history] = np.nan

    return EventsWorld(
        n_sources=n_sources,
        badness=badness,
        platforms=platforms,
        has_history=has_history,
        graph=graph,
        aggregate_store=store,
        aggregates=aggregates,
        neighbor_bad_rate=neighbor_bad_rate,
        neighbor_bad_rate_2hop=neighbor_bad_rate_2hop,
        weighted_neighbor_bad=weighted_neighbor_bad,
        graph_views=graph_views,
        offline_model_scores=model_scores,
        seed=seed,
    )


# ----------------------------------------------------------------------
# event emission
# ----------------------------------------------------------------------
def _emit_event(
    rng: np.random.Generator,
    world: EventsWorld,
    index: int,
) -> Example:
    s = int(rng.integers(0, world.n_sources))
    p_bad = float(np.clip(0.005 + 0.95 * world.badness[s], 0.0, 0.95))
    y = 1 if rng.random() < p_bad else -1

    # Real-time servable signals: 4 strong dims, 4 weak dims, 8 noise.
    signal = np.zeros(16)
    severity = rng.normal(1.0, 0.3) if y == 1 else 0.0
    signal[:4] = rng.normal(1.5 * severity, 1.0, size=4)
    signal[4:8] = rng.normal(0.6 * severity, 1.0, size=4)
    signal[8:] = rng.normal(0.0, 1.0, size=8)

    source_id = world.source_id(s)
    non_servable: dict[str, object] = {
        "has_history": bool(world.has_history[s]),
    }
    if world.has_history[s]:
        # Offline signals exist only for sources with history: fresh
        # sources are structurally invisible to every weak source, which
        # is the detection gap the real-time model closes.
        non_servable.update(world.aggregates[source_id])
        for v in range(N_GRAPH_VIEWS):
            non_servable[f"graph_view_{v}"] = float(world.graph_views[s, v])
        for k in range(N_OFFLINE_MODELS * N_MODEL_VARIANTS):
            non_servable[f"offline_model_{k}"] = float(
                world.offline_model_scores[s, k]
            )

    servable = {name: float(signal[i]) for i, name in enumerate(SERVABLE_SIGNALS)}
    servable["platform_a"] = 1.0 if world.platforms[s] == "A" else 0.0

    return Example(
        example_id=f"event-{index:07d}",
        fields={
            "event_id": f"event-{index:07d}",
            "source_id": source_id,
            "platform": str(world.platforms[s]),
        },
        servable=servable,
        non_servable=non_servable,
        label=y,
    )


def generate_events_dataset(
    scale: ScaleConfig | str | None = None,
    seed: int = 0,
    n_sources: int | None = None,
) -> EventsDataset:
    """Generate the two-platform real-time events benchmark."""
    scale = scale if isinstance(scale, ScaleConfig) else get_scale(scale)
    total = scale.events_unlabeled + scale.events_test
    if n_sources is None:
        n_sources = max(150, total // 40)
    world = _build_world(n_sources, seed)
    rng = np.random.default_rng(seed + 505)

    events = [_emit_event(rng, world, i) for i in range(total)]
    return EventsDataset(
        unlabeled=events[: scale.events_unlabeled],
        test=events[scale.events_unlabeled:],
        world=world,
    )
