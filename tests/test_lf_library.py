"""Tests for the labeling-function template library (Section 5.1)."""

import numpy as np
import pytest

from repro.lf.applier import LFApplier, apply_lfs_in_memory, stage_examples
from repro.lf.base import read_lf_votes
from repro.lf.default import LabelingFunction
from repro.lf.nlp import NLPLabelingFunction, celebrity_example_lf
from repro.lf.registry import LFCategory, LFInfo, LFRegistry
from repro.services.base import ModelServer, ServiceUnavailable
from repro.services.nlp_server import NLPServer
from repro.types import ABSTAIN, Example


def make_examples(n=20):
    return [
        Example(
            example_id=f"x{i}",
            fields={"title": f"item {i}", "body": "good" if i % 2 else "bad"},
        )
        for i in range(n)
    ]


def shard_votes(dfs, result):
    """Every vote ``result``'s shards hold, by example id."""
    votes = {}
    for path in result.output_paths:
        ids, shard = read_lf_votes(dfs, path)
        votes.update(zip(ids, shard.tolist()))
    return votes


def simple_lf(name="parity", vote_on="good", vote=1, servable=True):
    info = LFInfo(
        name=name,
        category=LFCategory.CONTENT_HEURISTIC,
        servable=servable,
    )
    return LabelingFunction(
        info, lambda x: vote if vote_on in x.fields["body"] else ABSTAIN
    )


class TestRegistry:
    def test_register_and_lookup(self):
        registry = LFRegistry("app")
        info = LFInfo("a", LFCategory.MODEL_BASED, servable=False)
        registry.register(info)
        assert registry.info("a") is info
        assert "a" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = LFRegistry("app")
        registry.register(LFInfo("a", LFCategory.MODEL_BASED, False))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(LFInfo("a", LFCategory.MODEL_BASED, False))

    def test_servable_partition(self):
        registry = LFRegistry("app")
        registry.register(LFInfo("s", LFCategory.CONTENT_HEURISTIC, True))
        registry.register(LFInfo("n", LFCategory.MODEL_BASED, False))
        assert registry.servable_names() == ["s"]

    def test_category_counts_and_distribution(self):
        registry = LFRegistry("app")
        registry.register(LFInfo("a", LFCategory.MODEL_BASED, False))
        registry.register(LFInfo("b", LFCategory.MODEL_BASED, False))
        registry.register(LFInfo("c", LFCategory.GRAPH_BASED, False))
        counts = registry.category_counts()
        assert counts[LFCategory.MODEL_BASED] == 2

    def test_figure2_table(self):
        registry = LFRegistry("app")
        registry.register(LFInfo("a", LFCategory.MODEL_BASED, False))
        rows = LFRegistry.figure2_table([registry])
        assert rows == [
            {
                "application": "app",
                "category": "model-based",
                "count": 1,
                "fraction": 1.0,
            }
        ]


class TestLabelingFunctionRun:
    def test_votes_written_to_dfs(self, dfs):
        examples = make_examples(10)
        paths = stage_examples(dfs, examples, "/data/examples", num_shards=2)
        lf = simple_lf()
        result = lf.run(dfs, paths, "/runs/parity/votes")

        assert result.examples_seen == 10
        assert result.positives == 5
        assert result.abstains == 5
        assert result.coverage == pytest.approx(0.5)
        votes = shard_votes(dfs, result)
        assert votes == {f"x{i}": 1 for i in range(10) if i % 2}

    def test_abstains_not_written(self, dfs):
        examples = make_examples(10)
        paths = stage_examples(dfs, examples, "/d/e", num_shards=1)
        result = simple_lf().run(dfs, paths, "/r/votes")
        assert result.votes_emitted == 5

    def test_invalid_vote_rejected(self, dfs):
        examples = make_examples(4)
        paths = stage_examples(dfs, examples, "/d/e2", num_shards=1)
        info = LFInfo("bad", LFCategory.CONTENT_HEURISTIC, True)
        lf = LabelingFunction(info, lambda x: 7)
        from repro.mapreduce.runner import WorkerFailure

        with pytest.raises(WorkerFailure):
            lf.run(dfs, paths, "/r/bad")

    def test_vote_in_memory_matches_run(self, dfs):
        examples = make_examples(12)
        lf = simple_lf()
        memory_votes = [lf.vote_in_memory(e) for e in examples]
        paths = stage_examples(dfs, examples, "/d/e3", num_shards=3)
        result = lf.run(dfs, paths, "/r/v3")
        dfs_votes = shard_votes(dfs, result)
        for example, vote in zip(examples, memory_votes):
            assert dfs_votes.get(example.example_id, 0) == vote

    def test_resource_lifecycle_managed(self):
        from repro.services.base import ModelServer

        class Res(ModelServer):
            pass

        resource = Res()
        info = LFInfo("r", LFCategory.MODEL_BASED, False)
        lf = LabelingFunction(info, lambda x: 0, resources=[resource])
        lf.start()
        assert resource.running
        lf.stop()
        assert not resource.running


class TestNLPLabelingFunction:
    def _server_factory(self):
        return NLPServer({"avery sterling": "person"})

    def _lf(self):
        info = LFInfo("nlp", LFCategory.MODEL_BASED, False)
        return NLPLabelingFunction(
            info,
            get_text=lambda x: x.fields.get("body", ""),
            get_value=lambda x, nlp: -1 if not nlp.people else 0,
            server_factory=self._server_factory,
        )

    def test_paper_example_votes(self, dfs):
        examples = [
            Example("a", fields={"body": "market news today"}),
            Example("b", fields={"body": "Avery Sterling spotted"}),
        ]
        paths = stage_examples(dfs, examples, "/d/nlp", num_shards=1)
        result = self._lf().run(dfs, paths, "/r/nlp")
        votes = shard_votes(dfs, result)
        assert votes == {"a": -1}  # b abstains (person present)

    def test_requires_node_service(self):
        lf = self._lf()
        with pytest.raises(ServiceUnavailable):
            lf._vote(Example("x", fields={"body": "text"}), service=None)

    def test_celebrity_example_factory(self):
        lf = celebrity_example_lf(self._server_factory)
        assert lf.info.category is LFCategory.MODEL_BASED
        assert not lf.info.servable
        vote = lf.vote_in_memory(Example("x", fields={"title": "", "body": "plain"}))
        assert vote == -1
        lf.stop()

    def test_server_started_per_node(self, dfs):
        starts = []

        def factory():
            server = NLPServer({})
            starts.append(server)
            return server

        info = LFInfo("nlp2", LFCategory.MODEL_BASED, False)
        lf = NLPLabelingFunction(
            info,
            get_text=lambda x: "",
            get_value=lambda x, nlp: 0,
            server_factory=factory,
        )
        examples = make_examples(8)
        paths = stage_examples(dfs, examples, "/d/nlp2", num_shards=4)
        lf.run(dfs, paths, "/r/nlp2")
        assert len(starts) == 1  # one job -> one server


class TestApplier:
    def test_apply_joins_votes(self, dfs):
        examples = make_examples(10)
        paths = stage_examples(dfs, examples, "/d/app", num_shards=2)
        lfs = [simple_lf("good_lf", "good", 1), simple_lf("bad_lf", "bad", -1)]
        applier = LFApplier(dfs, paths, run_root="/runs/app")
        report = applier.apply(lfs)
        matrix = report.label_matrix
        assert matrix.shape == (10, 2)
        assert matrix.lf_names == ["good_lf", "bad_lf"]
        # Every example gets exactly one vote (good xor bad).
        assert np.all(np.abs(matrix.matrix).sum(axis=1) == 1)

    def test_apply_matches_in_memory(self, dfs):
        examples = make_examples(15)
        lfs = [simple_lf("g", "good", 1), simple_lf("b", "bad", -1)]
        memory = apply_lfs_in_memory(lfs, examples)
        paths = stage_examples(dfs, examples, "/d/eq", num_shards=3)
        report = LFApplier(dfs, paths, run_root="/runs/eq").apply(lfs)
        assert memory.lf_names == report.label_matrix.lf_names
        # Join on ids: DFS sharding interleaves row order.
        dfs_matrix = report.label_matrix.select_examples(memory.example_ids)
        assert np.array_equal(memory.matrix, dfs_matrix.matrix)

    @pytest.mark.parametrize("batch_size", [64, None])
    def test_apply_rejects_duplicate_names_before_any_job(self, dfs, batch_size):
        """``None``: the per-record reference, ``apply_per_lf``."""
        paths = stage_examples(dfs, make_examples(6), "/d/dup", num_shards=2)
        lfs = [simple_lf("same", "good", 1), simple_lf("same", "bad", -1)]
        if batch_size is None:
            run = LFApplier(dfs, paths, run_root="/runs/dup").apply_per_lf
        else:
            run = LFApplier(dfs, paths, run_root="/runs/dup", batch_size=batch_size).apply
        with pytest.raises(ValueError, match="'same'"):
            run(lfs)
        assert dfs.list("/runs/dup/") == []

    @pytest.mark.parametrize("batch_size", [None, 0])
    def test_batch_size_must_be_a_positive_int(self, dfs, batch_size):
        with pytest.raises(ValueError, match="apply_per_lf"):
            LFApplier(dfs, [], batch_size=batch_size)

    def test_failed_start_leaves_the_resource_stopped(self, dfs):
        """Regression: a resource whose start raised stayed marked as
        running, so after one failed ``apply`` every later run labelled
        silently through the half-started resource."""

        class Broken(ModelServer):
            def _on_start(self):
                raise RuntimeError("model failed to load")

        resource = Broken()
        info = LFInfo("needs_model", LFCategory.MODEL_BASED, False)
        lf = LabelingFunction(info, lambda x: 1, resources=[resource])
        examples = make_examples(4)
        paths = stage_examples(dfs, examples, "/d/broken", num_shards=2)
        with pytest.raises(RuntimeError, match="failed to load"):
            LFApplier(dfs, paths, run_root="/runs/broken").apply([lf])
        assert not resource.running and resource.stats.starts == 0
        with pytest.raises(RuntimeError, match="failed to load"):
            apply_lfs_in_memory([lf], examples)
        assert not resource.running and resource.stats.starts == 0

    def test_partial_start_is_stopped(self, dfs):
        """Regression: when a later LF's resource failed to start, the
        resources started before it stayed up after ``apply`` raised."""

        class Broken(ModelServer):
            def _on_start(self):
                raise RuntimeError("model failed to load")

        healthy = ModelServer("healthy")
        lfs = [
            LabelingFunction(
                LFInfo(name, LFCategory.MODEL_BASED, False),
                lambda x: 1,
                resources=[resource],
            )
            for name, resource in (("first", healthy), ("second", Broken()))
        ]
        examples = make_examples(4)
        paths = stage_examples(dfs, examples, "/d/partial", num_shards=2)
        with pytest.raises(RuntimeError, match="failed to load"):
            LFApplier(dfs, paths, run_root="/runs/partial").apply(lfs)
        assert not healthy.running
        with pytest.raises(RuntimeError, match="failed to load"):
            apply_lfs_in_memory(lfs, examples)
        assert not healthy.running
        assert healthy.stats.starts == healthy.stats.stops == 2

    def test_apply_rejects_parallelism_above_one(self, dfs):
        paths = stage_examples(dfs, make_examples(6), "/d/par", num_shards=2)
        with pytest.raises(ValueError, match=r"apply_lfs_in_memory\(executor="):
            LFApplier(dfs, paths, run_root="/runs/par", parallelism=2).apply(
                [simple_lf()]
            )
        assert dfs.list("/runs/par/") == []

    def test_stage_examples_validates_shards(self, dfs):
        with pytest.raises(ValueError):
            stage_examples(dfs, make_examples(2), "/d/x", num_shards=0)

    def test_report_throughput(self, dfs):
        examples = make_examples(10)
        paths = stage_examples(dfs, examples, "/d/tp", num_shards=1)
        report = LFApplier(dfs, paths, run_root="/runs/tp").apply([simple_lf()])
        assert report.examples == 10
        assert report.examples_per_second > 0
