"""Tests for the unified execution plane.

Covers the :mod:`repro.core.execution` subsystem bottom-up: the
resolver behind every ``executor=`` keyword, executor timings in the
metrics registry, orphan re-planning cost preservation, and the
headline cross-executor equivalence contract: any workload on any
substrate and shard count — serial oracle, thread fan-out, worker
processes, or a localhost cluster with injected faults — serves
element-wise identical results and builds bit-identical models.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterWorker, RetryPolicy)
from repro.core.curation import (CuratedKeyphrases, CuratedLeaf,
                                 CurationConfig)
from repro.core.execution import (EXECUTOR_NAMES, ClusterExecutor,
                                  ProcessShardExecutor, SerialExecutor,
                                  ThreadShardExecutor, resolve_executor)
from repro.core.fast_inference import LeafBatchRunner
from repro.core.model import GraphExModel
from repro.core.sharding import ShardPlan
from repro.obs import MetricsRegistry


# ---------------------------------------------------------------------------
# World fixtures: a skewed multi-leaf catalog with a pooled fallback


def build_curated(sizes=(14, 3, 3, 2, 2)) -> CuratedKeyphrases:
    """Leaves of deliberately skewed sizes (leaf 1 dominates)."""
    leaves = {}
    for leaf_index, n_phrases in enumerate(sizes, start=1):
        leaf = CuratedLeaf(leaf_id=leaf_index)
        for j in range(n_phrases):
            leaf.add(f"leaf{leaf_index} word{j} thing extra", 6 + j,
                     2 + (j % 3))
        leaves[leaf_index] = leaf
    return CuratedKeyphrases(leaves=leaves, effective_threshold=1,
                             config=CurationConfig(min_search_count=1))


@pytest.fixture(scope="module")
def curated():
    return build_curated()


@pytest.fixture(scope="module")
def model(curated):
    return GraphExModel.construct(curated, build_pooled=True)


@pytest.fixture(scope="module")
def requests(model):
    """Known leaves, the pooled fallback, and a duplicate item id."""
    out = []
    for i in range(24):
        leaf_id = 1 + (i % model.n_leaves)
        out.append((i, f"word{i % 5} leaf{leaf_id} thing", leaf_id))
    out.append((100, "leaf1 word0 thing", 999))   # pooled fallback
    out.append((3, "leaf2 word1 thing", 2))       # duplicate id: last wins
    return out


@pytest.fixture(scope="module")
def expected(model, requests):
    return SerialExecutor().run_inference(model, requests, k=5)


def assert_leaf_graphs_identical(reference, fast):
    assert fast.leaf_id == reference.leaf_id
    assert fast.word_vocab.tokens == reference.word_vocab.tokens
    assert np.array_equal(fast.graph.indptr, reference.graph.indptr)
    assert np.array_equal(fast.graph.indices, reference.graph.indices)
    assert fast.graph.n_right == reference.graph.n_right
    assert fast.label_texts == reference.label_texts
    assert np.array_equal(fast.label_lengths, reference.label_lengths)
    assert np.array_equal(fast.search_counts, reference.search_counts)
    assert np.array_equal(fast.recall_counts, reference.recall_counts)


def assert_models_identical(reference, fast):
    assert fast.leaf_ids == reference.leaf_ids
    for leaf_id in reference.leaf_ids:
        assert_leaf_graphs_identical(reference.leaf_graph(leaf_id),
                                     fast.leaf_graph(leaf_id))
    assert (fast.pooled_graph is None) == (reference.pooled_graph is None)
    if reference.pooled_graph is not None:
        assert_leaf_graphs_identical(reference.pooled_graph,
                                     fast.pooled_graph)


# ---------------------------------------------------------------------------
# The resolver: one spelling, executor=


class TestResolveExecutor:
    def test_default_is_thread(self):
        executor = resolve_executor()
        assert isinstance(executor, ThreadShardExecutor)
        assert executor.name == "thread"
        assert executor.workers == 1

    def test_names_resolve_to_matching_classes(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", workers=3),
                          ThreadShardExecutor)
        process = resolve_executor("process", workers=3)
        assert isinstance(process, ProcessShardExecutor)
        assert process.workers == 3

    def test_instance_passes_through(self):
        mine = ThreadShardExecutor(4)
        assert resolve_executor(mine) is mine
        assert resolve_executor(mine, workers=9) is mine

    def test_unknown_spelling_names_the_accepted_ones(self):
        for spelling in ("fiber", "THREAD", 3):
            with pytest.raises(ValueError, match="unknown executor=") \
                    as excinfo:
                resolve_executor(spelling)
            assert str(EXECUTOR_NAMES) in str(excinfo.value)
            assert "parallel" not in str(excinfo.value)

    def test_cluster_needs_a_coordinator(self):
        # A bare string cannot conjure a fleet, with or without
        # workers: the error points at the two ways to get one.
        for kwargs in ({}, {"workers": 3}):
            with pytest.raises(ValueError,
                               match=r"ClusterExecutor\.local\(\)") \
                    as excinfo:
                resolve_executor("cluster", **kwargs)
            assert "existing ClusterExecutor instance" in \
                str(excinfo.value)

    def test_reference_engine_needs_in_process_executor(self):
        resolve_executor("serial", engine="reference")
        resolve_executor("thread", engine="reference")
        with pytest.raises(ValueError, match="semantics reference"):
            resolve_executor("process", engine="reference")


# ---------------------------------------------------------------------------
# Executor timings land in the metrics registry


class TestExecutorTimings:
    def test_executors_record_observations(self, model, curated,
                                           requests):
        registry = MetricsRegistry()
        executor = ThreadShardExecutor(2, metrics=registry)
        executor.run_inference(model, requests, k=5)
        assert registry.counter_value("executor.inference.requests",
                                      executor="thread") == len(requests)
        assert registry.counter_value("executor.inference.tasks",
                                      executor="thread") >= model.n_leaves
        executor.run_construction(curated)
        n_leaves = sum(1 for leaf in curated.leaves.values()
                       if len(leaf) > 0)
        assert registry.counter_value("executor.construction.leaves",
                                      executor="thread") == n_leaves
        assert registry.histogram_stats("executor.construction.seconds",
                                        executor="thread")["count"] == \
            n_leaves

    def test_process_executor_records_worker_timings(self, model,
                                                     curated, requests):
        registry = MetricsRegistry()
        with ProcessShardExecutor(workers=2, metrics=registry) as executor:
            executor.run_inference(model, requests, k=5)
            assert registry.counter_value(
                "executor.inference.requests",
                executor="process") == len(requests)
            executor.run_construction(curated)
            assert registry.histogram_stats(
                "executor.construction.seconds",
                executor="process")["count"] > 0


# ---------------------------------------------------------------------------
# Replan cost preservation


class TestReplanCostPreservation:
    def test_orphans_keep_recorded_costs(self):
        plan = ShardPlan.balance([(1, 50), (2, 40), (3, 30), (4, 20)], 2)
        replanned = plan.replan([1, 4], 2)
        # LPT on the *recorded* costs: 50 and 20 land on separate
        # shards with those exact costs, not re-proxied to 1 each.
        assert replanned.shards == ((1,), (4,))
        assert replanned.shard_costs == [50, 20]

    def test_unknown_key_rejected(self):
        plan = ShardPlan.balance([(1, 5)], 1)
        with pytest.raises(ValueError,
                           match="not part of this plan"):
            plan.replan([1, 99], 1)


# ---------------------------------------------------------------------------
# Cross-executor equivalence: the headline contract


class TestCrossExecutorEquivalence:
    def test_serial_matches_leaf_batch_runner_semantics(
            self, model, requests, expected):
        """The oracle itself agrees with the engine's duplicate-id
        (last wins) and pooled-fallback semantics."""
        runner_expected = {}
        latest = {}
        for index, request in enumerate(requests):
            latest[request[0]] = index
        rows = LeafBatchRunner(model, k=5).run(requests)
        for item_id, index in latest.items():
            runner_expected[item_id] = rows[item_id]
        assert expected == runner_expected

    def test_thread_fan_out_identical(self, model, requests, expected):
        for workers in (2, 3, 8):
            executor = ThreadShardExecutor(workers)
            assert executor.run_inference(model, requests, k=5) == \
                expected

    def test_process_identical(self, model, requests, expected):
        with ProcessShardExecutor(workers=2) as executor:
            assert executor.run_inference(model, requests, k=5) == \
                expected

    def test_construction_identical_across_substrates(self, curated,
                                                      model):
        for executor in (SerialExecutor(), ThreadShardExecutor(3),
                         ProcessShardExecutor(workers=2)):
            with executor:
                rebuilt = GraphExModel.construct(curated,
                                                 build_pooled=True,
                                                 executor=executor)
            assert_models_identical(model, rebuilt)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_any_workload_any_executor_identical(self, data, model):
        """Property: a drawn workload served through a drawn substrate
        and shard count is element-wise identical to the serial
        oracle, and a drawn world built on 1-5 thread shards is
        bit-identical to the serial build — the partition moves with
        the shard count, the outputs do not."""
        leaf_ids = list(model.leaf_ids) + [999]  # 999 -> pooled
        n = data.draw(st.integers(min_value=0, max_value=20))
        requests = []
        for i in range(n):
            leaf_id = data.draw(st.sampled_from(leaf_ids))
            words = data.draw(st.lists(
                st.sampled_from(["leaf1", "leaf2", "word0", "word1",
                                 "thing", "extra", "zzz"]),
                min_size=0, max_size=4))
            item_id = data.draw(st.integers(min_value=0, max_value=8))
            requests.append((item_id, " ".join(words), leaf_id))
        workers = data.draw(st.integers(min_value=1, max_value=5))
        executor = data.draw(st.sampled_from(["serial", "thread"]))
        oracle = SerialExecutor().run_inference(model, requests, k=4)
        got = resolve_executor(executor, workers=workers) \
            .run_inference(model, requests, k=4)
        assert got == oracle

        world = build_curated(tuple(data.draw(st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=1, max_size=6))))
        assert_models_identical(
            GraphExModel.construct(world, build_pooled=True,
                                   executor=SerialExecutor()),
            GraphExModel.construct(world, build_pooled=True,
                                   executor=ThreadShardExecutor(workers)))

    def test_cluster_with_faults_identical(self, model, requests,
                                           expected, tmp_path):
        """A localhost fleet with a worker that hard-dies on its first
        shard still serves the oracle's exact output, and the executor
        records timings for the merged units."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact, format_version=3)
        retry = RetryPolicy(max_attempts=5, base_delay=0.01,
                            max_delay=0.05, jitter=0.0, seed=0)

        async def drive():
            async with ClusterCoordinator(rpc_timeout=20.0,
                                          retry=retry) as coordinator:
                tasks = []
                for name, kwargs in (("doomed",
                                      {"die_after_assignments": 0}),
                                     ("survivor-1", {}),
                                     ("survivor-2", {})):
                    worker = ClusterWorker(coordinator.host,
                                           coordinator.port,
                                           name=name, **kwargs)
                    tasks.append(asyncio.ensure_future(worker.run()))
                await coordinator.wait_for_workers(3, timeout=10.0)
                registry = MetricsRegistry()
                executor = ClusterExecutor(coordinator, metrics=registry)
                got = await executor.run_inference_async(
                    str(artifact), requests, k=5)
                n_observed = registry.histogram_stats(
                    "cluster.unit.seconds", kind="inference")["count"]
                await coordinator.stop()
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                return got, n_observed

        got, n_observed = asyncio.run(drive())
        assert got == expected
        assert n_observed > 0

    def test_local_cluster_executor_lifecycle(self, model, requests,
                                              expected, tmp_path):
        """`ClusterExecutor.local` (the CLI's --executor cluster
        backend) boots, serves identically, and tears down cleanly."""
        from repro.core.serialization import save_model

        artifact = tmp_path / "model"
        save_model(model, artifact, format_version=3)
        executor = ClusterExecutor.local(workers=2)
        try:
            assert executor.run_inference(str(artifact), requests,
                                          k=5) == expected
        finally:
            executor.close()
        executor.close()  # idempotent

    def test_sync_call_on_coordinator_loop_rejected(self):
        async def drive():
            async with ClusterCoordinator() as coordinator:
                executor = ClusterExecutor(coordinator)
                with pytest.raises(RuntimeError, match="own"):
                    executor.run_inference("unused", [])

        asyncio.run(drive())

    def test_unstarted_coordinator_rejected(self):
        executor = ClusterExecutor(ClusterCoordinator())
        with pytest.raises(RuntimeError, match="started"):
            executor.run_inference("unused", [])
