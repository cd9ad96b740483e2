"""The unified execution plane: one Executor abstraction, four substrates.

GraphEx runs the same shard-shaped work — leaf-group inference batches
and whole-leaf construction — on several execution substrates: an
in-process thread pool, worker processes, and the multi-machine
cluster runner.  This module puts them behind one :class:`Executor`
interface, so every layer (``batch_recommend``,
``GraphExModel.construct``, the serving stack, the CLI) takes a single
``executor=`` argument:

===========  ===================  ==========================  ==========
name         class                where shards run            oracle?
===========  ===================  ==========================  ==========
``serial``   SerialExecutor       calling thread, one shard   yes
``thread``   ThreadShardExecutor  in-process thread pool      no
``process``  ProcessShardExecutor worker processes            no
``cluster``  ClusterExecutor      remote hosts over TCP       no
===========  ===================  ==========================  ==========

:func:`resolve_executor` turns an ``executor=`` value — an instance or
one of :data:`EXECUTOR_NAMES` — into an :class:`Executor`.  All four
substrates are bound by the same contract: **element-wise identical
inference output and bit-identical constructed models** for any
substrate, any worker count, and any failure topology, pinned by the
cross-executor property suite in ``tests/test_execution.py``.

Work is partitioned by :class:`~repro.core.sharding.ShardPlan`, which
LPT-balances leaf groups on request counts and leaves on keyphrase
character counts.  Every executor times its shards through
:meth:`Executor.record_timing` into its metrics registry.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import tempfile
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Hashable, List, Optional,
                    Sequence, Tuple, Union)

from ..obs import MetricsRegistry, NullRegistry
from .batch import BatchResult, InferenceRequest
from .fast_construct import build_leaf_graph_fast, fast_construct_leaf_graphs
from .fast_inference import DEFAULT_DENSE_LIMIT, LeafBatchRunner
from .inference import Recommendation
from .sharding import ShardPlan, ShardWorkerError, _unwrap_shard_future
from .tokenize import DEFAULT_TOKENIZER, TokenCache, Tokenizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..cluster.coordinator import ClusterCoordinator
    from .curation import CuratedKeyphrases, CuratedLeaf
    from .model import GraphExModel, LeafGraph

__all__ = ["EXECUTOR_NAMES", "Executor", "SerialExecutor",
           "ThreadShardExecutor", "ProcessShardExecutor",
           "ClusterExecutor", "resolve_executor"]

#: The substrate names (:attr:`Executor.name`, and the CLI ``--executor``
#: choices).  :func:`resolve_executor` builds the first three from their
#: name; ``"cluster"`` needs a :class:`ClusterExecutor` instance.
EXECUTOR_NAMES = ("serial", "thread", "process", "cluster")


# ---------------------------------------------------------------------------
# The Executor interface


class Executor:
    """One execution substrate for shard-shaped GraphEx work.

    Subclasses implement :meth:`run_inference` (leaf-group shards of a
    request batch) and :meth:`run_construction` (whole-leaf shards of a
    curated corpus) and record per-shard wall-clock timings through
    :meth:`record_timing`.  All substrates are output-equivalent — the
    bit-identity contract in the module docstring — so callers choose
    purely on capacity.

    Attributes:
        name: The :data:`EXECUTOR_NAMES` spelling this class answers to.
        supports_reference: Whether the scalar ``reference``
            engine/builder may pair with this executor.  Only the
            in-process substrates do — the scalar paths stay
            single-process as the semantics oracle.
        metrics: The :class:`~repro.obs.MetricsRegistry` this executor
            records into; a :class:`~repro.obs.NullRegistry` (telemetry
            off) by default.
    """

    name: str = "abstract"
    supports_reference: bool = False

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else NullRegistry()

    def record_timing(self, kind: str,
                      keyed_units: Sequence[Tuple[Hashable, int]],
                      elapsed: float) -> None:
        """Record one timed span of shard work into :attr:`metrics`.

        The single chokepoint for executor timings: ``keyed_units``
        names the work units the span covered (leaf groups with their
        request counts, or leaves with their char-count proxies) and
        ``elapsed`` is its ``perf_counter`` interval.
        """
        metrics = self.metrics
        metrics.inc(f"executor.{kind}.tasks", executor=self.name)
        if kind == "inference":
            metrics.inc("executor.inference.requests",
                        sum(units for _key, units in keyed_units),
                        executor=self.name)
        else:
            metrics.inc("executor.construction.leaves",
                        len(keyed_units), executor=self.name)
        metrics.observe(f"executor.{kind}.seconds", elapsed,
                        executor=self.name)

    def record_plan(self, kind: str, plan: ShardPlan) -> None:
        """Gauge a plan's balance (see ShardPlan.balance_stats)."""
        stats = plan.balance_stats()
        self.metrics.gauge("executor.plan.n_shards",
                           stats["n_shards"], kind=kind,
                           executor=self.name)
        self.metrics.gauge("executor.plan.imbalance",
                           stats["imbalance"], kind=kind,
                           executor=self.name)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None,
                      dense_limit: int = DEFAULT_DENSE_LIMIT
                      ) -> BatchResult:
        """Infer a batch; item id → ranked recommendations with the
        scalar loop's last-request-wins duplicate semantics."""
        raise NotImplementedError

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Tuple[Dict[int, "LeafGraph"], TokenCache]:
        """Build every non-empty leaf graph; same ``(graphs, cache)``
        contract as
        :func:`~repro.core.fast_construct.fast_construct_leaf_graphs`."""
        raise NotImplementedError

    def close(self) -> None:
        """Release owned resources (no-op for in-process executors)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ThreadShardExecutor(Executor):
    """In-process thread sharding (the default substrate).

    Absorbs the thread fan-out that used to live inside
    ``LeafBatchRunner(workers=...)`` / ``fast_construct_leaf_graphs``:
    leaf groups (inference) and whole leaves (construction) are
    LPT-planned via :class:`~repro.core.sharding.ShardPlan` and each
    planned shard runs on a pool thread.  With one worker (or one
    shard) the work runs inline on the calling thread, timing included.

    Args:
        workers: Upper bound on threads (and shards planned).
    """

    name = "thread"
    supports_reference = True

    def __init__(self, workers: int = 1, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics=metrics)
        self.workers = max(1, int(workers))

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None,
                      dense_limit: int = DEFAULT_DENSE_LIMIT
                      ) -> BatchResult:
        requests = list(requests)
        runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit,
                                 dense_limit=dense_limit)
        plan, groups = ShardPlan.for_inference(model, requests,
                                               self.workers)
        self.record_plan("inference", plan)
        results: List[List[Recommendation]] = [[] for _ in requests]

        def run_shard(shard: Sequence[Hashable]) -> None:
            for key in shard:
                indices = groups[key]
                start = time.perf_counter()
                for index, recs in zip(indices, runner.run_indexed(
                        [requests[index] for index in indices])):
                    results[index] = recs
                self.record_timing("inference", [(key, len(indices))],
                                   time.perf_counter() - start)

        if self.workers == 1 or plan.n_shards <= 1:
            for shard in plan.shards:
                run_shard(shard)
        else:
            with ThreadPoolExecutor(max_workers=plan.n_shards) as pool:
                list(pool.map(run_shard, plan.shards))
        out: BatchResult = {}
        for index, (item_id, _title, _leaf_id) in enumerate(requests):
            out[item_id] = results[index]
        return out

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Tuple[Dict[int, "LeafGraph"], TokenCache]:
        cache = TokenCache(tokenizer)
        items = [(leaf_id, leaf) for leaf_id, leaf in
                 curated.leaves.items() if len(leaf) > 0]
        plan = ShardPlan.for_construction(curated, self.workers)
        self.record_plan("construction", plan)
        by_id = dict(items)
        built: Dict[int, "LeafGraph"] = {}

        def run_shard(shard: Sequence[Hashable]) -> None:
            for leaf_id in shard:
                leaf = by_id[leaf_id]
                start = time.perf_counter()
                built[leaf_id] = build_leaf_graph_fast(leaf, cache)
                self.record_timing(
                    "construction",
                    [(leaf_id, sum(map(len, leaf.texts)) + 1)],
                    time.perf_counter() - start)

        if self.workers == 1 or plan.n_shards <= 1:
            for shard in plan.shards:
                run_shard(shard)
        else:
            # The shared TokenCache is safe across shard threads, and
            # the built graphs are insensitive to pool id assignment
            # order — the pinned bit-identity contract.
            with ThreadPoolExecutor(max_workers=plan.n_shards) as pool:
                list(pool.map(run_shard, plan.shards))
        return {leaf_id: built[leaf_id] for leaf_id, _leaf in items}, cache


class SerialExecutor(ThreadShardExecutor):
    """The oracle substrate: one shard, calling thread, no pools.

    Identical code path to :class:`ThreadShardExecutor` with
    ``workers=1`` — everything runs inline — which is exactly what
    makes it the reference the cross-executor property suite compares
    the parallel substrates against.
    """

    name = "serial"

    def __init__(self, *, metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(workers=1, metrics=metrics)


# ---------------------------------------------------------------------------
# Worker-process entry points.  Module-level (picklable by reference) and
# parameterised through per-process globals set by the pool initializer,
# so the model/tokenizer is shipped once per worker, not once per task.

_INFERENCE_RUNNER: Optional[LeafBatchRunner] = None
_CONSTRUCT_TOKENIZER: Optional[Tokenizer] = None


def _init_inference_worker(model: "GraphExModel", k: int,
                           hard_limit: Optional[int],
                           dense_limit: int) -> None:
    """Build this worker's runner once; its shards reuse it."""
    global _INFERENCE_RUNNER
    _INFERENCE_RUNNER = LeafBatchRunner(model, k=k, hard_limit=hard_limit,
                                        dense_limit=dense_limit)


def _run_inference_shard(requests: Sequence[InferenceRequest]
                         ) -> Tuple[List[List[Recommendation]], float]:
    """One inference shard: per-request results in shard order, plus the
    worker-side wall-clock seconds the shard took (measured here so the
    recorded timing never counts pool start-up or queueing).

    Failures come back as :class:`ShardWorkerError` carrying the full
    worker-side traceback — a raw exception would lose it (or, when
    unpicklable, collapse into a bare ``BrokenProcessPool``).
    """
    try:
        start = time.perf_counter()
        rows = _INFERENCE_RUNNER.run_indexed(requests)
        return rows, time.perf_counter() - start
    except Exception:
        raise ShardWorkerError(traceback.format_exc()) from None


def _init_construct_worker(tokenizer: Tokenizer) -> None:
    global _CONSTRUCT_TOKENIZER
    _CONSTRUCT_TOKENIZER = tokenizer


def _build_construct_shard(leaves: Sequence["CuratedLeaf"],
                           artifact_dir: str):
    """One construction shard: graphs land on disk, not in a pickle.

    The built leaf graphs are written as a zero-copy format-3 *leaf
    bundle* (:func:`repro.core.serialization.save_leaf_graphs` — raw
    page-aligned arrays plus one string blob); only the shard's token
    pool state and per-leaf build timings cross the process boundary as
    a pickle.  The parent opens the bundle with ``mmap=True``, so the
    graphs are never serialized object-by-object — the pickle return
    path used to *dominate* process construction (0.52x vs the thread
    path at 2 workers on small worlds).

    The per-shard :class:`TokenCache` keeps the memoized-tokenization
    win within the shard; its exported state is merged into the parent
    cache afterwards so the pooled-graph build still skips every text
    the shards already processed.

    Returns:
        ``(token_state, timings)`` — the exported cache state and
        ``(leaf_id, seconds)`` per built leaf for the metrics registry.
    """
    from .serialization import save_leaf_graphs

    try:
        cache = TokenCache(_CONSTRUCT_TOKENIZER)
        graphs = []
        timings: List[Tuple[int, float]] = []
        for leaf in leaves:
            start = time.perf_counter()
            graphs.append(build_leaf_graph_fast(leaf, cache))
            timings.append((leaf.leaf_id,
                            time.perf_counter() - start))
        save_leaf_graphs(graphs, artifact_dir)
        return cache.export_state(), timings
    except Exception:
        # A half-written bundle must not outlive the failure: the parent
        # only removes the staging root it knows about, and a retrying
        # caller would otherwise mmap stale arrays from this attempt.
        shutil.rmtree(artifact_dir, ignore_errors=True)
        raise ShardWorkerError(traceback.format_exc()) from None


class ProcessShardExecutor(Executor):
    """Runs fast-engine shards in worker processes.

    Args:
        workers: Upper bound on worker processes (and shards planned).
            With one worker, or one shard after planning, work runs in
            the calling process — same output, no pool overhead.
        start_method: Optional multiprocessing start method ("fork",
            "spawn", "forkserver"); None uses the platform default.

    Output is element-wise/bit-identical to the single-process fast
    paths for any worker count (see the module docstring for why).
    """

    name = "process"

    def __init__(self, workers: int = 2,
                 start_method: Optional[str] = None, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics=metrics)
        self._workers = max(1, int(workers))
        self._start_method = start_method

    @property
    def workers(self) -> int:
        """Upper bound on worker processes."""
        return self._workers

    def _pool(self, n_shards: int, initializer, initargs
              ) -> ProcessPoolExecutor:
        context = (multiprocessing.get_context(self._start_method)
                   if self._start_method is not None else None)
        return ProcessPoolExecutor(max_workers=n_shards,
                                   mp_context=context,
                                   initializer=initializer,
                                   initargs=initargs)

    def plan_inference(self, model: "GraphExModel",
                       requests: Sequence[InferenceRequest]
                       ) -> Tuple[ShardPlan, Dict[int, List[int]]]:
        """Group servable requests by leaf graph and balance the groups.

        Mirrors ``LeafBatchRunner``'s grouping: a request is keyed by
        its leaf id when that leaf has a graph, by the pooled
        pseudo-leaf when it falls back to the pooled graph, and is
        excluded (its result is ``[]``) when neither exists.  Costs are
        the group request counts.

        Returns:
            ``(plan, groups)`` — the balanced plan over group keys, and
            each group's request indices in batch order.
        """
        return ShardPlan.for_inference(model, requests, self._workers)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None,
                      dense_limit: int = DEFAULT_DENSE_LIMIT
                      ) -> BatchResult:
        """Infer a batch with leaf-group shards in worker processes.

        Returns:
            Item id → ranked recommendations, with the scalar loop's
            duplicate-id semantics (the last request for an id wins)
            even when the duplicates land in different shards.
        """
        requests = list(requests)
        # Constructing the local runner validates hard_limit and the
        # alignment probe up front, and serves the no-pool fallback.
        runner = LeafBatchRunner(model, k=k, hard_limit=hard_limit,
                                 dense_limit=dense_limit)
        plan, groups = self.plan_inference(model, requests)
        self.record_plan("inference", plan)
        results: List[List[Recommendation]] = [[] for _ in requests]
        if self._workers == 1 or plan.n_shards <= 1:
            for shard in plan.shards:
                for key in shard:
                    indices = groups[key]
                    start = time.perf_counter()
                    for index, recs in zip(indices, runner.run_indexed(
                            [requests[index] for index in indices])):
                        results[index] = recs
                    self.record_timing(
                        "inference", [(key, len(indices))],
                        time.perf_counter() - start)
        else:
            shards = [[index for key in shard for index in groups[key]]
                      for shard in plan.shards]
            with self._pool(len(shards), _init_inference_worker,
                            (model, k, hard_limit, dense_limit)) as pool:
                futures = [pool.submit(_run_inference_shard,
                                       [requests[index]
                                        for index in shard])
                           for shard in shards]
                for shard_index, (shard, future) in enumerate(
                        zip(shards, futures)):
                    shard_results, elapsed = _unwrap_shard_future(
                        future, "inference", shard_index,
                        plan.shards[shard_index])
                    for index, recs in zip(shard, shard_results):
                        results[index] = recs
                    self.record_timing(
                        "inference",
                        [(key, len(groups[key]))
                         for key in plan.shards[shard_index]], elapsed)
        out: BatchResult = {}
        for index, (item_id, _title, _leaf_id) in enumerate(requests):
            out[item_id] = results[index]
        return out

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Tuple[Dict[int, "LeafGraph"], TokenCache]:
        """Build every non-empty leaf graph with whole-leaf process shards.

        The cost estimate is each leaf's summed keyphrase character
        count — proportional to token occurrences, hence to the edge
        pairs the build pass walks — without paying a tokenization pass
        in the parent.  Shard states merge into the returned cache in
        shard-index order (deterministic pool, reused by the
        pooled-graph build exactly as in the thread path).

        Return path: each worker persists its built graphs as a
        format-3 leaf bundle under a temporary directory and the
        parent opens every bundle *zero-copy*
        (:func:`~repro.core.serialization.load_leaf_graphs` with
        ``mmap=True``) instead of unpickling graph objects.  The
        returned graphs' arrays are read-only views over the bundle
        mappings; the temporary files are unlinked before returning
        (live mappings keep them readable — POSIX), so nothing leaks.
        The graphs are element-wise/string-identical to the thread
        path's, as the equivalence suites pin.

        Returns:
            ``(leaf_graphs, cache)`` with the same contract as
            :func:`~repro.core.fast_construct.fast_construct_leaf_graphs`.
        """
        from .serialization import load_leaf_graphs

        items = [(leaf_id, leaf) for leaf_id, leaf in
                 curated.leaves.items() if len(leaf) > 0]
        if self._workers == 1 or len(items) <= 1:
            # Delegate so the in-parent fallback can never drift from
            # the thread path's contracts (empty-leaf filter, insertion
            # order); the whole build is timed and spread pro rata.
            start = time.perf_counter()
            graphs, cache = fast_construct_leaf_graphs(curated, tokenizer)
            self.record_timing(
                "construction",
                [(leaf_id, sum(map(len, leaf.texts)) + 1)
                 for leaf_id, leaf in items],
                time.perf_counter() - start)
            return graphs, cache

        cache = TokenCache(tokenizer)
        plan = ShardPlan.for_construction(curated, self._workers)
        self.record_plan("construction", plan)
        by_id = dict(items)
        shards = [[by_id[leaf_id] for leaf_id in shard]
                  for shard in plan.shards]
        built: Dict[int, "LeafGraph"] = {}
        staging = Path(tempfile.mkdtemp(prefix="graphex-shard-"))
        try:
            with self._pool(len(shards), _init_construct_worker,
                            (tokenizer,)) as pool:
                futures = [
                    pool.submit(_build_construct_shard, shard,
                                str(staging / f"shard-{index}"))
                    for index, shard in enumerate(shards)]
                for index, future in enumerate(futures):
                    state, timings = _unwrap_shard_future(
                        future, "construction", index,
                        plan.shards[index])
                    cache.absorb_state(state)
                    for leaf_id, seconds in timings:
                        self.record_timing(
                            "construction",
                            [(leaf_id,
                              sum(map(len, by_id[leaf_id].texts)) + 1)],
                            seconds)
                    for graph in load_leaf_graphs(
                            staging / f"shard-{index}", mmap=True):
                        built[graph.leaf_id] = graph
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return {leaf_id: built[leaf_id] for leaf_id, _leaf in items}, cache


class ClusterExecutor(Executor):
    """The multi-machine substrate: shards run on remote hosts.

    Wraps a *started*
    :class:`~repro.cluster.coordinator.ClusterCoordinator` — fleet
    management, per-RPC deadlines, retries, dead-host re-planning and
    exactly-once merging all live there; this class adapts it to the
    synchronous :class:`Executor` interface.

    The sync :meth:`run_inference` / :meth:`run_construction` submit to
    the coordinator's event loop and block the *calling* thread, so
    they must not be called from that loop — code already running on
    it awaits :meth:`run_inference_async` /
    :meth:`run_construction_async` instead.

    Args:
        coordinator: A started coordinator (its loop must be running).
        distribute: Model hand-off for inference jobs — ``"path"``
            (shared filesystem / localhost) or ``"stream"`` (spool the
            artifact over each worker's connection).

    Use :meth:`local` for a self-contained fleet (own loop thread plus
    N in-process workers) when no external cluster is running —
    :meth:`close` tears that fleet down; an adopted coordinator is
    never stopped by this class.
    """

    name = "cluster"

    def __init__(self, coordinator: "ClusterCoordinator", *,
                 distribute: str = "path",
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics=metrics)
        self.coordinator = coordinator
        self._distribute = distribute
        self._owned: Optional[tuple] = None

    @classmethod
    def local(cls, workers: int = 2, *,
              distribute: str = "path",
              metrics: Optional[MetricsRegistry] = None,
              retry=None, rpc_timeout: float = 30.0,
              start_timeout: float = 60.0) -> "ClusterExecutor":
        """Boot a self-contained localhost fleet and wrap it.

        Spins a daemon thread running a private event loop, starts a
        coordinator plus ``workers`` in-process
        :class:`~repro.cluster.worker.ClusterWorker` hosts on it, and
        returns the executor once every host has registered.  The CLI's
        ``--executor cluster`` backend.  :meth:`close` (or the context
        manager) stops the fleet and joins the loop thread.
        """
        from ..cluster.coordinator import ClusterCoordinator
        from ..cluster.worker import ClusterWorker

        workers = max(1, int(workers))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever,
                                  name="graphex-cluster-loop",
                                  daemon=True)
        thread.start()

        async def boot():
            coordinator = ClusterCoordinator(retry=retry,
                                             rpc_timeout=rpc_timeout)
            await coordinator.start()
            tasks = []
            for index in range(workers):
                worker = ClusterWorker(coordinator.host,
                                       coordinator.port,
                                       name=f"local-{index}")
                tasks.append(asyncio.ensure_future(worker.run()))
            await coordinator.wait_for_workers(workers,
                                               timeout=start_timeout)
            return coordinator, tasks

        try:
            coordinator, tasks = asyncio.run_coroutine_threadsafe(
                boot(), loop).result(timeout=start_timeout)
        except BaseException:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            raise
        executor = cls(coordinator, distribute=distribute,
                       metrics=metrics)
        executor._owned = (loop, thread, tasks)
        return executor

    def _submit(self, coro):
        """Run a coordinator coroutine from this (non-loop) thread."""
        loop = self.coordinator.loop
        if loop is None:
            coro.close()
            raise RuntimeError(
                "ClusterExecutor needs a started coordinator (its "
                "event loop is not running)")
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            coro.close()
            raise RuntimeError(
                "ClusterExecutor cannot block the coordinator's own "
                "event loop; await run_inference_async / "
                "run_construction_async instead")
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    async def run_inference_async(
            self, model: "GraphExModel",
            requests: Sequence[InferenceRequest],
            k: int = 10, hard_limit: Optional[int] = None,
            dense_limit: int = DEFAULT_DENSE_LIMIT) -> BatchResult:
        """:meth:`run_inference` for callers on the coordinator loop."""
        return await self.coordinator.run_inference(
            model, list(requests), k=k, hard_limit=hard_limit,
            dense_limit=dense_limit, distribute=self._distribute,
            metrics=self.metrics)

    async def run_construction_async(
            self, curated: "CuratedKeyphrases",
            tokenizer: Tokenizer = DEFAULT_TOKENIZER
            ) -> Tuple[Dict[int, "LeafGraph"], TokenCache]:
        """:meth:`run_construction` for callers on the coordinator loop."""
        return await self.coordinator.run_construction(
            curated, tokenizer, metrics=self.metrics)

    def run_inference(self, model: "GraphExModel",
                      requests: Sequence[InferenceRequest],
                      k: int = 10, hard_limit: Optional[int] = None,
                      dense_limit: int = DEFAULT_DENSE_LIMIT
                      ) -> BatchResult:
        return self._submit(self.run_inference_async(
            model, requests, k=k, hard_limit=hard_limit,
            dense_limit=dense_limit))

    def run_construction(self, curated: "CuratedKeyphrases",
                         tokenizer: Tokenizer = DEFAULT_TOKENIZER
                         ) -> Tuple[Dict[int, "LeafGraph"], TokenCache]:
        return self._submit(self.run_construction_async(curated,
                                                        tokenizer))

    def close(self) -> None:
        """Tear down a :meth:`local` fleet (no-op for adopted ones)."""
        owned, self._owned = self._owned, None
        if owned is None:
            return
        loop, thread, tasks = owned

        async def shutdown():
            await self.coordinator.stop()
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(shutdown(),
                                         loop).result(timeout=30.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


# ---------------------------------------------------------------------------
# The resolver: the only place executor spellings are interpreted.


def resolve_executor(executor: Union[Executor, str, None] = None, *,
                     workers: int = 1,
                     metrics: Optional[MetricsRegistry] = None,
                     engine: Optional[str] = None) -> Executor:
    """Resolve an ``executor=`` value to an :class:`Executor` instance.

    The single entry point behind every ``executor=`` keyword:

    * an :class:`Executor` instance passes through unchanged (it keeps
      its own workers and metrics registry);
    * ``"serial"`` / ``"thread"`` / ``"process"`` build the matching
      class with ``workers`` and ``metrics``;
    * ``None`` means ``"thread"``.

    ``"cluster"`` is rejected: a fleet cannot be conjured from a
    string, so pass an existing :class:`ClusterExecutor` (or build one
    with :meth:`ClusterExecutor.local`).

    ``engine`` (an engine *or* builder name) enforces the oracle
    pairing rule: the scalar ``reference`` paths stay single-process,
    so only executors with :attr:`Executor.supports_reference` may
    serve them.

    Raises:
        ValueError: On an unknown spelling, a bare ``"cluster"``, or a
            reference engine/builder paired with an out-of-process
            executor.
    """
    if executor is None:
        executor = "thread"
    if isinstance(executor, Executor):
        resolved = executor
    elif executor == "serial":
        resolved = SerialExecutor(metrics=metrics)
    elif executor == "thread":
        resolved = ThreadShardExecutor(workers, metrics=metrics)
    elif executor == "process":
        resolved = ProcessShardExecutor(workers, metrics=metrics)
    elif executor == "cluster":
        raise ValueError(
            "executor='cluster' needs a running fleet: pass an existing "
            "ClusterExecutor instance, or boot a localhost one with "
            "ClusterExecutor.local()")
    else:
        raise ValueError(
            f"unknown executor={executor!r}; expected an Executor "
            f"instance or one of {EXECUTOR_NAMES}")

    if engine is not None and engine != "fast" \
            and not resolved.supports_reference:
        raise ValueError(
            f"executor {resolved.name!r} requires the fast "
            f"engine/builder; the {engine!r} path stays single-process "
            f"as the semantics reference")
    return resolved
