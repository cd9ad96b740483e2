"""The three workloads: set-up, timed phase and correctness check.

Each workload class has the same shape:

* ``inputs(seed, seconds)`` draws the seeded inputs the program is
  given (search statistics, titles, the event schedule), once and
  untimed: they are the benchmark's, not the program's, work.
* ``setup(inputs, traced)`` builds the program's side of the timed
  phase (model, pipeline, store, fleet) from them and returns it with
  the inputs; the benchmark runs it ``SETUP_REPEATS`` times and reports
  the median as ``setup_s``.
* ``prepare(env)`` computes, untimed, what the checks compare against.
* ``run(env, seconds)`` is the timed phase.  It returns the raw
  measurements; the batch workloads also compare each batch's output
  between batches, outside the timed intervals.
* ``check(env, phase)`` compares every output of the phase with an
  independent computation and returns ``(attempted, failed)``.
* ``end_to_end(env, phase)`` and ``layer_counts(env, phase)`` turn the
  measurements into the reported metrics.
* ``close(env)`` stops every pool, fleet and loop the set-up started.

All requests use ``k=20`` and ``hard_limit=40``, the serving defaults.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import curation
from repro.core.batch import batch_recommend
from repro.core.model import GraphExModel
from repro.core.serialization import load_model, model_size_bytes
from repro.serving import (AsyncNRTFront, BatchPipeline,
                           DailyRefreshOrchestrator, ItemEventKind)

import benchmath
from loadgen import EventMix, Schedule, poisson_due, produce
from stores import StampedStore, replay
from world import CURATION, make_world, requests_from, rng_for

K, HARD_LIMIT = 20, 40
N_LEAVES = 12
PHRASES_PER_LEAF = 400


def nproc() -> int:
    """CPUs this process may run on; the program's pools are sized to it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def serial_texts(model, requests) -> Dict[int, List[str]]:
    """What the serving path must store per item (the ranked phrase
    texts), computed on the serial in-process path."""
    results = batch_recommend(model, requests, k=K, hard_limit=HARD_LIMIT,
                              executor="serial")
    return {item_id: [r.text for r in recs]
            for item_id, recs in results.items()}


def build_model(stats) -> GraphExModel:
    """Curate one day's search statistics and construct the model."""
    return GraphExModel.construct(curation.fast_curate(stats, CURATION))


def latency_metrics(latencies: Sequence[float],
                    rate: float) -> Dict[str, float]:
    """The end-to-end metrics shared by every workload, from per-item
    latencies in seconds and the workload's throughput."""
    return {"items_per_s": rate,
            "fresh_p50_ms": 1e3 * benchmath.percentile(latencies, 50),
            "fresh_p90_ms": 1e3 * benchmath.percentile(latencies, 90)}


# ---------------------------------------------------------------------------
# Closed batches: batch_daily and cluster_batch


class _RepeatedBatch:
    """Shared timed phase of the two batch workloads: run the whole
    request set again and again until the batches have taken
    ``seconds`` (at least :attr:`MIN_BATCHES` times).  Every item of a
    batch is served when the batch returns, so an item's latency is its
    batch's wall time.

    Each batch's output is compared with the oracle between batches,
    outside the timed intervals, and then dropped, so memory does not
    grow with the number of batches a run fits in.
    """

    MIN_BATCHES = 3
    n_requests: int

    def one_batch(self, env) -> Any:
        raise NotImplementedError

    def output(self, env, result) -> Dict[int, Any]:
        """Item -> what the batch served, as the oracle states it."""
        raise NotImplementedError

    def run(self, env, seconds: float) -> Dict[str, Any]:
        walls: List[float] = []
        failed = 0
        expected = env["expected"]
        while len(walls) < self.MIN_BATCHES or sum(walls) < seconds:
            started = time.perf_counter()
            result = self.one_batch(env)
            walls.append(time.perf_counter() - started)
            served = self.output(env, result)
            failed += sum(1 for item_id, want in expected.items()
                          if served.get(item_id) != want)
        return {"walls": walls, "attempted": len(walls) * len(expected),
                "failed": failed}

    def end_to_end(self, env, phase
                   ) -> Tuple[Dict[str, float], Dict[str, Any]]:
        walls = phase["walls"]
        n = self.n_requests
        rate = statistics.median(n / wall for wall in walls)
        # Each batch contributes n equal samples; the nearest-rank
        # percentile over them is the same rank taken over the walls.
        notes = {"batches": len(walls), "samples": n * len(walls),
                 "tail_q": benchmath.tail_percentile(n * len(walls))}
        return latency_metrics(walls, rate), notes

    def primary_wall(self, env, phase) -> float:
        return statistics.median(phase["walls"])


class BatchDaily(_RepeatedBatch):
    """``BatchPipeline.full_load`` of the day's catalog, thread executor
    with ``workers = nproc``."""

    name = "batch_daily"
    SETUP_REPEATS = 9
    n_requests = 40_000
    REFERENCE_SAMPLE = 400

    def inputs(self, seed: int, seconds: float):
        world = make_world(seed, N_LEAVES, PHRASES_PER_LEAF)
        return {"seed": seed, "stats": world.stats(0),
                "requests": requests_from(world.titles(10, self.n_requests))}

    def setup(self, inputs, traced: bool):
        model = build_model(inputs["stats"])
        store = StampedStore(timing_lock=traced)
        pipeline = BatchPipeline(model, store=store, k=K,
                                 hard_limit=HARD_LIMIT, workers=nproc(),
                                 executor="thread")
        return {**inputs, "model": model, "store": store,
                "pipeline": pipeline}

    def prepare(self, env) -> None:
        """The oracle: the serial fast path over the whole catalog."""
        env["expected"] = serial_texts(env["model"], env["requests"])

    def one_batch(self, env):
        return env["pipeline"].full_load(env["requests"])

    def output(self, env, result) -> Dict[int, Any]:
        promotions = env["store"].promotions
        table = promotions[-1].bulk if promotions else None
        promotions.clear()
        return table or {}

    def check(self, env, phase) -> Tuple[int, int]:
        # The scalar engine is the semantics oracle of the fast path: a
        # seeded sample must match it element-wise, scores included.
        model, requests = env["model"], env["requests"]
        rng = rng_for(env["seed"], 11)
        picks = rng.choice(len(requests), size=self.REFERENCE_SAMPLE,
                           replace=False)
        sample = [requests[i] for i in sorted(picks.tolist())]
        ref = batch_recommend(model, sample, k=K, hard_limit=HARD_LIMIT,
                              engine="reference")
        fast = batch_recommend(model, sample, k=K, hard_limit=HARD_LIMIT,
                               executor="serial")
        failed = sum(1 for item_id in ref if ref[item_id] != fast[item_id])
        return (phase["attempted"] + len(sample),
                phase["failed"] + failed)

    def layer_counts(self, env, phase) -> Dict[str, float]:
        return {"kvstore.lock_wait_s": env["store"].lock.wait_s}

    def close(self, env) -> None:
        pass


class ClusterBatch(_RepeatedBatch):
    """``batch_recommend`` through ``ClusterExecutor.local(workers =
    nproc)``: a coordinator and in-process workers over localhost TCP."""

    name = "cluster_batch"
    SETUP_REPEATS = 9
    n_requests = 4_000

    def inputs(self, seed: int, seconds: float):
        world = make_world(seed, N_LEAVES, PHRASES_PER_LEAF)
        return {"stats": world.stats(0),
                "requests": requests_from(world.titles(40, self.n_requests))}

    def setup(self, inputs, traced: bool):
        from repro.core.execution import ClusterExecutor

        model = build_model(inputs["stats"])
        executor = ClusterExecutor.local(workers=nproc())
        return {**inputs, "model": model, "executor": executor,
                "reports": []}

    def prepare(self, env) -> None:
        """The oracle: the local serial path, scores included."""
        env["expected"] = batch_recommend(
            env["model"], env["requests"], k=K, hard_limit=HARD_LIMIT,
            executor="serial")

    def one_batch(self, env):
        result = batch_recommend(env["model"], env["requests"], k=K,
                                 hard_limit=HARD_LIMIT,
                                 executor=env["executor"])
        env["reports"].append(env["executor"].coordinator.last_report)
        return result

    def output(self, env, result) -> Dict[int, Any]:
        return result

    def check(self, env, phase) -> Tuple[int, int]:
        return phase["attempted"], phase["failed"]

    def layer_counts(self, env, phase) -> Dict[str, float]:
        return {"coordinator.reassigned": float(sum(
            report.n_retries + report.n_replans
            for report in env["reports"]))}

    def close(self, env) -> None:
        env["executor"].close()


# ---------------------------------------------------------------------------
# Open-loop NRT under refresh: refresh_under_load

#: Window bounds of every NRT stream: 32 events or 50 ms, whichever
#: comes first (event time and the front's wall-clock timer alike).
WINDOW_SIZE, WINDOW_S = 32, 0.05
#: Longest wait for the stream's events to be served after it ends.
DRAIN_TIMEOUT_S = 20.0


@dataclass
class Step:
    """One open-loop step as sent and served."""

    schedule: Schedule
    t0: float
    sent: List[float] = field(default_factory=list)

    def due_abs(self) -> List[float]:
        return [self.t0 + due for due in self.schedule.due]


def make_front(model, flush_pool) -> AsyncNRTFront:
    return AsyncNRTFront(model, window_size=WINDOW_SIZE,
                         window_seconds=WINDOW_S,
                         wall_clock_seconds=WINDOW_S, k=K,
                         hard_limit=HARD_LIMIT, flush_executor=flush_pool)


async def drain(store: StampedStore, events, timeout: float) -> None:
    """Wait until every event's item has been promoted (or time out;
    the check then counts the stragglers as never served)."""
    pending = {event.item_id for event in events}
    deadline = time.perf_counter() + timeout
    while pending and time.perf_counter() < deadline:
        await asyncio.sleep(0.005)
        pending = {i for i in pending if i not in store.served_at}


def freshness(store: StampedStore, step: Step) -> Tuple[List[float],
                                                        List[float]]:
    """Per event: (seconds from due to served, seconds the producer sent
    late).  Events never served are left out (the check fails them)."""
    fresh, lag = [], []
    for due, sent, event in zip(step.due_abs(), step.sent,
                                step.schedule.events):
        served = store.served_at.get(event.item_id)
        if served is not None:
            fresh.append(served - due)
        lag.append(sent - due)
    return fresh, lag


def expected_writes(model_of: Callable[[int], GraphExModel], events_by_gen
                    ) -> Dict[Tuple[int, int], Optional[List[str]]]:
    """(generation, item) -> the value an NRT window under that
    generation must write for the item's event (``None``: deleted)."""
    out: Dict[Tuple[int, int], Optional[List[str]]] = {}
    for gen, events in events_by_gen.items():
        requests = [(e.item_id, e.title, e.leaf_id) for e in events
                    if e.kind is not ItemEventKind.DELETED]
        for item_id, value in serial_texts(model_of(gen),
                                           requests).items():
            out[(gen, item_id)] = value
        for e in events:
            if e.kind is ItemEventKind.DELETED:
                out[(gen, e.item_id)] = None
    return out


def check_nrt_writes(store: StampedStore, events, gen_of_item,
                     model_of: Callable[[int], GraphExModel]) -> int:
    """Failures among the NRT events: an event whose item no window
    wrote, or whose written value differs from the model that served
    the window."""
    written: Dict[int, Optional[List[str]]] = {}
    for promotion in store.promotions:
        if promotion.bulk is None:
            written.update(promotion.writes)
    by_gen: Dict[int, list] = {}
    for event in events:
        if event.item_id in written:
            by_gen.setdefault(gen_of_item[event.item_id], []).append(event)
    expected = expected_writes(model_of, by_gen)
    failed = 0
    for event in events:
        if event.item_id not in written:
            failed += 1
        elif written[event.item_id] != expected[
                (gen_of_item[event.item_id], event.item_id)]:
            failed += 1
    return failed


def window_generations(store: StampedStore, front, stream: str
                       ) -> Optional[Dict[int, int]]:
    """Item -> generation of the window that wrote it, pairing the
    stream's processed windows with its point-write promotions in order
    (``None`` when the counts disagree)."""
    windows = front.processed_windows(stream)
    promotions = [p for p in store.promotions if p.bulk is None]
    if len(windows) != len(promotions):
        return None
    return {key: window.model_generation
            for window, promotion in zip(windows, promotions)
            for key in promotion.writes}


def nrt_counts(front, store, steps: Sequence[Step]) -> Dict[str, float]:
    stats = front.all_stats()
    windows = sum(s.n_windows for s in stats)
    events = sum(s.n_submitted for s in stats)
    lag = [l for step in steps for l in freshness(store, step)[1]]
    return {"nrt.windows": float(windows),
            "nrt.events_per_window": events / windows if windows else 0.0,
            "async_front.queue_hwm": float(max(s.n_queue_hwm
                                               for s in stats)),
            "async_front.flush_failures": float(sum(
                s.n_flush_failures for s in stats)),
            "async_front.dropped": float(sum(s.n_dropped for s in stats)),
            "kvstore.lock_wait_s": store.lock.wait_s,
            "loadgen.sent": float(len(lag)),
            "loadgen.lag_p99_ms": 1e3 * benchmath.percentile(lag, 99)}


class RefreshUnderLoad:
    """Daily refreshes (``fast_curate`` then
    ``DailyRefreshOrchestrator.refresh`` with an artifact directory) on
    a fixed schedule while one ``AsyncNRTFront`` stream sharing the
    pipeline's store serves a low open-loop rate.  Throughput is the
    catalog size over the median refresh time."""

    name = "refresh_under_load"
    SETUP_REPEATS = 5
    # Many mid-sized leaves: construction cost grows with the keyphrase
    # count while a request's inference cost grows with its leaf's, so
    # construct, persist and open outweigh the catalog load.
    N_LEAVES, PHRASES_PER_LEAF = 96, 2_000
    N_CATALOG = 800
    RATE = 150.0
    #: Mostly new listings: every event needs an item of its own, and
    #: the catalog is small.
    REVISED, CREATED = 0.30, 0.67
    #: Distinct days of search statistics, cycled through.
    DAYS = 2
    #: A refresh starts every this many seconds (or when the previous
    #: one ends, if later), so a run holds a fixed number of refreshes
    #: however fast they are.
    REFRESH_EVERY_S = 1.5
    #: Size of every pool the workload gives the program.  Construction
    #: and the catalog load are bound by the interpreter lock here, so a
    #: second thread only contends for it: on 2 vCPUs a refresh ran
    #: faster with one worker than with two and swung less between runs.
    WORKERS = 1

    def inputs(self, seed: int, seconds: float):
        world = make_world(seed, self.N_LEAVES, self.PHRASES_PER_LEAF)
        rng = rng_for(seed, 4)
        due = poisson_due(rng, self.RATE, seconds)
        mix = EventMix(rng, range(self.N_CATALOG), self.N_CATALOG,
                       world.titles(31, len(due)), revised=self.REVISED,
                       created=self.CREATED)
        return {"first_stats": world.stats(0),
                "stats": [world.stats(day)
                          for day in range(1, self.DAYS + 1)],
                "catalog": requests_from(world.titles(30, self.N_CATALOG)),
                "schedule": Schedule(self.RATE, seconds, due,
                                     mix.draw(due))}

    def setup(self, inputs, traced: bool):
        model = build_model(inputs["first_stats"])
        catalog = inputs["catalog"]
        store = StampedStore(timing_lock=traced)
        pipeline = BatchPipeline(model, store=store, k=K,
                                 hard_limit=HARD_LIMIT, workers=self.WORKERS,
                                 executor="thread")
        pipeline.full_load(catalog)
        artifacts = Path(tempfile.mkdtemp(prefix="refresh-"))
        orchestrator = DailyRefreshOrchestrator(
            pipeline, workers=self.WORKERS, artifact_dir=artifacts)
        pool = ThreadPoolExecutor(max_workers=self.WORKERS,
                                  thread_name_prefix="bench-flush")
        front = make_front(model, pool)
        front.add_stream("s0", store=store)
        orchestrator.register(front)
        return {**inputs, "model": model, "store": store,
                "orchestrator": orchestrator, "front": front, "pool": pool,
                "artifacts": artifacts}

    def prepare(self, env) -> None:
        """Nothing: the refresh checks run after the phase."""

    def run(self, env, seconds: float) -> Dict[str, Any]:
        front, store = env["front"], env["store"]
        orchestrator = env["orchestrator"]

        async def submit(event):
            await front.submit("s0", event)

        async def drive():
            loop = asyncio.get_running_loop()
            executor = ThreadPoolExecutor(max_workers=self.WORKERS,
                                          thread_name_prefix="bench-loop")
            loop.set_default_executor(executor)
            refreshes = []
            await front.start()
            try:
                step = Step(env["schedule"], time.perf_counter())
                producer = loop.create_task(produce(
                    env["schedule"], submit, step.t0, step.sent))
                n_refreshes = max(2, int(seconds / self.REFRESH_EVERY_S))
                for day in range(n_refreshes):
                    stats = env["stats"][day % self.DAYS]
                    await asyncio.sleep(step.t0 + day * self.REFRESH_EVERY_S
                                        - time.perf_counter())
                    started = time.perf_counter()
                    curated = await loop.run_in_executor(
                        None, curation.fast_curate, stats, CURATION)
                    report = await orchestrator.refresh(
                        curated, env["catalog"])
                    refreshes.append((time.perf_counter() - started,
                                      report))
                await producer
                await drain(store, env["schedule"].events, DRAIN_TIMEOUT_S)
            finally:
                await front.stop()
            return {"step": step, "refreshes": refreshes}

        return asyncio.run(drive())

    def end_to_end(self, env, phase):
        store = env["store"]
        fresh, _lag = freshness(store, phase["step"])
        refresh_s = statistics.median(s for s, _r in phase["refreshes"])
        metrics = latency_metrics(fresh, self.N_CATALOG / refresh_s)
        last = phase["refreshes"][-1][1]
        step = phase["step"]
        growing = benchmath.backlog_growing(
            step.due_abs(), [store.served_at.get(e.item_id, float("inf"))
                             for e in step.schedule.events],
            step.t0, step.t0 + step.schedule.duration,
            tolerance=WINDOW_SIZE)
        notes = {"samples": len(fresh),
                 "tail_q": benchmath.tail_percentile(len(fresh)),
                 "backlog_growing": growing,
                 "refreshes": len(phase["refreshes"]),
                 "refresh_s": refresh_s,
                 "refresh_runs_s": [round(s, 4)
                                    for s, _r in phase["refreshes"]],
                 "model_bytes": model_size_bytes(last.artifact_path)}
        return metrics, notes

    def primary_wall(self, env, phase) -> float:
        return statistics.median(s for s, _r in phase["refreshes"])

    def check(self, env, phase) -> Tuple[int, int]:
        store, front = env["store"], env["front"]
        refreshes = [report for _s, report in phase["refreshes"]]
        catalog = env["catalog"]
        # Each generation's model, reopened from the artifact its
        # refresh deployed whenever a check needs it, so the checks map
        # one model at a time.
        artifacts = {report.generation: report.artifact_path
                     for report in refreshes if report.artifact_path}

        def model_of(gen: int) -> GraphExModel:
            if gen == 0:
                return env["model"]
            return load_model(artifacts[gen], mmap=True)
        events = env["schedule"].events
        attempted = len(events) + len(refreshes)
        failed = sum(1 for report in refreshes if report.failure)

        gens = window_generations(store, front, "s0")
        if gens is None:
            return attempted, attempted
        windows = [w.model_generation for w in front.processed_windows("s0")]
        failed += sum(1 for a, b in zip(windows, windows[1:]) if b < a)
        failed += check_nrt_writes(store, events, gens, model_of)
        failed += sum(s.n_dropped for s in front.all_stats())

        # Bulk loads: the set-up's, then one per refresh, each the
        # catalog inferred under that generation's model.
        loads = [p.bulk for p in store.promotions if p.bulk is not None]
        if len(loads) != 1 + len(refreshes):
            failed += 1
        for gen, table in enumerate(loads):
            if gen != 0 and gen not in artifacts or table != serial_texts(
                    model_of(gen), catalog):
                failed += 1
        if replay(store.promotions) != store.table():
            failed += 1
        return attempted, failed

    def layer_counts(self, env, phase) -> Dict[str, float]:
        counts = nrt_counts(env["front"], env["store"], [phase["step"]])
        reports = [report for _s, report in phase["refreshes"]]
        counts.update({
            "refresh.construct_s": sum(r.construct_seconds for r in reports),
            "refresh.load_s": sum(r.load_seconds for r in reports),
            "refresh.swap_s": sum(r.swap_seconds for r in reports)})
        return counts

    def close(self, env) -> None:
        import shutil

        env["pool"].shutdown(wait=True)
        shutil.rmtree(env["artifacts"], ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (BatchDaily, RefreshUnderLoad, ClusterBatch)}
