"""Per-layer tracing from outside the program.

For the traced run, :class:`LayerTracer` replaces the public entry points
of each serving-path module with wrappers that record a
:class:`repro.obs.Tracer` span around the original call, and puts the
originals back afterwards.  Nothing inside ``src/`` changes.

A span's parent is the innermost wrapped call open on the same thread.
Work that a call fans out to other threads (an executor's shard pool,
the cluster fleet, the refresh orchestrator's executor steps) starts on
a thread with no open span; such a span is *adopted* by the most recent
open call that declared it fans out to that layer, so the fanned-out
work counts as the caller's child, not as its self time.  Spans of one
top-level call share ``meta["root"]``, and spans under an NRT window
flush carry its ``meta["window"]``.

Self time is a span's duration minus the union of its children's
intervals; where spans on several threads were busy at once, each gets
an equal share of that wall time (:func:`benchmath.wall_shares`).  The
layer self times therefore sum to the wall time some span covered, and
``unexplained_s`` — what no span covers: the event loop, lock waits,
idle gaps of the open-loop schedule, the benchmark's own bookkeeping —
closes the sum to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List,
                    Optional, Tuple)

from repro.obs import Span, Tracer

from benchmath import wall_shares

#: Every layer that gets a ``<layer>.self_s`` metric, in report order.
LAYERS = ("tokenize", "fast_inference", "execution", "kvstore", "nrt",
          "async_front", "batch_pipeline", "curation", "construct",
          "serialization", "refresh", "protocol", "coordinator")

MetaFn = Callable[..., Dict[str, Any]]


class LayerTracer:
    """Installs and removes the span wrappers; see the module docstring."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._local = threading.local()
        self._adopters: List[Tuple[Span, FrozenSet[str]]] = []
        self._adopters_lock = threading.Lock()
        self._windows = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- installing -------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, *,
              is_async: bool = False, before: Optional[MetaFn] = None,
              after: Optional[Callable[[Any, tuple], Dict[str, Any]]] = None,
              adopts: Iterable[str] = (),
              fans_out: Callable[[tuple], bool] = lambda args: True
              ) -> None:
        """Wrap ``owner.attr`` (a class or a module) in span ``name``.

        ``before(*args, **kwargs)`` and ``after(result, args)`` return
        extra span meta; they run outside the timed interval.
        ``adopts`` names the layers whose orphan spans this call fans
        out to, when ``fans_out(args)`` holds for the call.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        adopts = frozenset(adopts)
        wrap = self._async_wrapper if is_async else self._sync_wrapper
        setattr(owner, attr, wrap(original, name, before, after, adopts,
                                  fans_out))
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- span plumbing ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopter(self, layer: str) -> Optional[Span]:
        with self._adopters_lock:
            for span, layers in reversed(self._adopters):
                if layer in layers:
                    return span
        return None

    def _open(self, name: str, parent: Optional[Span], meta: Dict):
        context = self.tracer.span(name, **meta)
        span = context.span
        span.parent_id = parent.span_id if parent is not None else None
        if parent is not None:
            span.meta["root"] = parent.meta["root"]
            if "window" in parent.meta:
                span.meta.setdefault("window", parent.meta["window"])
        else:
            span.meta["root"] = span.span_id
        return context, span

    def _register(self, span: Span, adopts: FrozenSet[str]) -> None:
        with self._adopters_lock:
            self._adopters.append((span, adopts))

    def _unregister(self, span: Span) -> None:
        with self._adopters_lock:
            self._adopters = [(s, l) for s, l in self._adopters
                              if s is not span]

    def _sync_wrapper(self, fn, name, before, after, adopts, fans_out):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._adopter(layer)
            meta = before(*args, **kwargs) if before else {}
            context, span = self._open(name, parent, meta)
            adopting = bool(adopts) and fans_out(args)
            if adopting:
                self._register(span, adopts)
            stack.append(span)
            try:
                with context:
                    result = fn(*args, **kwargs)
            finally:
                stack.pop()
                if adopting:
                    self._unregister(span)
            if after:
                span.meta.update(after(result, args))
            return result

        return wrapper

    def _async_wrapper(self, fn, name, before, after, adopts, fans_out):
        # Coroutines interleave on one thread, so an async span is never
        # the thread-local parent of anything; it is a root that may
        # adopt the orphan spans of the work it hands to executors.
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            meta = before(*args, **kwargs) if before else {}
            context, span = self._open(name, None, meta)
            adopting = bool(adopts) and fans_out(args)
            if adopting:
                self._register(span, adopts)
            try:
                with context:
                    result = await fn(*args, **kwargs)
            finally:
                if adopting:
                    self._unregister(span)
            if after:
                span.meta.update(after(result, args))
            return result

        return wrapper

    def next_window(self) -> Dict[str, Any]:
        return {"window": next(self._windows)}


def install_program_wrappers(lt: LayerTracer) -> None:
    """Wrap the public entry points of every serving-path module.

    The store's public methods are wrapped on the benchmark's
    :class:`~stores.StampedStore`; ``KeyValueStore`` itself stays
    untouched.
    """
    from repro.cluster import protocol
    from repro.core import curation
    from repro.core.execution import ClusterExecutor, ThreadShardExecutor
    from repro.core.fast_inference import LeafBatchRunner
    from repro.core.tokenize import SpaceTokenizer
    from repro.serving import (AsyncNRTFront, BatchPipeline,
                               DailyRefreshOrchestrator, NRTService)
    from repro.serving import refresh as refresh_module
    from stores import StampedStore as store_cls

    def workers_above_one(args) -> bool:
        return getattr(args[0], "workers", 1) > 1

    lt.patch(SpaceTokenizer, "__call__", "tokenize.call")
    lt.patch(LeafBatchRunner, "run_indexed", "fast_inference.run_indexed",
             before=lambda self, requests, *a, **k:
             {"requests": len(requests)})
    lt.patch(ThreadShardExecutor, "run_inference",
             "execution.run_inference",
             adopts=("fast_inference", "tokenize"),
             fans_out=workers_above_one)
    lt.patch(ThreadShardExecutor, "run_construction",
             "construct.run_construction", adopts=("tokenize",),
             fans_out=workers_above_one,
             after=lambda result, args: {"keyphrases": sum(
                 graph.n_labels for graph in result[0].values())})
    lt.patch(curation, "fast_curate", "curation.fast_curate")

    def rows_copied(self, version):
        return {"rows": self.size()}

    lt.patch(store_cls, "create_version", "kvstore.create_version")
    lt.patch(store_cls, "copy_from_serving", "kvstore.copy",
             before=rows_copied)
    lt.patch(store_cls, "put", "kvstore.put",
             before=lambda *a, **k: {"rows": 1})
    lt.patch(store_cls, "delete", "kvstore.delete",
             before=lambda *a, **k: {"rows": 1})
    lt.patch(store_cls, "bulk_load", "kvstore.bulk_load",
             before=lambda self, version, records: {"rows": len(records)})
    lt.patch(store_cls, "promote", "kvstore.promote")
    lt.patch(store_cls, "prune", "kvstore.prune")
    lt.patch(store_cls, "abandon", "kvstore.abandon")

    lt.patch(NRTService, "submit", "nrt.submit")
    lt.patch(NRTService, "flush", "nrt.flush",
             before=lambda *a, **k: lt.next_window())
    lt.patch(AsyncNRTFront, "submit", "async_front.submit", is_async=True)
    lt.patch(BatchPipeline, "full_load", "batch_pipeline.full_load")

    from repro.core.serialization import model_size_bytes
    lt.patch(refresh_module, "save_model", "serialization.save",
             after=lambda result, args: {
                 "bytes": model_size_bytes(args[1])})
    lt.patch(refresh_module, "load_model", "serialization.open")
    lt.patch(DailyRefreshOrchestrator, "refresh", "refresh.refresh",
             is_async=True,
             adopts=("construct", "serialization", "batch_pipeline"))

    lt.patch(protocol, "encode_frame", "protocol.encode",
             after=lambda result, args: {"bytes": len(result)})
    lt.patch(protocol, "decode_frame", "protocol.decode",
             before=lambda payload: {"bytes": len(payload)})
    lt.patch(ClusterExecutor, "run_inference", "coordinator.run_inference",
             adopts=("protocol", "fast_inference", "tokenize"))


def layer_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-layer self times (wall shares), counts and ratios from one
    traced phase.

    Every span-derived metric is present (zero when the workload
    bypasses the layer), plus ``unexplained_s`` so that the ``*.self_s``
    of :data:`LAYERS` and it sum to ``wall_s``.
    """
    rows = [(s.span_id, s.parent_id, s.start_s, s.start_s + s.duration_s)
            for s in spans]
    own = wall_shares(rows)
    by_id = {s.span_id: s for s in spans}

    def spans_named(*names: str) -> List[Span]:
        return [s for s in spans if s.name in names]

    def self_of(selected: Iterable[Span]) -> float:
        return sum(own[s.span_id] for s in selected)

    def meta_sum(selected: Iterable[Span], key: str) -> float:
        return float(sum(s.meta.get(key, 0) for s in selected))

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(
            s for s in spans if s.name.split(".", 1)[0] == layer)
    out["unexplained_s"] = wall_s - sum(out[f"{layer}.self_s"]
                                        for layer in LAYERS)
    out["trace.wall_s"] = wall_s

    out["tokenize.calls"] = float(len(spans_named("tokenize.call")))
    runs = spans_named("fast_inference.run_indexed")
    out["fast_inference.calls"] = float(len(runs))
    out["fast_inference.requests"] = meta_sum(runs, "requests")
    out["fast_inference.requests_per_call"] = (
        out["fast_inference.requests"] / len(runs) if runs else 0.0)
    out["execution.calls"] = float(len(spans_named(
        "execution.run_inference")))

    copies = spans_named("kvstore.copy")
    writes = spans_named("kvstore.put", "kvstore.delete",
                         "kvstore.bulk_load")
    out["kvstore.copy.self_s"] = self_of(copies)
    out["kvstore.rows_copied"] = meta_sum(copies, "rows")
    out["kvstore.rows_written"] = meta_sum(writes, "rows")
    touched = out["kvstore.rows_copied"] + out["kvstore.rows_written"]
    out["kvstore.useful_ratio"] = (out["kvstore.rows_written"] / touched
                                   if touched else 0.0)
    out["kvstore.promote_prune.self_s"] = self_of(spans_named(
        "kvstore.promote", "kvstore.prune"))

    out["nrt.flush.self_s"] = self_of(spans_named("nrt.flush"))
    out["batch_pipeline.full_load.self_s"] = self_of(spans_named(
        "batch_pipeline.full_load"))

    builds = spans_named("construct.run_construction")
    out["construct.keyphrases"] = (float(builds[-1].meta["keyphrases"])
                                   if builds else 0.0)
    saves = spans_named("serialization.save")
    out["serialization.save_s"] = self_of(saves)
    out["serialization.open_s"] = self_of(spans_named("serialization.open"))
    out["serialization.bytes"] = (float(saves[-1].meta["bytes"])
                                  if saves else 0.0)

    encodes = spans_named("protocol.encode")
    decodes = spans_named("protocol.decode")
    out["protocol.frames"] = float(len(encodes))
    out["protocol.bytes"] = meta_sum(encodes, "bytes")
    out["protocol.encode_s"] = self_of(encodes)
    out["protocol.decode_s"] = self_of(decodes)

    def under_coordinator(span: Span) -> bool:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == "coordinator.run_inference":
                return True
            parent = by_id.get(parent.parent_id)
        return False

    out["coordinator.worker_compute_s"] = self_of(
        s for s in spans_named("fast_inference.run_indexed", "tokenize.call")
        if under_coordinator(s))
    return out
