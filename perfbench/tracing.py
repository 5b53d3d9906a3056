"""In-memory spans around the public entry points of every layer.

Installed only for the traced run.  Each wrapped call records a span
``(id, name, layer, start, end, parent, thread)``; the parent is the
innermost open span of the same thread, so the backend's work on the
coordinator's worker thread and the feed's writes on the event-loop
thread form separate trees.  A layer's self time is the duration of
its spans minus the part their child spans cover.

Requests are tied to the backend call that answered them without
touching the program: the coordinator looks every request of a flushed
batch up in its result cache, in queue order, and hands batches with a
miss to its single worker thread in flush order.  So the n-th cache
lookup is the n-th request sent, and the n-th batch with a miss is the
n-th ``serve_many`` call.  The summary checks both facts and reports
how much of each request's traced latency the measured parts leave
unattributed: the client's wake-up after the coordinator resolved its
future, which is measured, so the reconciliation can fail.

Layers are the program's modules: ``serving`` (coordinator, result
cache), ``engine`` (``engine.py``, ``serving/backends.py``), ``exact``,
``approximate``, ``core`` (``plfstore`` kernels, ``database``),
``storage`` (snapshots) and ``distributed``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from loadgen import clock

#: Largest share of a request's traced latency that its measured parts
#: may leave unattributed for the request to count as reconciled.
REQUEST_TOLERANCE = 0.05
#: Largest share of the summed traced latency of a run that the parts
#: may leave unattributed for the run to count as reconciled.
RUN_TOLERANCE = 0.10

LAYERS = ("serving", "engine", "exact", "approximate", "core", "storage", "distributed")


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.batches = []  # (flush time, batch size), flush order
        self.resolved = []  # per batch: when its last future was resolved
        self.lookups = []  # (time, key, hit), lookup order
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._comm0 = None
        self._cluster = None
        #: Root ``serve_many`` span id -> ids of the requests it answered.
        self.request_ids = {}

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, layer, start, end, parent, threading.get_ident())
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, layer, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, layer, after))

    # -- installation -----------------------------------------------------
    @contextmanager
    def installed(self):
        from repro.approximate.dyadic import DyadicIndex
        from repro.core.database import TemporalDatabase
        from repro.core.plfstore import CSRView, PLFStore
        from repro.distributed.nodes import StorageNode
        from repro.distributed.time_partition import TimePartitionedCluster
        from repro.engine import TemporalRankingEngine
        from repro.exact import exact3
        from repro.exact.base import RankingMethod
        from repro.exact.exact2 import Exact2
        from repro.serving.backends import ClusterBackend, EngineBackend

        counters = self.counters
        for backend in (EngineBackend, ClusterBackend):
            self.patch(backend, "serve_many", "backend.serve_many", "engine")
        self.patch(TemporalRankingEngine, "top_k_many", "engine.top_k_many", "engine")
        self.patch(TemporalRankingEngine, "append", "engine.append", "engine")
        self.patch(TemporalRankingEngine, "snapshot", "storage.snapshot", "storage")

        def count_candidates(args, pools):
            counters["candidates"] += sum(len(ids) for ids, _ in pools)

        def count_answers(args, results):
            counters["approximate.answers"] += sum(len(r) for r in results)

        self._after_approx = count_answers
        self._patch_method(RankingMethod, "query_many")
        self._patch_method(RankingMethod, "append")
        self.patch(DyadicIndex, "candidates_many", "approximate.candidates_many", "approximate", count_candidates)
        self.patch(Exact2, "score_triples", "exact.score_triples", "exact")
        self.patch(exact3, "stab_cumulatives_many", "core.stab_cumulatives_many", "core")
        self.patch(CSRView, "locate_grid", "core.locate_grid", "core")
        for kernel in ("integrals", "integrals_many", "cumulative_at", "cumulative_at_many", "cumulative_at_grid", "values_at_many"):
            self.patch(PLFStore, kernel, f"core.{kernel}", "core")
        self._patch_store(TemporalDatabase)

        def count_fallback(args, result):
            counters["scalar_fallbacks"] += 1

        self.patch(TemporalDatabase, "note_scalar_fallback", "core.note_scalar_fallback", "core", count_fallback)
        self.patch(TimePartitionedCluster, "query_many", "distributed.query_many", "distributed")
        for handler in ("ta_streams", "sorted_access_many", "probe_partials_many"):
            self.patch(StorageNode, handler, f"distributed.{handler}", "distributed")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch_method(self, cls, attr) -> None:
        """``RankingMethod`` entry points, named by the method's module."""
        original = cls.__dict__[attr]
        tracer = self
        wrapped = {}

        def layer_of(method):
            return "approximate" if type(method).__module__.startswith("repro.approximate") else "exact"

        @functools.wraps(original)
        def dispatch(method, *args, **kwargs):
            layer = layer_of(method)
            fn = wrapped.get(layer)
            if fn is None:
                after = tracer._after_approx if (layer == "approximate" and attr == "query_many") else None
                fn = wrapped[layer] = tracer.wrap(original, f"{layer}.{attr}", layer, after)
            return fn(method, *args, **kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, dispatch)

    def _patch_store(self, cls) -> None:
        """``TemporalDatabase.store``: a span only when it rebuilds."""
        original = cls.__dict__["store"]
        rebuild = self.wrap(original, "core.store_rebuild", "core")
        counters = self.counters

        @functools.wraps(original)
        def store(database, *args, **kwargs):
            if database.has_store:
                return original(database, *args, **kwargs)
            counters["store_rebuilds"] += 1
            return rebuild(database, *args, **kwargs)

        self._patches.append((cls, "store", original))
        cls.store = store

    def hook_coordinator(self, coordinator) -> None:
        """Record batch flushes, per-request cache lookups, and when the
        coordinator has resolved every future of a batch."""
        execute = coordinator._execute
        lookup = coordinator.cache.get
        batches, lookups, resolved = self.batches, self.lookups, self.resolved

        def flushed(batch):
            batches.append((clock(), len(batch)))
            resolved.append(float("nan"))
            return delivered(len(resolved) - 1, execute(batch))

        async def delivered(index, work):
            # ``_execute`` sets the futures without awaiting anything
            # after the backend returns, so this runs in the same loop
            # step, before any waiting client resumes.
            await work
            resolved[index] = clock()

        def get(key, epoch):
            found = lookup(key, epoch)
            lookups.append((clock(), key, found is not None))
            return found

        coordinator._execute = flushed
        coordinator.cache.get = get
        cluster = getattr(coordinator.backend, "cluster", None)
        if cluster is not None:
            self._cluster = cluster
            self._comm0 = (cluster.comm.messages, cluster.comm.bytes, len(cluster.comm.rounds))

    # -- summary ------------------------------------------------------------
    def summarize(self, report, workload, service) -> dict:
        traced = report.phase("nominal-traced")
        base = report.phase("nominal-untraced")
        spans = sorted(self.spans)
        by_id = {s[0]: s for s in spans}
        children = defaultdict(float)
        for s in spans:
            if s[5] >= 0:
                children[s[5]] += s[4] - s[3]
        self_time = {s[0]: (s[4] - s[3]) - children[s[0]] for s in spans}

        def root_of(span_id):
            while by_id[span_id][5] >= 0:
                span_id = by_id[span_id][5]
            return span_id

        layer_of_root = defaultdict(lambda: defaultdict(float))
        for s in spans:
            layer_of_root[root_of(s[0])][s[2]] += self_time[s[0]]
        roots = [s for s in spans if s[1] == "backend.serve_many"]
        roots.sort(key=lambda s: s[3])

        notes = []
        per_request, mapped = self._decompose(traced, roots, layer_of_root, notes)

        def named(name):
            return [s[4] - s[3] for s in spans if s[1] == name]

        def q(values, quantile):
            return float(np.quantile(values, quantile)) * 1e3 if len(values) else 0.0

        def mean_ms(values):
            return float(np.mean(values)) * 1e3 if len(values) else 0.0

        serving = traced.serving
        requests = max(serving["requests"], 1)
        batches = max(serving["batches"], 1)
        executed = max(serving["executed"], 1)
        backend = [s[4] - s[3] for s in roots]
        metrics = {
            "serving.queue_wait_ms.p50": (q(per_request["queue_wait"], 0.5), "ms"),
            "serving.queue_wait_ms.p99": (q(per_request["queue_wait"], 0.99), "ms"),
            "serving.self_ms.p50": (q(per_request["serving"], 0.5), "ms"),
            "serving.self_ms.p99": (q(per_request["serving"], 0.99), "ms"),
            "serving.batch_size.mean": (serving["requests"] / batches, "count"),
            "serving.deadline_flush_frac": (serving["deadline_flushes"] / batches, "ratio"),
            "serving.cache_hit_ratio": (serving["cache_hits"] / requests, "ratio"),
            "serving.dedup_ratio": (serving["deduped"] / requests, "ratio"),
            "serving.cache_stale": (float(serving["cache_stale"]), "count"),
            "serving.generator_lag_ms.p99": (q(traced.lag[traced.measured], 0.99), "ms"),
            "engine.serve_many_ms.p50": (q(backend, 0.5), "ms"),
            "engine.serve_many_ms.p99": (q(backend, 0.99), "ms"),
            "engine.busy_frac": (sum(backend) / traced.duration, "ratio"),
            "engine.append_ms.p50": (q(named("engine.append"), 0.5), "ms"),
            "engine.append_ms.p99": (q(named("engine.append"), 0.99), "ms"),
            "exact.query_many_ms": (mean_ms(named("exact.query_many")), "ms"),
            "exact.append_ms": (mean_ms(named("exact.append")), "ms"),
            "approximate.query_many_ms": (mean_ms(named("approximate.query_many")), "ms"),
            "approximate.candidates_per_answer": (
                self.counters["candidates"] / max(self.counters["approximate.answers"], 1),
                "ratio",
            ),
            "core.kernel_ms": (
                sum(layer_of_root[r[0]]["core"] for r in roots) / max(len(roots), 1) * 1e3,
                "ms",
            ),
            "core.store_rebuilds": (float(self.counters["store_rebuilds"]), "count"),
            "core.store_rebuild_ms": (sum(named("core.store_rebuild")) * 1e3, "ms"),
            "core.scalar_fallbacks": (float(self.counters["scalar_fallbacks"]), "count"),
            "storage.snapshot_ms.p50": (q(named("storage.snapshot"), 0.5), "ms"),
            "storage.snapshot_ms.max": (max(named("storage.snapshot"), default=0.0) * 1e3, "ms"),
            "storage.open_ms": (statistics.median(report.open_s) * 1e3, "ms"),
            "storage.block_reads_per_query": (traced.io_reads / max(traced.sent, 1), "count"),
        }
        metrics.update(self._distributed(executed, named))
        for layer in ("generator",) + LAYERS:
            metrics[f"{layer}.self_ms_per_req"] = (float(np.mean(per_request[layer])) * 1e3, "ms")
        latency = traced.latency[traced.measured]
        parts = sum(np.asarray(per_request[layer]) for layer in ("generator",) + LAYERS)
        err = np.abs(parts - per_request["latency"]) / np.maximum(per_request["latency"], 1e-9)
        reconciled = (err <= REQUEST_TOLERANCE) & (per_request["negative"] == 0)
        metrics["tracing.reconciled_frac"] = (
            float(np.mean(reconciled)) if mapped else 0.0,
            "ratio",
        )
        run_err = (
            float(abs(parts.sum() - per_request["latency"].sum()) / max(per_request["latency"].sum(), 1e-9))
            if mapped
            else 1.0
        )
        metrics["tracing.reconcile_err"] = (run_err, "ratio")
        metrics["tracing.overhead_p50_ms"] = (traced.quantile_ms(0.5) - base.quantile_ms(0.5), "ms")
        metrics["tracing.overhead_p99_ms"] = (traced.quantile_ms(0.99) - base.quantile_ms(0.99), "ms")
        metrics["tracing.spans"] = (float(len(spans)), "count")
        verdict = "within" if run_err <= RUN_TOLERANCE and not per_request["negative"].any() else "NOT within"
        notes.append(
            f"reconcile: the parts leave {run_err:.2%} of the summed traced latency unattributed, "
            f"{verdict} the {RUN_TOLERANCE:.0%} tolerance; {int(np.sum(reconciled))} of {latency.size} "
            f"traced requests within {REQUEST_TOLERANCE:.0%} each with no negative part"
        )
        notes.append(
            f"reconcile: mean latency {np.mean(per_request['latency']) * 1e3:.3f} ms = "
            + " + ".join(
                f"{layer} {np.mean(per_request[layer]) * 1e3:.3f}" for layer in ("generator",) + LAYERS
            )
            + f" + unattributed {np.mean(per_request['unattributed']) * 1e3:.3f}"
            + f" (p99 {q(per_request['unattributed'], 0.99):.3f})"
        )
        notes.append(
            f"tracing overhead: p50 {base.quantile_ms(0.5):.3f} -> {traced.quantile_ms(0.5):.3f} ms, "
            f"p99 {base.quantile_ms(0.99):.3f} -> {traced.quantile_ms(0.99):.3f} ms"
        )
        self.dump(report)
        return {"metrics": metrics, "notes": notes}

    def _decompose(self, phase, roots, layer_of_root, notes):
        """Split each measured request's latency into measured parts.

        Parts: the generator's lag (scheduled -> submit), serving (queue
        wait submit -> flush, dispatch flush -> the batch's
        ``serve_many`` starting on the worker thread, delivery
        ``serve_many`` returning -> the coordinator resolving the
        batch's futures; on a cache hit, submit -> its lookup), and the
        self times of every span under the batch's ``serve_many``.  The
        latency is measured by the client when it resumes, so what the
        parts leave out (``unattributed``: the client's wake-up after
        its future was resolved) is measured, not assumed to be zero.
        """
        n = phase.sent
        keys = ("generator", "queue_wait", "latency", "unattributed", "negative") + LAYERS
        out = {key: np.zeros(n) for key in keys}
        t1s, t2s, ks = phase.keys
        lookups = self.lookups
        ok = len(lookups) == n and all(
            key == (float(t1s[i]), float(t2s[i]), int(ks[i])) for i, (_, key, _) in enumerate(lookups)
        ) and sum(size for _, size in self.batches) == n
        if not ok:
            notes.append(f"reconcile: request order not recovered ({len(lookups)} lookups, {n} requests)")
        else:
            start = phase.wall_start
            root_iter = iter(roots)
            pos = 0
            for (flush, size), batch_resolved in zip(self.batches, self.resolved):
                members = range(pos, pos + size)
                pos += size
                root = next(root_iter) if any(not lookups[i][2] for i in members) else None
                for i in members:
                    scheduled = start + phase.scheduled[i]
                    submit = start + phase.submit[i]
                    done = start + phase.done[i]
                    out["latency"][i] = done - scheduled
                    out["generator"][i] = submit - scheduled
                    out["queue_wait"][i] = flush - submit
                    if lookups[i][2]:
                        resolved = lookups[i][0]
                        gaps = (flush - submit, resolved - flush)
                    else:
                        resolved = batch_resolved
                        gaps = (flush - submit, root[3] - flush, resolved - root[4])
                        self.request_ids.setdefault(root[0], []).append(i)
                        for layer, seconds in layer_of_root[root[0]].items():
                            out[layer][i] += seconds
                    out["serving"][i] += sum(gaps)
                    out["unattributed"][i] = done - resolved
                    out["negative"][i] = min(gaps + (done - resolved,)) < 0
            ok = next(root_iter, None) is None
            if not ok:
                notes.append("reconcile: more serve_many calls than batches with a miss")
        mask = phase.measured
        return {key: value[mask] for key, value in out.items()}, ok

    def _distributed(self, executed, named) -> dict:
        cluster = self._cluster
        if cluster is None:
            messages = comm_bytes = rounds = 0.0
        else:
            m0, b0, r0 = self._comm0
            messages = (cluster.comm.messages - m0) / executed
            comm_bytes = (cluster.comm.bytes - b0) / executed
            rounds = (len(cluster.comm.rounds) - r0) / executed
        calls = named("distributed.query_many")
        return {
            "distributed.comm_bytes_per_query": (comm_bytes, "bytes"),
            "distributed.messages_per_query": (messages, "count"),
            "distributed.ta_rounds_per_query": (rounds, "count"),
            "distributed.query_many_ms": (float(np.mean(calls)) * 1e3 if calls else 0.0, "ms"),
        }

    def dump(self, report) -> None:
        """Write every span of the run as JSON lines under .bench_out/."""
        out = Path(__file__).resolve().parent.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{report.workload}-{report.seed}.jsonl"
        with path.open("w") as fh:
            for span_id, name, layer, start, end, parent, thread in sorted(self.spans):
                record = {"id": span_id, "name": name, "layer": layer, "start": start,
                          "end": end, "parent": parent, "thread": thread}
                if span_id in self.request_ids:
                    record["requests"] = self.request_ids[span_id]
                fh.write(json.dumps(record) + "\n")
