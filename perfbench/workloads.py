"""The four served workloads: inputs, set-up, writes and answer checks.

Every input comes from the run's ``--seed``: the Temp-like database
(``generate_temp``), the request keys, the Poisson schedules and the
live feed.  The program under test only ever sees the generated data
and requests, through its public API: ``TemporalRankingEngine``,
``TimePartitionedCluster``, ``repro.open`` and a ``ServingCoordinator``
in its default configuration (``workers=1``, default cache).

Why each workload exists (the per-layer predictions are in README.md):

* ``agg-exact``   -- distinct uniform keys: the result cache is
  bypassed and the EXACT3 method and kernel do the work.
* ``dash-appx``   -- Zipf-popular trailing windows through APPX2+: a
  cheap backend, so queueing, batching, dedup and the cache dominate.
* ``ingest-live`` -- a restart from a snapshot, then live appends and
  periodic checkpoints beside trailing-window EXACT3 queries.
* ``cluster-ta``  -- a 4-node time-partitioned cluster answering with
  the threshold algorithm over intervals that cross partitions.
"""

from __future__ import annotations

import gc
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from loadgen import Writer, clock

#: Database scale shared by every workload (the serving bench's scale).
NUM_OBJECTS = 1000
AVG_READINGS = 60
KMAX = 20


@dataclass(frozen=True)
class Rates:
    """Fixed offered loads (requests/s) and the latency limit.

    ``ladder`` is ascending; ``slo_qps`` is the highest rung whose p99
    meets ``limit_ms`` with no growing backlog.  ``nominal`` is low
    enough that latency there reflects the cost of serving a request
    more than queueing behind others.
    """

    nominal: float
    limit_ms: float
    ladder: Tuple[float, ...]


def geometric_ladder(low: float, high: float, steps_per_doubling: int) -> Tuple[float, ...]:
    count = int(round(np.log2(high / low) * steps_per_doubling)) + 1
    return tuple(float(round(low * 2 ** (i / steps_per_doubling))) for i in range(count))


@dataclass
class Service:
    """What a workload's set-up hands to the timed phases."""

    backend: object
    target: object  # the engine or cluster the backend serves
    open_s: float = 0.0


@dataclass
class Check:
    """Verdict of the untimed answer check over one phase."""

    checked: int = 0
    wrong: int = 0
    #: Per distinct request key, the recall of each answer to it.
    recalls: dict = field(default_factory=dict)
    #: The first few wrong answers, described.
    examples: list = field(default_factory=list)

    def add_recall(self, key, value: float) -> None:
        self.recalls.setdefault(key, []).append(float(value))

    def add_wrong(self, message: str) -> None:
        self.wrong += 1
        if len(self.examples) < 20:
            self.examples.append(message)


class Workload:
    """Base: uniform random aggregate keys over a static database."""

    name = "base"
    fractions = (0.05, 0.2, 0.5)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.db = None
        self._oracle = None

    # -- inputs -----------------------------------------------------
    def make_database(self):
        from repro import generate_temp

        return generate_temp(
            num_objects=NUM_OBJECTS, avg_readings=AVG_READINGS, seed=self.seed
        )

    def prepare(self) -> None:
        """Untimed work before set-up (e.g. writing a snapshot)."""
        self.db = self.make_database()

    def refresh(self) -> None:
        """Untimed: fresh data for the next set-up, so none is warm."""
        self.db = self.make_database()

    def bind(self, service: Service) -> None:
        """Remember the service the timed phases will use."""
        self._service = service

    def uniform_keys(self, rng, count: int, lengths: np.ndarray):
        t_min, t_max = self.db.span
        t1s = t_min + rng.uniform(0.0, 1.0, count) * (t_max - t_min - lengths)
        ks = rng.integers(1, KMAX + 1, count)
        return t1s, t1s + lengths, ks

    def keys(self, rng, scheduled: np.ndarray):
        count = scheduled.size
        span = self.db.span[1] - self.db.span[0]
        fractions = np.asarray(self.fractions)
        lengths = span * fractions[rng.integers(0, fractions.size, count)]
        return self.uniform_keys(rng, count, lengths)

    def writer(self, duration: float, service: Service) -> Optional[Writer]:
        return None

    # -- service ----------------------------------------------------
    def setup(self) -> Service:
        """Build the service from fresh data; timed as ``setup_s``."""
        raise NotImplementedError

    def index_bytes(self, service: Service) -> int:
        return int(service.target.index_size_bytes)

    # -- checks -----------------------------------------------------
    @property
    def oracle(self):
        """An independently generated copy of the database."""
        if self._oracle is None:
            self._oracle = self.make_database()
        return self._oracle

    def oracle_scores(self, t1s, t2s) -> np.ndarray:
        """Exact scores of every object, one row per key.

        The same per-object integrals ``brute_force_top_k`` ranks, from
        the columnar store of an oracle database that the service
        never touches; spot-checked against ``brute_force_top_k``
        itself in :meth:`check`.
        """
        queries = np.stack([np.asarray(t1s), np.asarray(t2s)], axis=1)
        return self.oracle.store().integrals_many(queries)

    def check(self, phase) -> Check:
        """Exact answers: equal to the oracle's top-k up to ties."""
        result = Check()
        ok = [i for i, answer in enumerate(phase.answers) if answer is not None]
        t1s, t2s, ks = phase.keys
        unique = {}
        for i in ok:
            unique.setdefault((t1s[i], t2s[i], ks[i]), []).append(i)
        keys = list(unique)
        ids = self.oracle.object_ids()
        for lo in range(0, len(keys), 512):
            chunk = keys[lo : lo + 512]
            scores = self.oracle_scores([k[0] for k in chunk], [k[1] for k in chunk])
            for row, key in enumerate(chunk):
                # Cache hits and in-batch duplicates share one answer
                # object: judge each distinct answer once.
                judged = {}
                for i in unique[key]:
                    answer = phase.answers[i]
                    if id(answer) not in judged:
                        judged[id(answer)] = (
                            exact_verdict(answer, ids, scores[row], key[2]),
                            _recall(answer, ids, scores[row], key[2]),
                        )
                    verdict, recall = judged[id(answer)]
                    result.checked += 1
                    if verdict is not None:
                        result.add_wrong(f"{phase.name}#{i} {key}: {verdict}")
                    result.add_recall(key, recall)
        self.spot_check_oracle(keys)
        return result

    def spot_check_oracle(self, keys) -> None:
        """Cross-check the oracle kernel against ``brute_force_top_k``."""
        rng = np.random.default_rng(self.seed)
        for idx in rng.choice(len(keys), size=min(8, len(keys)), replace=False):
            t1, t2, k = keys[int(idx)]
            row = self.oracle_scores([t1], [t2])[0]
            ref = self.oracle.brute_force_top_k(float(t1), float(t2), int(k))
            verdict = exact_verdict(ref, self.oracle.object_ids(), row, int(k))
            if verdict is not None:
                raise RuntimeError(f"oracle disagrees with brute_force_top_k: {verdict}")

    def close(self) -> None:
        """Remove the run's scratch files, if any."""


def _tolerance(scores: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(scores)))) if scores.size else 1e-9


def exact_verdict(answer, object_ids, scores, k) -> Optional[str]:
    """``None`` when ``answer`` is a correct top-k of ``scores``.

    Correct means: ``min(k, m)`` distinct ids in non-increasing score
    order, each reported score equal to the object's exact score, and
    none below the exact k-th best score (ties may be broken either
    way).  Returns a short reason otherwise.
    """
    got_ids = np.asarray(answer.object_ids, dtype=np.int64)
    got = np.asarray(answer.scores, dtype=np.float64)
    want = min(int(k), scores.size)
    if got_ids.size != want:
        return f"{got_ids.size} items, expected {want}"
    if np.unique(got_ids).size != got_ids.size:
        return "duplicate ids"
    slots = np.searchsorted(object_ids, got_ids)
    if np.any(slots >= object_ids.size) or np.any(object_ids[np.minimum(slots, object_ids.size - 1)] != got_ids):
        return "unknown id"
    tol = _tolerance(scores)
    truth = scores[slots]
    if np.any(np.abs(truth - got) > tol):
        worst = int(np.argmax(np.abs(truth - got)))
        return f"score of {got_ids[worst]} is {got[worst]!r}, exact {truth[worst]!r}"
    if np.any(np.diff(got) > tol):
        return "not in descending order"
    kth = np.partition(scores, scores.size - want)[scores.size - want]
    if np.any(truth < kth - tol):
        return f"id {got_ids[int(np.argmin(truth))]} is not in the exact top-{want}"
    return None


def io_reads(root) -> int:
    """Modeled block reads charged so far to every ``IOStats`` reachable
    from ``root`` (the engine or cluster being served)."""
    from repro.storage.stats import IOStats

    total = 0
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, IOStats):
            total += int(obj.reads)
            continue
        if isinstance(obj, (list, tuple, dict, set)):
            stack.extend(gc.get_referents(obj))
        elif type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return total


# ----------------------------------------------------------------------
class AggExact(Workload):
    """Static database, default EXACT3 ``EngineBackend``, distinct keys."""

    name = "agg-exact"
    rates = Rates(
        # A one-query EXACT3 batch costs ~10 ms here.  At 50/s the
        # worker is busy half the time and p50 sits on the steep part
        # of the queueing curve (deciles 13-42 ms), where a slightly
        # slower host doubles the wait; at 20/s most requests find it
        # idle and p50 is the cost of serving one (deciles 11-21 ms).
        nominal=20.0,
        limit_ms=150.0,
        ladder=geometric_ladder(400.0, 2263.0, 12),
    )

    def setup(self) -> Service:
        from repro.engine import TemporalRankingEngine
        from repro.serving import EngineBackend

        engine = TemporalRankingEngine(self.db)
        return Service(EngineBackend(engine), engine)


class DashAppx(Workload):
    """Dashboard traffic through APPX2+: a hot set plus a random tail."""

    name = "dash-appx"
    rates = Rates(
        nominal=2000.0,
        limit_ms=50.0,
        ladder=geometric_ladder(5000.0, 28284.0, 12),
    )
    #: The hot set: trailing windows ending at ``t_max`` whose widths
    #: span the repo's dashboard widgets (``examples/live_dashboard.py``:
    #: 2%, 10% and 45% of the span, ``K = 5``).  Assumed, with no
    #: measured traffic behind them: 300 distinct widths (the set fits
    #: the 1024-entry result cache), Zipf popularity with exponent 1.1,
    #: and 80% of requests from the hot set.  They give a result cache
    #: hit ratio of about 0.8 at the nominal rate.
    hot_widths = (0.02, 0.45)
    hot_k = 5
    hot_keys = 300
    zipf = 1.1
    hot_share = 0.8

    def setup(self) -> Service:
        from repro.engine import TemporalRankingEngine
        from repro.serving import EngineBackend

        engine = TemporalRankingEngine(self.db)
        return Service(EngineBackend(engine, approximate=True), engine)

    def keys(self, rng, scheduled: np.ndarray):
        count = scheduled.size
        t_min, t_max = self.db.span
        span = t_max - t_min
        # The hot set depends on the seed only, so every phase of a run
        # shares it.
        hot = np.random.default_rng([self.seed, 7])
        hot_t1 = t_max - span * np.geomspace(*self.hot_widths, self.hot_keys)
        order = hot.permutation(hot_t1.size)
        popularity = 1.0 / np.arange(1, hot_t1.size + 1) ** self.zipf
        popularity /= popularity.sum()
        pick = order[rng.choice(hot_t1.size, size=count, p=popularity)]
        t1s, t2s, ks = hot_t1[pick], np.full(count, t_max), np.full(count, self.hot_k)
        tail = rng.uniform(size=count) >= self.hot_share
        fractions = np.asarray(self.fractions)
        lengths = span * fractions[rng.integers(0, fractions.size, count)]
        u1, u2, uk = self.uniform_keys(rng, count, lengths)
        return (
            np.where(tail, u1, t1s),
            np.where(tail, u2, t2s),
            np.where(tail, uk, ks),
        )

    def check(self, phase) -> Check:
        """APPX2+: exact scores for what it returns, the per-rank
        (eps, 2 log r) bound, and recall against the exact top-k."""
        result = Check()
        bp = self._breakpoints
        alpha = 2 * np.log2(max(bp.r, 2))
        threshold = bp.threshold
        t1s, t2s, ks = phase.keys
        unique = {}
        for i, answer in enumerate(phase.answers):
            if answer is not None:
                unique.setdefault((t1s[i], t2s[i], ks[i]), []).append(i)
        keys = list(unique)
        object_ids = self.oracle.object_ids()
        for lo in range(0, len(keys), 512):
            chunk = keys[lo : lo + 512]
            scores = self.oracle_scores([k[0] for k in chunk], [k[1] for k in chunk])
            for row, key in enumerate(chunk):
                exact = scores[row]
                k = int(key[2])
                ranked = np.sort(exact)[::-1]
                tol = _tolerance(exact)
                kth = ranked[min(k, exact.size) - 1]
                judged = {}
                for i in unique[key]:
                    result.checked += 1
                    answer = phase.answers[i]
                    if id(answer) in judged:
                        reason, recall = judged[id(answer)]
                        if reason is not None:
                            result.add_wrong(f"{phase.name}#{i} {key}: {reason}")
                        result.add_recall(key, recall)
                        continue
                    got_ids = np.asarray(answer.object_ids, dtype=np.int64)
                    got = np.asarray(answer.scores, dtype=np.float64)
                    slots = np.searchsorted(object_ids, got_ids)
                    truth = exact[slots]
                    reason = None
                    if got_ids.size > k or np.unique(got_ids).size != got_ids.size:
                        reason = "malformed answer"
                    elif np.any(np.abs(truth - got) > tol):
                        reason = "score differs from exact_score"
                    else:
                        ref = ranked[: got.size]
                        if np.any(got < ref / alpha - threshold - 1e-6) or np.any(
                            got > ref + threshold + 1e-6
                        ):
                            reason = "per-rank (eps, 2 log r) bound violated"
                    recall = float(np.count_nonzero(truth >= kth - tol)) / k
                    judged[id(answer)] = (reason, recall)
                    if reason is not None:
                        result.add_wrong(f"{phase.name}#{i} {key}: {reason}")
                    result.add_recall(key, recall)
        self.spot_check_oracle(keys)
        return result

    @property
    def _breakpoints(self):
        # The engine builds APPX2+ on the first approximate batch; its
        # breakpoints carry the r and threshold of the guarantee.
        return self._service.target._approximate.breakpoints


class ClusterTA(Workload):
    """A 4-node time-partitioned cluster under the threshold algorithm."""

    name = "cluster-ta"
    num_nodes = 4
    rates = Rates(
        # A one-query batch costs ~3.5 ms: at 150/s the worker is
        # busy half the time and p50 follows the queueing, at 50/s
        # mostly the cost of serving one request.
        nominal=50.0,
        limit_ms=300.0,
        ladder=geometric_ladder(400.0, 2263.0, 12),
    )

    def setup(self) -> Service:
        from repro import TimePartitionedCluster
        from repro.serving import ClusterBackend

        cluster = TimePartitionedCluster(self.db, self.num_nodes)
        return Service(ClusterBackend(cluster, protocol="threshold"), cluster)

    def keys(self, rng, scheduled: np.ndarray):
        count = scheduled.size
        span = self.db.span[1] - self.db.span[0]
        return self.uniform_keys(rng, count, span * rng.uniform(0.2, 0.5, count))

    def index_bytes(self, service: Service) -> int:
        return int(sum(node.method.index_size_bytes for node in service.target.nodes))


class IngestLive(Workload):
    """Restart from a snapshot, then appends and checkpoints beside
    trailing-window EXACT3 queries."""

    name = "ingest-live"
    rates = Rates(
        nominal=100.0,
        limit_ms=200.0,
        ladder=geometric_ladder(150.0, 849.0, 12),
    )
    #: Appends per second and the checkpoint cadence (seconds).
    append_rate = 200.0
    checkpoint_every = 2.0
    #: Trailing windows (shares of the span), dashboard k values, and
    #: the appends per refresh of a window's end: dashboards align
    #: their windows, so keys repeat across appends and the result
    #: cache sees entries expire by epoch.
    widths = (0.02, 0.1, 0.45)
    dashboard_ks = (5, 10, 20)
    refresh_appends = 40

    def prepare(self) -> None:
        from repro.engine import TemporalRankingEngine

        super().prepare()
        self.step = (self.db.span[1] - self.db.span[0]) / 20000.0
        self.base_dir = self.workdir / "base"
        TemporalRankingEngine(self.db).snapshot(self.base_dir)
        # Planned appends, in order: (slot, t_prev, v_prev, t, v).
        ids = self.db.object_ids()
        self._ids = ids
        self._frontier = {
            int(obj.object_id): (float(obj.function.times[-1]), float(obj.function.values[-1]))
            for obj in self.db.objects
        }
        self.t_now = float(self.db.span[1])
        self.appends: List[tuple] = []
        self._feed = np.random.default_rng([self.seed, 11])
        self._checkpoints = 0

    def setup(self) -> Service:
        import repro
        from repro.serving import EngineBackend

        start = clock()
        engine = repro.open(self.base_dir)
        open_s = clock() - start
        return Service(EngineBackend(engine), engine, open_s=open_s)

    def refresh(self) -> None:
        """Every set-up reopens the same snapshot."""

    def bind(self, service: Service) -> None:
        self._service = service
        self._epoch0 = int(service.backend.epoch)

    def _plan_appends(self, count: int):
        planned = []
        for _ in range(count):
            object_id = int(self._ids[self._feed.integers(0, self._ids.size)])
            t_prev, v_prev = self._frontier[object_id]
            self.t_now += self.step
            value = float(np.clip(v_prev + self._feed.normal(0.0, 8.0), 0.0, 450.0))
            self._frontier[object_id] = (self.t_now, value)
            planned.append((object_id, t_prev, v_prev, self.t_now, value))
        return planned

    def keys(self, rng, scheduled: np.ndarray):
        # A request's window ends at the data clock of its send time,
        # rounded down to a refresh: the appends planned for this phase
        # are spread evenly over it, so the clock at offset s is the
        # phase's start clock plus the steps of the appends due by s.
        count = scheduled.size
        due = np.floor(scheduled * self.append_rate / self.refresh_appends) * self.refresh_appends
        ends = self.t_now + due * self.step
        span = self.db.span[1] - self.db.span[0]
        widths = span * np.asarray(self.widths)[rng.integers(0, len(self.widths), count)]
        ks = np.asarray(self.dashboard_ks)[rng.integers(0, len(self.dashboard_ks), count)]
        return ends - widths, ends, ks

    def writer(self, duration: float, service: Service) -> Writer:
        engine = service.target
        count = int(duration * self.append_rate)
        planned = self._plan_appends(count)
        self.appends.extend(planned)
        events = []
        for j, (object_id, _, _, t, v) in enumerate(planned):
            events.append(((j + 1) / self.append_rate, "append", _append(engine, object_id, t, v)))
        checkpoints = int(duration / self.checkpoint_every)
        for c in range(checkpoints):
            self._checkpoints += 1
            path = self.workdir / f"checkpoint-{self._checkpoints}"
            events.append(((c + 0.5) * self.checkpoint_every, "checkpoint", _snapshot(engine, path)))
        events.sort(key=lambda e: e[0])
        return Writer(events)

    def check(self, phase) -> Check:
        """Accept an answer if it equals the oracle's top-k at some
        epoch between the request's submit and its completion."""
        result = Check()
        t1s, t2s, ks = phase.keys
        oracle_ids = self.oracle.object_ids()
        slots_of = {int(o): s for s, o in enumerate(oracle_ids)}
        if not self.appends:
            return result
        a_slot = np.asarray([slots_of[a[0]] for a in self.appends])
        a_t0 = np.asarray([a[1] for a in self.appends])
        a_v0 = np.asarray([a[2] for a in self.appends])
        a_t1 = np.asarray([a[3] for a in self.appends])
        a_v1 = np.asarray([a[4] for a in self.appends])
        slope = (a_v1 - a_v0) / (a_t1 - a_t0)
        ok = [i for i, answer in enumerate(phase.answers) if answer is not None]
        for lo in range(0, len(ok), 512):
            chunk = ok[lo : lo + 512]
            base = self.oracle_scores(t1s[chunk], t2s[chunk])
            for row, i in enumerate(chunk):
                e_lo = int(phase.epoch_submit[i]) - self._epoch0
                e_hi = int(phase.epoch_done[i]) - self._epoch0
                t1, t2 = float(t1s[i]), float(t2s[i])
                # Each appended segment's integral over [t1, t2].
                left = np.maximum(a_t0[:e_hi], t1)
                right = np.minimum(a_t1[:e_hi], t2)
                width = np.maximum(right - left, 0.0)
                area = 0.5 * width * (
                    2.0 * a_v0[:e_hi]
                    + slope[:e_hi] * (left - a_t0[:e_hi] + right - a_t0[:e_hi])
                )
                scores = base[row] + np.bincount(
                    a_slot[:e_lo], weights=area[:e_lo], minlength=oracle_ids.size
                )
                result.checked += 1
                epoch = _matching_epoch(
                    phase.answers[i], oracle_ids, scores, ks[i], a_slot[e_lo:e_hi], area[e_lo:e_hi]
                )
                key = (t1, t2, int(ks[i]))
                if epoch is not None:
                    result.add_recall(key, 1.0)
                    continue
                verdict = exact_verdict(phase.answers[i], oracle_ids, scores, ks[i])
                result.add_wrong(
                    f"{phase.name}#{i} ({t1!r}, {t2!r}, {int(ks[i])}) epochs "
                    f"{e_lo}..{e_hi}: matches no epoch ({verdict} at {e_lo})"
                )
                result.add_recall(key, _recall(phase.answers[i], oracle_ids, scores, ks[i]))
        return result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _matching_epoch(answer, object_ids, scores, k, slots, areas) -> Optional[int]:
    """The first epoch step ``e`` (0 = ``scores`` as given, ``e`` = after
    the first ``e`` of the ``(slots, areas)`` appends) at which
    ``answer`` is a correct top-k, or ``None``.

    Each append moves one object's score, so the answer's own scores
    pin down the few candidate epochs; only those get the full check.
    """
    got_ids = np.asarray(answer.object_ids, dtype=np.int64)
    got = np.asarray(answer.scores, dtype=np.float64)
    pos = np.clip(np.searchsorted(object_ids, got_ids), 0, object_ids.size - 1)
    if np.any(object_ids[pos] != got_ids):
        return None
    touch = slots[None, :] == pos[:, None]
    path = np.concatenate(
        [np.zeros((pos.size, 1)), np.cumsum(np.where(touch, areas[None, :], 0.0), axis=1)],
        axis=1,
    ) + scores[pos][:, None]
    tol = _tolerance(scores)
    for epoch in np.flatnonzero(np.all(np.abs(path - got[:, None]) <= tol, axis=0)):
        at = scores + np.bincount(slots[:epoch], weights=areas[:epoch], minlength=scores.size)
        if exact_verdict(answer, object_ids, at, k) is None:
            return int(epoch)
    return None


def _recall(answer, object_ids, scores, k) -> float:
    got_ids = np.asarray(answer.object_ids, dtype=np.int64)
    slots = np.clip(np.searchsorted(object_ids, got_ids), 0, object_ids.size - 1)
    want = min(int(k), scores.size)
    kth = np.partition(scores, scores.size - want)[scores.size - want]
    return float(np.count_nonzero(scores[slots] >= kth - _tolerance(scores))) / want


def _append(engine, object_id, t, v):
    return lambda: engine.append(object_id, t, v)


def _snapshot(engine, path):
    return lambda: engine.snapshot(path)


WORKLOADS = {cls.name: cls for cls in (AggExact, DashAppx, IngestLive, ClusterTA)}
