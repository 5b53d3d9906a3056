"""Seeded open-loop request generator for a running ServingCoordinator.

Requests fire on a precomputed Poisson schedule and never wait for
earlier answers (open loop), so an overloaded service builds a queue
instead of slowing the generator down.  Every latency is measured from
the request's *scheduled* send time, so a stall also charges the wait
it imposes on later requests; how late the generator itself ran is
recorded separately as ``lag``.

Writes (``ingest-live``) run on their own fixed schedule in the same
event loop, as synchronous calls on the loop thread, which is how a
live feed talks to the engine next to a coordinator.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

clock = time.perf_counter

#: Most requests fired per event-loop turn.  A burst of due requests is
#: sent in chunks, yielding to the coordinator in between, the way a
#: network front-end reads a bounded amount per turn.  Without the cap,
#: a generator behind schedule under overload fills whole loop turns
#: with new tasks and starves the coordinator it shares the loop with.
FIRE_CHUNK = 64


def poisson_schedule(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Ascending Poisson arrival offsets in ``[0, duration)``."""
    expected = int(rate * duration * 1.2) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, expected))
    while offsets[-1] < duration:
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, expected))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


@dataclass
class Writer:
    """Fixed-schedule writes issued on the loop thread during a phase.

    ``events`` is a list of ``(offset_s, kind, callable)``; each
    callable runs synchronously at its due time and its latency (from
    the scheduled time, like a query) is kept per kind.
    """

    events: list
    latencies: dict = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


@dataclass
class PhaseResult:
    """Everything measured about one open-loop phase."""

    name: str
    rate: float
    duration: float
    warm: float
    scheduled: np.ndarray
    submit: np.ndarray
    done: np.ndarray
    answers: list
    errors: list
    epoch_submit: np.ndarray
    epoch_done: np.ndarray
    keys: tuple
    #: Requests sent, and still outstanding at the window's end (the
    #: backlog).
    sent: int = 0
    outstanding_at_end: int = 0
    wall_start: float = 0.0
    writer: Optional[Writer] = None
    #: Modeled block reads charged during the phase.
    io_reads: int = 0
    #: Process CPU seconds (every thread) spent from the phase's start
    #: until its last request was answered.
    cpu_s: float = 0.0
    #: Coordinator counters over the phase (ServingStats deltas).
    serving: dict = field(default_factory=dict)
    #: Share of the phase's time the host let the process run
    #: (``hostspeed.py``; 1 when not measured).
    running: float = 1.0

    @property
    def latency(self) -> np.ndarray:
        """Seconds from scheduled send to completion (inf when failed)."""
        lat = self.done - self.scheduled
        lat[np.isnan(lat)] = np.inf
        return lat

    @property
    def lag(self) -> np.ndarray:
        return self.submit - self.scheduled

    @property
    def measured(self) -> np.ndarray:
        """Mask of requests scheduled after the warm-up window."""
        return self.scheduled >= self.warm

    @property
    def failed(self) -> int:
        return sum(1 for error in self.errors if error is not None)

    def quantile_ms(self, q: float) -> float:
        lat = self.latency[self.measured]
        return float(np.quantile(lat, q)) * 1e3 if lat.size else float("nan")

    def completion_rate(self) -> float:
        """Completions per second inside ``[warm, duration)``."""
        done = self.done[~np.isnan(self.done)]
        inside = (done >= self.warm) & (done < self.duration)
        return float(inside.sum()) / (self.duration - self.warm)


async def run_phase(
    coordinator,
    name: str,
    keys: tuple,
    scheduled: np.ndarray,
    duration: float,
    warm: float = 0.0,
    epoch: Callable[[], int] = lambda: 0,
    writer: Optional[Writer] = None,
) -> PhaseResult:
    """Replay ``scheduled`` against ``coordinator.top_k`` open-loop.

    ``keys`` holds the ``(t1s, t2s, ks)`` arrays of the requests.  The
    phase window is ``[0, duration)``; requests still outstanding at
    its end are awaited (drained) but completions after the window
    do not count toward the completion rate.
    """
    t1s, t2s, ks = keys
    count = int(scheduled.size)
    submit = np.full(count, np.nan)
    done = np.full(count, np.nan)
    epoch_submit = np.zeros(count, dtype=np.int64)
    epoch_done = np.zeros(count, dtype=np.int64)
    answers: list = [None] * count
    errors: list = [None] * count
    tasks = []
    stats0 = _serving_counters(coordinator)
    cpu0 = time.process_time()
    start = clock()

    async def fire(index: int) -> None:
        submit[index] = clock() - start
        epoch_submit[index] = epoch()
        try:
            answers[index] = await coordinator.top_k(
                float(t1s[index]), float(t2s[index]), int(ks[index])
            )
        except Exception as exc:  # a failed request is a result, not a crash
            errors[index] = f"{type(exc).__name__}: {exc}"
        done[index] = clock() - start
        epoch_done[index] = epoch()

    loop = asyncio.get_running_loop()
    feed = loop.create_task(_drive_writes(writer, start))
    i = 0
    while i < count:
        now = clock() - start
        fired = 0
        while i < count and scheduled[i] <= now and fired < FIRE_CHUNK:
            tasks.append(loop.create_task(fire(i)))
            i += 1
            fired += 1
        if i < count:
            await asyncio.sleep(max(0.0, scheduled[i] - (clock() - start)))
    remaining = duration - (clock() - start)
    if remaining > 0:
        await asyncio.sleep(remaining)
    completed = int(np.count_nonzero(~np.isnan(done)))
    await asyncio.gather(feed, *tasks)
    cpu_s = time.process_time() - cpu0
    stats1 = _serving_counters(coordinator)
    return PhaseResult(
        name=name,
        rate=float(count / duration) if duration else 0.0,
        duration=duration,
        warm=warm,
        scheduled=scheduled,
        submit=submit,
        done=done,
        answers=answers,
        errors=errors,
        epoch_submit=epoch_submit,
        epoch_done=epoch_done,
        keys=keys,
        sent=count,
        outstanding_at_end=count - completed,
        wall_start=start,
        writer=writer,
        cpu_s=cpu_s,
        serving={key: stats1[key] - stats0[key] for key in stats1},
    )


async def _drive_writes(writer: Optional[Writer], start: float) -> None:
    """Run ``writer``'s events on the loop thread at their due times."""
    if writer is None:
        return
    for due, kind, action in writer.events:
        delay = due - (clock() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            action()
        except Exception as exc:  # a failed write is a result, not a crash
            writer.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        writer.latencies.setdefault(kind, []).append(clock() - start - due)


def _serving_counters(coordinator) -> dict:
    stats, cache = coordinator.stats, coordinator.cache.stats
    return {
        "requests": stats.requests,
        "batches": stats.batches,
        "deadline_flushes": stats.deadline_flushes,
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
        "deduped": stats.deduped,
        "failed": stats.failed,
        "cache_stale": cache.stale,
    }


async def run_saturated(
    coordinator,
    name: str,
    keys: tuple,
    concurrency: int,
    duration: float,
    warm: float = 0.0,
    epoch: Callable[[], int] = lambda: 0,
    writer: Optional[Writer] = None,
) -> PhaseResult:
    """Keep ``concurrency`` requests outstanding for ``duration`` seconds.

    A closed loop: each of ``concurrency`` clients sends its next
    request as soon as its previous one is answered, so the service
    always has work queued but the queue never grows without bound.
    Its completion rate is the service's peak throughput.
    """
    t1s, t2s, ks = keys
    count = int(t1s.size)
    submit = np.full(count, np.nan)
    done = np.full(count, np.nan)
    epoch_submit = np.zeros(count, dtype=np.int64)
    epoch_done = np.zeros(count, dtype=np.int64)
    answers: list = [None] * count
    errors: list = [None] * count
    stats0 = _serving_counters(coordinator)
    cpu0 = time.process_time()
    start = clock()
    cursor = iter(range(count))

    async def client() -> None:
        for index in cursor:
            now = clock() - start
            if now >= duration:
                return
            submit[index] = now
            epoch_submit[index] = epoch()
            try:
                answers[index] = await coordinator.top_k(
                    float(t1s[index]), float(t2s[index]), int(ks[index])
                )
            except Exception as exc:  # a failed request is a result, not a crash
                errors[index] = f"{type(exc).__name__}: {exc}"
            done[index] = clock() - start
            epoch_done[index] = epoch()

    await asyncio.gather(
        _drive_writes(writer, start), *(client() for _ in range(concurrency))
    )
    cpu_s = time.process_time() - cpu0
    sent = int(np.count_nonzero(~np.isnan(submit)))
    stats1 = _serving_counters(coordinator)
    return PhaseResult(
        name=name,
        rate=0.0,
        duration=duration,
        warm=warm,
        scheduled=submit[:sent],
        submit=submit[:sent],
        done=done[:sent],
        answers=answers[:sent],
        errors=errors[:sent],
        epoch_submit=epoch_submit[:sent],
        epoch_done=epoch_done[:sent],
        keys=(t1s[:sent], t2s[:sent], ks[:sent]),
        sent=sent,
        outstanding_at_end=0,
        wall_start=start,
        writer=writer,
        cpu_s=cpu_s,
        serving={key: stats1[key] - stats0[key] for key in stats1},
    )
