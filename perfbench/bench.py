"""One benchmark run: set-up, timed open-loop phases, answer checks.

Untraced runs (``--trace 0``) time three kinds of phase, each with a
fresh coordinator in its default configuration over the same service:

* ``nominal``  -- the workload's fixed nominal rate, in ``ROUNDS``
  windows with a set-up before each but the first, so the gated
  figures sample the host over the whole run: p50/p99 latency over the
  requests of every window pooled, process CPU time per request, and
  modeled IOs and append latency;
* ``peak``     -- a closed loop holding ``PEAK_CONCURRENCY`` requests
  outstanding: ``peak_qps`` is the median completion rate of the
  windows.  An open loop far past capacity measures the generator
  instead: it shares the event loop with the coordinator, and the
  unbounded backlog of waiting requests makes the garbage collector
  and the loop the bottleneck, so completions swing between runs by
  30% and on ``dash-appx`` collapse to near zero;
* ``ladder``   -- a bisection over the workload's fixed ladder of
  offered rates: ``slo_qps`` is the highest probed rung whose p99 meets
  the workload's limit with no growing backlog.

Each set-up and window is bracketed by host probes (``hostspeed.py``):
``setup_s`` is reported at the reference host speed, and ``p50_ms``
with each nominal window's latencies multiplied by the share of the
time the host let the process run.  The measured figures are printed
beside them.

Traced runs (``--trace 1``) time the nominal phase twice, untraced and
then traced, so the per-layer numbers come with the tracing overhead.
Every answer is checked outside the timed windows: the first nominal
window's once the peak memory has been read (the check builds an
oracle copy of the database), every other phase's right after it.
The answers are then dropped and the garbage collector run, so later
phases do not scan them.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import hostspeed
from loadgen import PhaseResult, clock, poisson_schedule, run_phase, run_saturated
from workloads import io_reads

#: Rounds of an untraced run: each has a nominal window, and every
#: round but the first a set-up before it.
ROUNDS = 4
#: Shares of ``--seconds`` given to the nominal windows (split evenly
#: over the rounds), to each peak window and to each ladder probe.
NOMINAL_SHARE = 0.84
PEAK_WINDOWS = 2
PEAK_WINDOW_SHARE = 0.03
LADDER_PROBES = 3
LADDER_PROBE_SHARE = 0.0333
#: Requests held outstanding in the peak phase: two full micro-batches,
#: one executing and one forming, at the coordinator's defaults.
PEAK_CONCURRENCY = 128
#: Keys generated per second of a peak window: several times the fastest
#: completion rate seen (about 30,000/s), so no client runs out.
PEAK_KEYS_PER_S = 100000
#: Share of a traced run's ``--seconds`` given to its untraced twin.
TRACE_BASELINE_SHARE = 0.4
#: Requests scheduled in a phase's first ``WARM_SHARE`` (at most
#: ``WARM_MAX_S``) are served and checked but not timed: caches fill
#: and the queue reaches its steady state first.
WARM_SHARE = 0.15
WARM_MAX_S = 1.0
#: Set-ups before the first timed phase; the last one is the service
#: the phases use.  An untraced run times one more, throwaway, set-up
#: in each later round, so ``setup_s`` samples the host over the whole
#: run.
SETUPS_AT_START = 3


@dataclass
class Report:
    workload: str
    seed: int
    seconds: float
    #: Set-up times as measured, and the host-speed factor of each.
    setup_s: List[float]
    setup_scale: List[float]
    open_s: List[float]
    phases: List[PhaseResult]
    checks: list
    ladder: List[dict]
    index_mb: float
    peak_rss_mb: float
    trace: Optional[dict] = None
    host: dict = field(default_factory=dict)
    harness_ok: bool = True
    #: Median speed factor (1 = reference) and running share over the
    #: run's probes.
    host_speed: float = 1.0
    host_running: float = 1.0

    # -- end-to-end metrics -------------------------------------------
    def phase(self, name: str) -> Optional[PhaseResult]:
        return next((p for p in self.phases if p.name == name), None)

    @property
    def attempted(self) -> int:
        writes = sum(
            len(v) for p in self.phases if p.writer for v in p.writer.latencies.values()
        )
        return sum(p.sent for p in self.phases) + writes

    @property
    def wrong(self) -> int:
        return sum(c.wrong for c in self.checks)

    @property
    def failed(self) -> int:
        """Failed requests, wrong answers and failed writes."""
        writes = sum(len(p.writer.failures) for p in self.phases if p.writer)
        return sum(p.failed for p in self.phases) + self.wrong + writes

    def recall(self) -> float:
        """Mean over distinct request keys of |answer ∩ exact top-k| / k.

        Averaged per key, not per request, so a few very popular keys
        do not decide the answer quality of a whole run.
        """
        per_key = {}
        for check in self.checks:
            for key, values in check.recalls.items():
                per_key.setdefault(key, []).extend(values)
        return float(np.mean([np.mean(v) for v in per_key.values()])) if per_key else 0.0

    def peak_qps(self) -> float:
        return statistics.median(
            p.completion_rate() for p in self.phases if p.name.startswith("peak")
        )

    def cpu_ms_per_query(self, prefix: str = "nominal-") -> float:
        """Process CPU time (every thread) per request over the phases
        named ``prefix``: the nominal windows unless told otherwise."""
        phases = [p for p in self.phases if p.name.startswith(prefix)]
        return sum(p.cpu_s for p in phases) / max(sum(p.sent for p in phases), 1) * 1e3

    def setup_median_s(self, scaled: bool = True) -> float:
        return statistics.median(
            raw * (factor if scaled else 1.0) for raw, factor in zip(self.setup_s, self.setup_scale)
        )

    def nominal_ms(self, q: float, corrected: bool = True) -> float:
        """Latency quantile over the measured requests of every nominal
        window pooled; each multiplied by its window's running share
        unless ``corrected`` is false."""
        nominal = [p for p in self.phases if p.name.startswith("nominal-")]
        lat = np.concatenate(
            [p.latency[p.measured] * (p.running if corrected else 1.0) for p in nominal]
        )
        return float(np.quantile(lat, q)) * 1e3

    def nominal_samples(self) -> int:
        return int(sum(p.measured.sum() for p in self.phases if p.name.startswith("nominal-")))

    def end_to_end(self) -> dict:
        return {
            "setup_s": (self.setup_median_s(), "s"),
            "p50_ms": (self.nominal_ms(0.50), "ms"),
            "cpu_ms_per_query": (self.cpu_ms_per_query(), "ms"),
            "ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
            "recall": (self.recall(), "ratio"),
            "index_mb": (self.index_mb, "MB"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def extra(self) -> dict:
        """Measured numbers that are not gated (printed)."""
        nominal = [p for p in self.phases if p.name.startswith("nominal-")]
        lag = np.concatenate([p.lag for p in nominal])
        passing = [rung["rate"] for rung in self.ladder if rung["pass"]]
        out = {
            "p99_ms": (self.nominal_ms(0.99), "ms"),
            "nominal_samples": (self.nominal_samples(), "count"),
            "slo_qps": (max(passing, default=0.0), "1/s"),
            "peak_qps": (self.peak_qps(), "1/s"),
            "error_frac": (self.failed / self.attempted, "ratio"),
            "ios_per_query": (
                sum(p.io_reads for p in nominal) / max(sum(p.sent for p in nominal), 1),
                "count",
            ),
            "generator_lag_p99_ms": (float(np.quantile(lag, 0.99)) * 1e3, "ms"),
            "peak_cpu_ms_per_query": (self.cpu_ms_per_query("peak-"), "ms"),
            "measured.setup_s": (self.setup_median_s(scaled=False), "s"),
            "measured.p50_ms": (self.nominal_ms(0.50, corrected=False), "ms"),
            "measured.p99_ms": (self.nominal_ms(0.99, corrected=False), "ms"),
            "host_speed": (self.host_speed, "ratio"),
            "host_running": (self.host_running, "ratio"),
        }
        appends = [
            value
            for p in nominal
            if p.writer is not None
            for value in p.writer.latencies.get("append", [])
        ]
        if appends:
            appends = np.asarray(appends) * 1e3
            out["append_p50_ms"] = (float(np.quantile(appends, 0.5)), "ms")
            out["append_p99_ms"] = (float(np.quantile(appends, 0.99)), "ms")
        return out

    def result_line(self, traced: bool) -> dict:
        metrics = self.trace["metrics"] if traced else self.end_to_end()
        return {
            "correct": bool(self.harness_ok and self.wrong == 0),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def print_table(self, args) -> None:
        print(f"workload {self.workload}  seed {self.seed}  seconds {self.seconds:g}  trace {args.trace}")
        print(
            f"host speed {self.host_speed:.4f} of the reference, running share "
            f"{self.host_running:.4f} (medians over the probes)"
        )
        print("host " + json.dumps(self.host, sort_keys=True))
        for p in self.phases:
            print(
                f"phase {p.name:<17} offered {p.rate:8.1f}/s  sent {p.sent:6d}  "
                f"ok {p.sent - p.failed:6d}  failed {p.failed:4d}  "
                f"backlog@end {p.outstanding_at_end:5d}  p50 {p.quantile_ms(0.5):8.2f} ms  "
                f"p99 {p.quantile_ms(0.99):8.2f} ms  (n={int(p.measured.sum())})  "
                f"cpu {p.cpu_s / max(p.sent, 1) * 1e3:.4f} ms/request  running {p.running:.4f}"
            )
        for rung in self.ladder:
            print(
                f"ladder {rung['rate']:8.1f}/s  p99 {rung['p99_ms']:8.2f} ms  "
                f"backlog@end {rung['backlog']:5d}  {'pass' if rung['pass'] else 'fail'}"
            )
        for check in self.checks:
            for example in check.examples:
                print(f"wrong answer: {example}")
        print(
            f"answers checked {sum(c.checked for c in self.checks)}  wrong {self.wrong}  "
            f"attempted {self.attempted}  failed {self.failed}"
        )
        if args.trace:
            for name, (value, unit) in sorted(self.trace["metrics"].items()):
                print(f"metric {name} = {value:.6g} {unit}")
            for line in self.trace["notes"]:
                print(line)
        else:
            for name, (value, unit) in {**self.end_to_end(), **self.extra()}.items():
                print(f"metric {name} = {value:.6g} {unit}")


async def run(workload, seconds: float, traced: bool) -> Report:
    from repro.serving import ServingCoordinator

    workload.prepare()
    speed = hostspeed.Speedometer()
    setup_s, setup_scale, open_s = [], [], []
    t_min, t_max = workload.db.span
    probe = (t_min + 0.25 * (t_max - t_min), t_min + 0.75 * (t_max - t_min), 10)

    async def timed_setup(fresh: bool):
        """Data (or snapshot directory) handed over -> first answer."""
        if fresh:
            workload.refresh()
        gc.collect()
        before = speed.start()
        start = clock()
        built = workload.setup()
        coordinator = ServingCoordinator(built.backend)
        await coordinator.start()
        await coordinator.top_k(*probe)
        setup_s.append(clock() - start)
        await coordinator.stop()
        setup_scale.append(speed.finish(before)[0])
        open_s.append(built.open_s)
        return built

    service = None
    for rep in range(SETUPS_AT_START):
        # Only one service is alive at a time: the peak memory is one
        # engine's, not two.
        service = None
        service = await timed_setup(fresh=rep > 0)
    workload.bind(service)
    rng = np.random.default_rng([workload.seed, 1])
    rates = workload.rates

    async def phase(name, rate, duration, hook=None, check=True):
        scheduled = poisson_schedule(rng, rate, duration)
        keys = workload.keys(rng, scheduled)
        writer = workload.writer(duration, service)
        coordinator = ServingCoordinator(service.backend)
        if hook is not None:
            hook(coordinator)
        await coordinator.start()
        reads = io_reads(service.target)
        gc.collect()
        before = speed.start()
        result = await run_phase(
            coordinator,
            name,
            keys,
            scheduled,
            duration,
            warm=min(WARM_MAX_S, WARM_SHARE * duration),
            epoch=lambda: int(service.backend.epoch),
            writer=writer,
        )
        await coordinator.stop()
        result.running = speed.finish(before)[1]
        result.rate = rate
        result.io_reads = io_reads(service.target) - reads
        _progress(workload, result)
        return finish(result) if check else result

    async def saturate(name, duration):
        # Enough keys that no client runs out before the window ends,
        # spread over the window as if sent evenly.
        count = int(PEAK_KEYS_PER_S * duration)
        keys = workload.keys(rng, np.linspace(0.0, duration, count, endpoint=False))
        writer = workload.writer(duration, service)
        gc.collect()
        coordinator = ServingCoordinator(service.backend)
        await coordinator.start()
        result = await run_saturated(
            coordinator, name, keys, PEAK_CONCURRENCY, duration,
            warm=min(WARM_MAX_S, WARM_SHARE * duration),
            epoch=lambda: int(service.backend.epoch),
            writer=writer,
        )
        await coordinator.stop()
        _progress(workload, result)
        return finish(result)

    checks: list = []
    broken: List[str] = []

    def finish(result: PhaseResult) -> PhaseResult:
        try:
            checks.append(workload.check(result))
        except Exception:  # the check itself broke: report, do not hide
            import traceback

            traceback.print_exc()
            broken.append(result.name)
        result.answers = None
        gc.collect()
        return result

    phases: List[PhaseResult] = []
    ladder: List[dict] = []
    trace = None
    if not traced:
        peak_rss_mb = None
        for round_ in range(ROUNDS):
            if round_:
                await timed_setup(fresh=True)
            window = await phase(
                f"nominal-{round_}", rates.nominal, NOMINAL_SHARE * seconds / ROUNDS, check=False
            )
            if peak_rss_mb is None:
                peak_rss_mb = served_rss_mb()
            phases.append(finish(window))
        for window in range(PEAK_WINDOWS):
            phases.append(await saturate(f"peak-{window}", PEAK_WINDOW_SHARE * seconds))
        lo, hi = -1, len(rates.ladder)
        for _ in range(LADDER_PROBES):
            if hi - lo <= 1:
                break
            mid = (lo + hi) // 2
            rate = rates.ladder[mid]
            probe_phase = await phase(f"ladder-{rate:g}", rate, LADDER_PROBE_SHARE * seconds)
            phases.append(probe_phase)
            rung = ladder_verdict(probe_phase, rates.limit_ms)
            ladder.append(rung)
            if rung["pass"]:
                lo = mid
            else:
                hi = mid
    else:
        import tracing

        untraced = await phase(
            "nominal-untraced", rates.nominal, TRACE_BASELINE_SHARE * seconds, check=False
        )
        peak_rss_mb = served_rss_mb()
        phases.append(finish(untraced))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_phase = await phase(
                "nominal-traced",
                rates.nominal,
                (1.0 - TRACE_BASELINE_SHARE) * seconds,
                hook=tracer.hook_coordinator,
                check=False,
            )
        # Checked outside the tracer, so the oracle's own kernel calls
        # record no spans.
        phases.append(finish(traced_phase))
        trace = tracer
    index_mb = workload.index_bytes(service) / 1e6
    report = Report(
        workload=workload.name,
        seed=workload.seed,
        seconds=seconds,
        setup_s=setup_s,
        setup_scale=setup_scale,
        open_s=open_s,
        phases=phases,
        checks=checks,
        ladder=ladder,
        index_mb=index_mb,
        peak_rss_mb=peak_rss_mb,
        harness_ok=not broken,
        host_speed=speed.median_speed(),
        host_running=speed.median_running(),
    )
    if trace is not None:
        report.trace = trace.summarize(report, workload, service)
    return report


def served_rss_mb() -> float:
    """Peak resident memory so far: the interpreter, the generated
    input, one service and its first nominal window.  Read before any
    answer check builds the oracle copy of the database, and before any
    throwaway set-up, peak window or ladder probe."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _progress(workload, result) -> None:
    print(
        f"[{workload.name}] {result.name}: sent {result.sent}, failed {result.failed}, "
        f"p99 {result.quantile_ms(0.99):.1f} ms",
        file=sys.stderr,
        flush=True,
    )


def ladder_verdict(phase: PhaseResult, limit_ms: float) -> dict:
    """A rung passes when p99 meets the limit, nothing failed, and the
    backlog at the window's end is no more than the limit allows in
    flight at that rate (Little's law, with a factor of two)."""
    p99 = phase.quantile_ms(0.99)
    allowed = max(10, int(2 * phase.rate * limit_ms / 1e3))
    ok = p99 <= limit_ms and phase.failed == 0 and phase.outstanding_at_end <= allowed
    return {"rate": phase.rate, "p99_ms": p99, "backlog": phase.outstanding_at_end, "pass": bool(ok)}
