"""The benchmark's three closed-loop workloads.

Each workload is driven by one client in one thread through public
entry points, and derives every per-call seed and its op sequence
from the benchmark seed.  A workload object is built with
``setup()`` (construction and warm-up: what ``setup_s`` times), then
``prepare()`` allocates the client's bookkeeping, and each
``measure(seconds)`` call runs one timed window.  All client
bookkeeping lives in preallocated numpy arrays, so the client adds no
per-op Python objects and no garbage-collector load of its own.

Outputs are checked as they arrive; an op that fails a check, or is
shed, dropped or never acknowledged, counts as failed.

Every timed unit (a call, or a run of service flushes) is followed by a
:class:`HostProbe` sample, and its times are scaled to reference host
speed; see the class.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import repro
from repro.experiments.exp_replication import heavy_gap_envelope
from repro.service import AllocatorService

_perf = time.perf_counter


def _numpy_job():
    data = np.random.default_rng(12345).random(1 << 16)
    keys = (data * 1000).astype(np.int64)

    def job() -> None:
        np.sort(data)
        np.cumsum(data)
        np.bincount(keys)

    return job


def _python_job():
    keys = list(range(20_000))

    def job() -> None:
        table = {}
        for key in keys:
            table[key] = key
        total = 0
        for key in keys:
            total += table[key]

    return job


class HostProbe:
    """A fixed job, timed between units of timed work.

    The shared host this benchmark was written on changes speed by up to
    half, for seconds to minutes at a time, and the program slows with
    it.  Each timed unit is therefore multiplied by
    ``(reference_s / p) ** sensitivity``, where ``p`` is the probe time
    around the unit, so that the wall-time metrics read as on a host
    whose probe takes ``reference_s``.  ``sensitivity`` is how strongly
    the workload follows the probe: the slope of log unit time against
    log probe time.  A change in the program moves the unit's time but
    not the probe's, and shows in full.

    Two jobs: ``numpy`` (sort, cumulative sum and bincount of 2^16
    doubles) for the numpy-bound workloads, and ``python`` (20,000 dict
    stores and loads) for the interpreted one.
    """

    #: Kind -> (job factory, median sample on the reference host in s).
    kinds = {
        "numpy": (_numpy_job, 0.90e-3),
        "python": (_python_job, 2.0e-3),
    }
    #: Repetitions per sample; a sample is their median.
    reps = 7

    def __init__(self, kind: str) -> None:
        make, self.reference_s = self.kinds[kind]
        self.job = make()
        self.samples: list[float] = []

    def sample(self) -> float:
        job, times = self.job, []
        for _ in range(self.reps):
            start = _perf()
            job()
            times.append(_perf() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def factor(self, probe_s: float, sensitivity: float) -> float:
        return (self.reference_s / probe_s) ** sensitivity

    def scale(self, sensitivity: float) -> float:
        """Takes a sample and returns the factor for the unit timed since
        the previous one."""
        before = self.samples[-1]
        return self.factor(0.5 * (before + self.sample()), sensitivity)

    def ms(self) -> float:
        return statistics.median(self.samples) * 1e3


class Window:
    """Outcome of one or more timed windows of one workload."""

    def __init__(self) -> None:
        #: Seconds in timed units, as measured and at reference speed.
        self.wall = 0.0
        self.scaled = 0.0
        self.attempted = 0
        self.ok = 0
        self.ops = 0
        self.gap_sum = 0.0
        self.gap_n = 0
        self.rounds_sum = 0
        self.rounds_n = 0
        self.messages = 0
        self.placed = 0

    def protocol(self) -> dict:
        return {
            "gap_mean": self.gap_sum / max(self.gap_n, 1),
            "msgs_per_ball": self.messages / max(self.placed, 1),
            "rounds_mean": self.rounds_sum / max(self.rounds_n, 1),
        }


def tail_percentile(groups: int) -> tuple[float, int]:
    """The highest percentile with at least ten independent samples
    beyond it, as ``(percentile, samples_beyond)``.

    ``groups`` is the number of independent samples: calls, or flushes
    when ops share an acknowledgement.  With fewer than twenty there is
    no tail above the median, and the maximum is reported instead.
    """
    if groups < 20:
        return 100.0, 0
    return 100.0 * (1.0 - 10.0 / groups), 10


class LatencyHistogram:
    """Counts of latencies in log-spaced bins, 200 to a decade from
    1 us up.  A bin is 1.2% wide, and a percentile interpolated within
    its bin is read to better than that."""

    low, per_decade, bins = 1e-6, 200, 200 * 9

    def __init__(self) -> None:
        self.counts = np.zeros(self.bins, dtype=np.int64)

    def add(self, seconds: np.ndarray) -> None:
        index = np.log10(np.maximum(seconds, self.low) / self.low)
        index = np.minimum(index * self.per_decade, self.bins - 1)
        self.counts += np.bincount(index.astype(np.int64), minlength=self.bins)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, for ``0 < q <= 100``."""
        cum = np.cumsum(self.counts)
        rank = q / 100.0 * cum[-1]
        b = int(np.searchsorted(cum, rank))
        inside = (rank - (cum[b] - self.counts[b])) / max(self.counts[b], 1)
        return self.low * 10.0 ** ((b + inside) / self.per_decade)


class _Calls:
    """A workload whose unit is one blocking library call."""

    #: More calls than any window of at most a minute can make.
    max_calls = 20_000
    #: Whether each call is scaled by the probes around it, or every
    #: call of a window by the median probe of the window.
    scale_per_call = True

    def __init__(self, seed: int, backend=None) -> None:
        rng = np.random.default_rng([seed, self.tag])
        self.seeds = rng.integers(2**62, size=self.max_calls + 1)
        self.backend = backend
        #: Per-call latency at reference speed, and as measured.
        self.latency = np.zeros(self.max_calls)
        self.raw_latency = np.zeros(self.max_calls)
        self.done = 0

    def prepare(self, seconds: float) -> None:
        """Client bookkeeping is preallocated in ``__init__``."""

    def measure(
        self, seconds: float, window: Window, probe: HostProbe, tracer=None
    ) -> None:
        start = _perf()
        first, probes = self.done, len(probe.samples) - 1
        wall = scaled = 0.0
        while self.done < self.max_calls:
            seed = int(self.seeds[1 + self.done])
            t0 = _perf()
            out = self.call(seed)
            t1 = _perf()
            window.ok += self.check(out, window)
            t2 = _perf()
            factor = probe.scale(self.host_sensitivity)
            self.raw_latency[self.done] = t1 - t0
            self.latency[self.done] = (t1 - t0) * factor
            self.done += 1
            window.attempted += 1
            wall += t2 - t0
            scaled += (t2 - t0) * factor
            elapsed = _perf() - start
            # Stop when the next call would probably end past the window.
            if elapsed * (self.done - first + 1) > seconds * (
                self.done - first
            ):
                break
        if not self.scale_per_call:
            factor = probe.factor(
                statistics.median(probe.samples[probes:]),
                self.host_sensitivity,
            )
            calls = slice(first, self.done)
            self.latency[calls] = self.raw_latency[calls] * factor
            scaled = wall * factor
        window.wall += wall
        window.scaled += scaled

    def latency_ms(self, q: float, raw: bool = False) -> float:
        latency = self.raw_latency if raw else self.latency
        return float(np.percentile(latency[: self.done], q)) * 1e3

    def latency_groups(self) -> int:
        return self.done

    def bytes_per_op(self) -> float:
        return 0.0


class Oneshot(_Calls):
    """``allocate("heavy", m=1e6, n=1e3, mode="perball")``, repeated."""

    tag = 1
    dominant = "fastpath"
    # Over 30 runs, log run time against log probe time had slope 0.55
    # (median latency) to 0.61 (throughput): numpy-bound, the calls slow
    # less than the probe does.
    probe_kind = "numpy"
    host_sensitivity = 0.6
    m, n = 1_000_000, 1_000

    def __init__(self, seed: int, backend=None) -> None:
        super().__init__(seed, backend)
        self.envelope = heavy_gap_envelope(self.n)

    def setup(self) -> None:
        self.call(int(self.seeds[0]))

    def call(self, seed: int):
        return repro.allocate(
            "heavy",
            m=self.m,
            n=self.n,
            mode="perball",
            seed=seed,
            backend=self.backend,
        )

    def check(self, result, window: Window) -> bool:
        placed = int(result.loads.sum())
        gap = result.max_load - placed / self.n
        window.ops += placed
        window.placed += placed
        window.messages += result.total_messages
        window.gap_sum += gap
        window.gap_n += 1
        window.rounds_sum += result.rounds
        window.rounds_n += 1
        return (
            result.complete
            and result.unallocated == 0
            and placed == self.m
            and gap <= self.envelope
        )


class Churn(_Calls):
    """``run_dynamic("heavy", m=1e5, n=1e4, churn=0.1, epochs=64)``
    with uniform departures, in the adapter's default mode, repeated."""

    tag = 2
    dominant = "dynamic.depart"
    # A call takes about 5 s, longer than the host holds one speed, and
    # the two probes around one call do not follow it: over 38 calls,
    # scaling each by them raised the spread of call times from 3.8% to
    # 7.0%.  The median probe of a whole window does follow the host,
    # with slope 0.68 (throughput) to 0.70 (median latency) over 30 runs.
    scale_per_call = False
    probe_kind = "numpy"
    host_sensitivity = 0.6
    m, n, epochs = 100_000, 10_000, 64

    def setup(self) -> None:
        # Two epochs exercise every code path of the full call.
        self.call(int(self.seeds[0]), epochs=2)

    def call(self, seed: int, epochs: int = epochs):
        return repro.run_dynamic(
            "heavy",
            m=self.m,
            n=self.n,
            churn=0.1,
            epochs=epochs,
            departures="uniform",
            seed=seed,
            backend=self.backend,
        )

    def check(self, result, window: Window) -> bool:
        records = result.records
        window.ops += sum(r.arrivals + r.departures for r in records)
        window.placed += sum(r.placed for r in records)
        window.messages += result.total_messages
        window.gap_sum += float(result.gaps.sum())
        window.gap_n += len(records)
        window.rounds_sum += int(result.rounds.sum())
        window.rounds_n += len(records)
        return all(
            r.unplaced == 0 and r.population == self.m for r in records
        )


class Service:
    """One ``AllocatorService`` on wall time, fed a seeded 50/50 mix of
    ``place(1)`` and ``release(1)`` after a bulk fill.

    The service keeps an audit record of every op for its whole life,
    so a single instance grows without bound.  To keep runs stationary
    and their peak memory independent of throughput, the timed loop is
    split into sessions of a fixed op count; each session is a fresh,
    freshly filled service, built outside the timed windows.  The
    client's per-op latencies live in one session-sized buffer that is
    folded into a fixed log-spaced histogram at the end of each
    session, so the client's memory does not grow with the run either.
    """

    dominant = "service ingest + flush"
    n, max_batch, fill = 1_000, 4_096, 100_000
    session_ops = 32 * max_batch
    #: Seconds of flushes between two host probes.
    chunk_s = 0.25
    # Interpreted per-op code follows the interpreted probe: over 550
    # chunks, log chunk time against log probe time, both averaged over
    # 20 chunks, had slope 0.94 (1.64 against the numpy probe).
    probe_kind = "python"
    host_sensitivity = 1.0

    def __init__(self, seed: int, backend=None) -> None:
        self.seed = seed
        self.backend = backend
        self.sessions = 0
        self.svc = None
        self.flushes = 0
        self.rss_growth = 0
        self.rss_ops = 0
        self.hist = LatencyHistogram()
        self.raw_hist = LatencyHistogram()

    # -- sessions -------------------------------------------------------

    def _open(self) -> None:
        rng = np.random.default_rng([self.seed, 3, self.sessions])
        self.sessions += 1
        svc = AllocatorService(
            "heavy",
            n=self.n,
            max_batch=self.max_batch,
            departures="fifo",
            seed=int(rng.integers(2**62)),
            backend=self.backend,
        )
        warm = rng.random(self.max_batch) < 0.5
        ops = rng.random(self.session_ops) < 0.5
        svc.place(self.fill)
        for is_place in warm.tolist():
            svc.place(1) if is_place else svc.release(1)
        if len(svc.records) != 2 or svc.queue.pending:
            raise RuntimeError("service warm-up did not end on a flush")
        self.svc = svc
        self.kinds = ops.tolist()
        self.pos = self.done = 0
        self.expected = (
            self.fill + 2 * int(warm.sum()) - self.max_batch
        )
        self.acked = self.bad = 0
        self.rss_start = _rss_bytes()

    def _close(self, window: Window) -> None:
        """End-of-session checks; a session that fails them fails all
        its ops."""
        svc = self.svc
        expected = self.expected + 2 * sum(self.kinds[: self.pos]) - self.pos
        stats = svc.stats()
        good = (
            stats.complete
            and stats.shed == 0
            and stats.deferred == 0
            and stats.dropped_releases == 0
            and stats.queue_pending == 0
            and svc.population == expected
        )
        if good:
            window.ok += max(self.acked - self.bad, 0)
        self.hist.add(self.latency[: self.done])
        self.raw_hist.add(self.raw_latency[: self.done])
        self.rss_growth += _rss_bytes() - self.rss_start
        self.rss_ops += self.pos
        self.svc = None

    # -- workload protocol ----------------------------------------------

    def setup(self) -> None:
        self._open()

    def prepare(self, seconds: float) -> None:
        # Filled now, so their pages are resident before peak memory is
        # reset; all are the same size at any run length.
        self.latency = np.full(self.session_ops, np.nan)
        self.raw_latency = np.full(self.session_ops, np.nan)
        self.t_sub = np.zeros(self.session_ops)
        self.rss_start = _rss_bytes()

    def measure(
        self, seconds: float, window: Window, probe: HostProbe, tracer=None
    ) -> None:
        untimed = tracer.untraced if tracer is not None else _call
        wall = 0.0
        while wall < seconds:
            if self.svc is None:
                untimed(self._open)
            # A chunk ends at the end of the session or at the first flush
            # past its budget, so no op is pending while the probe runs.
            head = self.done
            spent = self._run(min(self.chunk_s, seconds - wall), window)
            factor = probe.scale(self.host_sensitivity)
            self.raw_latency[head : self.done] = self.latency[head : self.done]
            self.latency[head : self.done] *= factor
            wall += spent
            window.wall += spent
            window.scaled += spent * factor
            if self.pos == len(self.kinds) or wall >= seconds:
                untimed(self._close, window)

    def _run(self, budget: float, window: Window) -> float:
        """Submit the open session's ops until its end or the first
        flush after ``budget`` seconds; returns the seconds spent."""
        svc = self.svc
        place, release, records = svc.place, svc.release, svc.records
        kinds, t_sub, latency = self.kinds, self.t_sub, self.latency
        flushed = len(records)
        head = i = self.pos
        end = len(kinds)
        acked = bad = 0
        start = _perf()
        stop = start + budget
        while i < end:
            t = _perf()
            t_sub[i] = t
            if (place if kinds[i] else release)(1) != "accept":
                bad += 1
            i += 1
            if len(records) != flushed:
                ack = _perf()
                done = self.done
                latency[done : done + i - head] = ack - t_sub[head:i]
                self.done = done + i - head
                record = records[-1]
                if record.events != i - head:
                    bad += i - head
                window.gap_sum += record.gap
                window.gap_n += 1
                window.rounds_sum += record.rounds
                window.rounds_n += 1
                window.messages += record.messages
                window.placed += record.placed
                self.flushes += 1
                acked += i - head
                flushed = len(records)
                head = i
                if ack >= stop:
                    break
        spent = _perf() - start
        # Ops submitted after the last flush were never acknowledged.
        window.attempted += i - self.pos
        window.ops += acked
        self.acked += acked
        self.bad += bad
        self.pos = i
        return spent

    def latency_ms(self, q: float, raw: bool = False) -> float:
        return (self.raw_hist if raw else self.hist).percentile(q) * 1e3

    def latency_groups(self) -> int:
        return self.flushes

    def bytes_per_op(self) -> float:
        return self.rss_growth / max(self.rss_ops, 1)


def _call(fn, *args):
    return fn(*args)


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


WORKLOADS = {"oneshot": Oneshot, "churn": Churn, "service": Service}
