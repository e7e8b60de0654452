"""The three workloads: inputs, set-up, timed phases and output checks.

Each workload drives the program from outside through its public
functions and keeps what it needs to check the outputs afterwards.
Timed phases never call the oracle; checks run after the clock stops.

* ``batch-book`` — a book of three seeded American-put batches priced
  one after another through the ``repro.price`` façade at N=1024: the
  README's call ``price(batch, steps=1024, kernel=K, workers=2)`` for
  IV.B and IV.A, and the façade defaults (reference kernel, shared
  engine) for the third (closed loop, one caller).
* ``serve-mixed`` — cache-cold 8-option, 128-step requests over four
  double-precision kernel/lattice variants to a one-shard server over
  two kept-alive connections: an open-loop phase at a fixed rate, then
  a closed-loop capacity phase.
* ``stream-risk`` — a ``StreamRunner`` over 256 American-put positions
  at N=256 with the ``StreamConfig`` defaults on an in-process
  ``PricingService``: a paced phase, then an unpaced capacity phase.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import oracle
from stats import summarize
from spans import SpanRecorder, self_times

__all__ = ["WORKLOADS", "Outcome", "make_workload",
           "require_compiled_backend"]

BATCH_STEPS = 1024
#: The book's routes: kernel, façade keywords, options per batch.  The
#: reference batch is small because that route prices ~100 options/s.
BOOK_ROUTES = (("iv_b", {"kernel": "iv_b", "workers": 2}, 128),
               ("iv_a", {"kernel": "iv_a", "workers": 2}, 128),
               ("reference", {}, 4))
#: Distinct books cycled through.
BOOK_POOL = 8
#: Books below which a run keeps going past its time budget, so that
#: the report's p90 tail always has ten samples beyond it.
BOOK_MIN_OPS = 100
BATCH_SAMPLES_PER_CALL = 4

SERVE_OPTIONS = 8
SERVE_STEPS = 128
SERVE_VARIANTS = (("iv_b", "crr"), ("iv_a", "crr"), ("iv_a", "jarrow-rudd"),
                  ("iv_a", "tian"))
#: Open-loop arrival rate: a sixth of the ~300 req/s two connections
#: sustain on a 2-vCPU host, so that a spell in which the host runs at
#: half speed does not push the open loop into queueing.
SERVE_RATE = 50.0
SERVE_CONNECTIONS = 2
#: A request still unanswered after this long counts as failed.
SERVE_TIMEOUT_S = 30.0
#: Upper bound on closed-loop capacity, used only to size the inputs.
SERVE_MAX_RATE = 600.0

STREAM_POSITIONS = 256
STREAM_STEPS = 256
#: Paced tick rate: about a third of the unpaced capacity.
STREAM_RATE = 500.0
STREAM_MAX_RATE = 4000.0
STREAM_GREEK_SAMPLES = 64

#: Share of the time budget given to the latency phase; the capacity
#: phase gets the rest.
LATENCY_SHARE = 2.0 / 3.0
#: Width of the windows a closed-loop capacity phase is cut into.
RATE_WINDOW_S = 0.5
#: Width of the due-time windows a paced phase's latency is cut into.
LATENCY_WINDOW_S = 4.0


class Outcome:
    """What one run measured and found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.problems: "list[str]" = []
        #: timing samples (seconds) by name
        self.samples: "dict[str, list[float]]" = {}
        #: end-to-end metrics: name -> (value, unit)
        self.end_to_end: "dict[str, tuple]" = {}
        #: per-layer metrics measured by the workload itself
        self.layer: "dict[str, tuple]" = {}
        #: op durations split by whether the op was traced
        self.op_seconds = {True: [], False: []}
        self.options_priced = 0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _latency_metrics(out: Outcome, samples, windows=None) -> None:
    """Median latency; the report adds the highest supported tail.

    For a paced phase, ``windows`` gives each sample's window of due
    time, and the figure is the median over the windows' medians: a
    spell in which the host runs slow moves it only if the spell covers
    half the phase.
    """
    out.samples["latency"] = list(samples)
    samples = np.asarray(samples, dtype=np.float64)
    windows = (np.zeros(len(samples), dtype=int) if windows is None
               else np.asarray(windows))
    out.end_to_end["latency_p50_ms"] = (float(np.median(
        [np.median(samples[windows == w]) for w in np.unique(windows)]))
        * 1e3, "ms")


def _median_rate(amounts, seconds) -> float:
    """Median of per-window rates: steadier than one overall ratio."""
    return float(np.median(np.asarray(amounts, float)
                           / np.asarray(seconds, float)))


def _sleep_until(deadline: float) -> "float | None":
    """Sleep to ``deadline``; returns how late we woke, None if overdue."""
    now = time.perf_counter()
    if now >= deadline:
        return None
    time.sleep(deadline - now)
    return time.perf_counter() - deadline


def require_compiled_backend() -> str:
    from repro.backends import resolve_backend

    name = resolve_backend("auto").name
    if name != "cnative":
        raise SystemExit(
            f"error: the 'auto' backend resolved to {name!r}, not the "
            f"compiled 'cnative' backend; refusing to measure (needs a C "
            f"compiler on PATH and REPRO_BACKEND unset)")
    return name


# ---------------------------------------------------------------------------
# batch


class BookWorkload:
    """A book of three batches, one per route of the ``repro.price`` façade.

    One operation prices the whole book: the IV.B batch, the IV.A batch
    and the reference batch, in that order.
    """

    name = "batch-book"

    def make_load(self, seed: int, seconds: float) -> None:
        import repro

        rng = np.random.default_rng(seed)
        self.books, self.sampled = [], []
        for book in range(BOOK_POOL):
            batches, picks = [], []
            for route, (_kernel, _kwargs, size) in enumerate(BOOK_ROUTES):
                batches.append(repro.generate_batch(
                    n_options=size,
                    seed=seed * 1009 + book * len(BOOK_ROUTES) + route
                ).options)
                picks.append(np.sort(rng.choice(
                    size, min(size, BATCH_SAMPLES_PER_CALL), replace=False)))
            self.books.append(batches)
            self.sampled.append(picks)

    def setup(self, seed: int) -> None:
        import repro

        self.backend = require_compiled_backend()
        warm = repro.generate_batch(n_options=2, seed=1).options
        for _kernel, kwargs, _size in BOOK_ROUTES:
            repro.price(warm, steps=BATCH_STEPS, **kwargs)

    def _price_book(self, out: Outcome, recorder, op: int):
        import repro

        results = []
        with recorder.span("book", request_id=op) as parent:
            for (kernel, kwargs, _size), batch in zip(
                    BOOK_ROUTES, self.books[op % BOOK_POOL]):
                begin = time.perf_counter()
                with recorder.span("api.price", parent, op):
                    result = repro.price(batch, steps=BATCH_STEPS, **kwargs)
                elapsed = time.perf_counter() - begin
                stats = result.stats
                out.sample(f"route.{kernel}", elapsed)
                out.sample(f"engine.run.{kernel}", stats.wall_time_s)
                if kwargs:
                    out.sample("facade.overhead", elapsed - stats.wall_time_s)
                    self.chunks.append(stats.chunks)
                results.append(np.asarray(result.prices))
        return results

    def run(self, out: Outcome, seconds: float, recorder) -> None:
        self.results: "list[tuple[int, list]]" = []
        self.chunks: "list[int]" = []
        latencies, ends = [], []
        started = time.perf_counter()
        deadline = started + seconds
        previous_end = started
        op = options = 0
        while time.perf_counter() < deadline or op < BOOK_MIN_OPS:
            traced = recorder.trace_op(op)
            begin = time.perf_counter()
            out.sample("loadgen.late", begin - previous_end)
            out.attempted += 1
            try:
                prices = self._price_book(out, recorder, op)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                out.fail(exc)
            else:
                end = time.perf_counter()
                latencies.append(end - begin)
                out.op_seconds[traced].append(end - begin)
                options += sum(len(batch) for batch in prices)
                ends.append((end, options))
                self.results.append((op % BOOK_POOL, prices))
            previous_end = time.perf_counter()
            op += 1
        out.options_priced = options
        # one window per pass over the pool of books
        marks = [(started, 0)] + ends[BOOK_POOL - 1::BOOK_POOL]
        out.end_to_end["options_per_s"] = (_median_rate(
            [b[1] - a[1] for a, b in zip(marks, marks[1:])],
            [b[0] - a[0] for a, b in zip(marks, marks[1:])]), "1/s")
        _latency_metrics(out, latencies)
        for kernel, _kwargs, _size in BOOK_ROUTES:
            out.layer[f"engine.run_ms_p50.{kernel}"] = (
                summarize(out.samples[f"engine.run.{kernel}"])["p50"] * 1e3,
                "ms")
        out.layer["engine.chunks_per_call"] = (float(np.mean(self.chunks)),
                                               "count")
        out.layer["api.facade_overhead_ms"] = (
            summarize(out.samples["facade.overhead"])["p50"] * 1e3, "ms")

    def layer_from_spans(self, spans) -> dict:
        """Per-layer figures read off a traced run's spans: none here."""
        return {}

    def check(self, out: Outcome) -> None:
        cols = [[oracle.option_columns(batch) for batch in book]
                for book in self.books]
        picked = [book[route][i]
                  for book, picks in zip(self.books, self.sampled)
                  for route, chosen in enumerate(picks) for i in chosen]
        want = iter(oracle.lattice_price(oracle.option_columns(picked),
                                         BATCH_STEPS))
        expected = [[np.array([next(want) for _ in chosen])
                     for chosen in picks] for picks in self.sampled]
        for slot, prices in self.results:
            for route, batch_prices in enumerate(prices):
                out.problems += checks.check_put_bounds(batch_prices,
                                                        cols[slot][route])
                out.problems += checks.check_prices(
                    batch_prices[self.sampled[slot][route]],
                    expected[slot][route],
                    f"{BOOK_ROUTES[route][0]} sampled price")

    def close(self) -> None:
        import repro

        repro.close_shared_engines()


# ---------------------------------------------------------------------------
# serve


class ServerProcess:
    """``python -m repro serve --shards 1`` in a process of its own.

    The server runs apart from the load generator, as it would be
    deployed, so the clients' threads never hold its interpreter lock.
    """

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", "1"],
            stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"http://([^:/]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class ServeWorkload:
    """Cache-cold mixed-variant requests to a one-shard ``repro serve``."""

    name = "serve-mixed"

    def make_load(self, seed: int, seconds: float) -> None:
        import repro

        self.open_count = int(round(SERVE_RATE * seconds * LATENCY_SHARE))
        self.closed_seconds = seconds * (1.0 - LATENCY_SHARE)
        total = self.open_count + int(SERVE_MAX_RATE * self.closed_seconds)
        options = repro.generate_batch(n_options=SERVE_OPTIONS * total,
                                       seed=seed).options
        self.inputs = [options[i * SERVE_OPTIONS:(i + 1) * SERVE_OPTIONS]
                       for i in range(total)]
        self.sampled = np.random.default_rng(seed).integers(
            0, SERVE_OPTIONS, total)

    def request(self, index: int):
        from repro.api import PricingRequest

        kernel, family = SERVE_VARIANTS[index % len(SERVE_VARIANTS)]
        return PricingRequest(options=self.inputs[index], steps=SERVE_STEPS,
                              kernel=kernel, family=family)

    def setup(self, seed: int) -> None:
        import repro
        from repro.api import PricingRequest
        from repro.serve import ServeClient

        self.backend = require_compiled_backend()
        self.server = ServerProcess()
        self.clients = [ServeClient(self.server.host, self.server.port,
                                    timeout_s=SERVE_TIMEOUT_S)
                        for _ in range(SERVE_CONNECTIONS)]
        warm = repro.generate_batch(n_options=SERVE_OPTIONS * 8,
                                    seed=1).options
        for index, (kernel, family) in enumerate(SERVE_VARIANTS * 2):
            client = self.clients[index % SERVE_CONNECTIONS]
            first = index * SERVE_OPTIONS
            client.price(PricingRequest(
                options=warm[first:first + SERVE_OPTIONS],
                steps=SERVE_STEPS, kernel=kernel, family=family))

    def _phase(self, out: Outcome, recorder, indices, due_of, stop_at):
        """Two connections drain ``indices``; returns ``{index: latency}``."""
        lock = threading.Lock()
        queue = iter(indices)
        latencies: "dict[int, float]" = {}

        def worker(client) -> None:
            while True:
                with lock:
                    index = next(queue, None)
                if index is None:
                    return
                due = due_of(index)
                if due is not None:
                    late = _sleep_until(due)
                    if late is not None:
                        out.sample("loadgen.late", late)
                elif time.perf_counter() >= stop_at:
                    return
                begin = time.perf_counter()
                traced = recorder.trace_op(index)
                with lock:
                    out.attempted += 1
                try:
                    with recorder.span("op", request_id=index) as op:
                        with recorder.span("api.request", op, index):
                            request = self.request(index)
                        with recorder.span("serve.client.price", op, index):
                            result = client.price(request)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    with lock:
                        out.fail(exc)
                    continue
                end = time.perf_counter()
                with lock:
                    latencies[index] = end - (begin if due is None else due)
                    out.op_seconds[traced].append(end - begin)
                    self.results[index] = result
                    self.finished[index] = end

        threads = [threading.Thread(target=worker, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return latencies

    def run(self, out: Outcome, seconds: float, recorder) -> None:
        self.results: "dict[int, object]" = {}
        self.finished: "dict[int, float]" = {}
        start = time.perf_counter() + 0.05
        open_latency = self._phase(
            out, recorder, range(self.open_count),
            lambda index: start + index / SERVE_RATE, None)
        done = sorted(open_latency)
        _latency_metrics(
            out, [open_latency[index] for index in done],
            [int(index / SERVE_RATE / LATENCY_WINDOW_S) for index in done])

        closed_start = time.perf_counter()
        stop_at = closed_start + self.closed_seconds
        closed = self._phase(out, recorder,
                             range(self.open_count, len(self.inputs)),
                             lambda index: None, stop_at)
        if self.open_count + len(closed) >= len(self.inputs):
            raise RuntimeError("closed-loop phase ran out of distinct inputs")
        out.options_priced = SERVE_OPTIONS * (len(open_latency) + len(closed))
        windows = max(1, int(self.closed_seconds / RATE_WINDOW_S))
        counts = np.histogram(
            [self.finished[index] - closed_start for index in closed],
            bins=windows, range=(0.0, windows * RATE_WINDOW_S))[0]
        out.end_to_end["options_per_s"] = (_median_rate(
            SERVE_OPTIONS * counts, np.full(windows, RATE_WINDOW_S)), "1/s")
        shard = self.clients[0].stats()["shards"][0]
        service_layer(out, shard)

    def layer_from_spans(self, spans) -> dict:
        """Request build time, from the traced requests' spans."""
        build = [end - start for _id, name, start, end, _p, _r in spans
                 if name == "api.request"]
        return {"api.request_build_us": (
            summarize(build)["p50"] * 1e6, "us")}

    def check(self, out: Outcome) -> None:
        by_family: "dict[str, list]" = {}
        for index, result in sorted(self.results.items()):
            if result.cache_hit:
                out.problems.append(f"request {index} hit the result cache")
            options = self.inputs[index]
            cols = oracle.option_columns(options)
            out.problems += checks.check_put_bounds(result.prices, cols)
            family = SERVE_VARIANTS[index % len(SERVE_VARIANTS)][1]
            pick = int(self.sampled[index])
            by_family.setdefault(family, []).append(
                (options[pick], float(result.prices[pick])))
        for family, pairs in by_family.items():
            want = oracle.lattice_price(
                oracle.option_columns([option for option, _ in pairs]),
                SERVE_STEPS, family)
            out.problems += checks.check_prices(
                [price for _, price in pairs], want,
                f"serve {family} sampled price")

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if getattr(self, "server", None) is not None:
            self.server.stop()


def service_layer(out: Outcome, stats: dict) -> None:
    """Service-layer figures from one ``ServiceStats`` snapshot."""
    flushes = int(stats["flushes"])
    out.layer["service.wait_ms_mean"] = (stats["mean_wait_s"] * 1e3, "ms")
    out.layer["service.options_per_flush"] = (
        float(stats["mean_flush_options"]), "count")
    out.layer["service.deadline_flush_share"] = (
        stats["flush_deadline"] / flushes if flushes else 0.0, "ratio")
    out.layer["service.flushes"] = (float(flushes), "count")


# ---------------------------------------------------------------------------
# stream


class _TimedFuture:
    def __init__(self, future, on_result):
        self._future = future
        self._on_result = on_result

    def result(self, timeout=None):
        value = self._future.result(timeout)
        self._on_result(value)
        return value


class PassThroughService:
    """Hands every revaluation to the real service and keeps a record.

    ``calls`` holds ``(request, result)`` per revaluation; with tracing
    on, each call is also a span under the revaluation span named by
    ``parent``.
    """

    def __init__(self, service, recorder):
        self.service = service
        self.recorder = recorder
        self.parent: "int | None" = None
        self.calls: "list[tuple]" = []

    def submit(self, request):
        submitted = time.perf_counter()
        parent = self.parent

        def done(result):
            self.calls.append((request, result))
            self.recorder.add("service.submit", submitted,
                              time.perf_counter(), parent)

        return _TimedFuture(self.service.submit(request), done)


class StreamWorkload:
    """A ticking 256-position American-put book revalued incrementally."""

    name = "stream-risk"

    def setup(self, seed: int) -> None:
        import repro
        from repro.service import PricingService
        from repro.stream import Position, PositionBook, StreamRunner

        self.backend = require_compiled_backend()
        options = repro.generate_batch(n_options=STREAM_POSITIONS,
                                       seed=seed).options
        rng = np.random.default_rng(seed + 1)
        quantity = rng.uniform(1.0, 10.0, STREAM_POSITIONS) * np.where(
            rng.random(STREAM_POSITIONS) < 0.25, -1.0, 1.0)
        self.book = PositionBook()
        for index, (option, qty) in enumerate(zip(options, quantity)):
            self.book.add(Position(f"pos-{index:04d}", option,
                                   quantity=float(qty), steps=STREAM_STEPS))
        self.service = PricingService()
        self.passthrough = PassThroughService(self.service, SpanRecorder())
        self.runner = StreamRunner(self.book, self.passthrough,
                                   on_aggregate=self._published)
        self._pending_due: "list[float]" = []
        self._latencies: "list[tuple[float, float]]" = []
        self.runner.revalue()

    def make_load(self, seed: int, seconds: float) -> None:
        from repro.stream import SyntheticTickSource

        self.paced_count = int(round(STREAM_RATE * seconds * LATENCY_SHARE))
        self.unpaced_seconds = seconds * (1.0 - LATENCY_SHARE)
        wanted = self.paced_count + int(STREAM_MAX_RATE * self.unpaced_seconds)
        initial = {p.instrument_id: (p.option.spot, p.option.volatility,
                                     p.option.rate)
                   for p in self.book.positions()}
        source = SyntheticTickSource(
            initial, seed=seed + 2, n_steps=wanted // STREAM_POSITIONS + 1)
        self.ticks = list(source)
        self.sampled_seed = seed + 3

    def _published(self, _update) -> None:
        now = time.perf_counter()
        self._latencies.extend((due, now - due) for due in self._pending_due)
        self._pending_due.clear()

    def _revalue(self, out: Outcome, recorder, op: int) -> None:
        traced = recorder.trace_op(op)
        begin = time.perf_counter()
        out.attempted += 1
        try:
            with recorder.span("stream.revalue", request_id=op) as span:
                self.passthrough.parent = span
                self.runner.revalue()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            out.fail(exc)
            return
        out.op_seconds[traced].append(time.perf_counter() - begin)

    def run(self, out: Outcome, seconds: float, recorder) -> None:
        start = self.paced(out, recorder)
        _latency_metrics(
            out, [latency for _due, latency in self._latencies],
            [int((due - start) / LATENCY_WINDOW_S)
             for due, _latency in self._latencies])
        recorder.enabled = False
        self.unpaced(out)
        service_layer(out, self.service.stats().as_dict())

    def paced(self, out: Outcome, recorder) -> float:
        """Ticks applied at a fixed rate; latency from each tick's due time.

        Returns the due time of the first tick.
        """
        self.passthrough.recorder = recorder
        self.passthrough.calls.clear()
        batch_ticks = self.runner.config.batch_ticks
        start = time.perf_counter() + 0.05
        pending = revals = 0
        for index in range(self.paced_count):
            due = start + index / STREAM_RATE
            late = _sleep_until(due)
            if late is not None:
                out.sample("loadgen.late", late)
            with recorder.span("stream.apply", request_id=index):
                state = self.runner.apply(self.ticks[index])
            if state != "suppressed":
                self._pending_due.append(due)
                pending += 1
            if pending >= batch_ticks:
                self._revalue(out, recorder, revals)
                revals += 1
                pending = 0
        self._revalue(out, recorder, revals)
        calls = self.passthrough.calls
        out.options_priced += sum(len(request) for request, _ in calls)
        out.layer["stream.instruments_per_reval"] = (
            float(np.mean([len(request) for request, _ in calls])), "count")
        return start

    def unpaced(self, out: Outcome) -> None:
        """Ticks as fast as the runner takes them: revaluation capacity."""
        stop_at = time.perf_counter() + self.unpaced_seconds
        cursor = self.paced_count
        repriced, seconds = [], []
        while time.perf_counter() < stop_at:
            chunk = self.ticks[cursor:cursor + STREAM_POSITIONS]
            if len(chunk) < STREAM_POSITIONS:
                raise RuntimeError("unpaced phase ran out of ticks")
            cursor += len(chunk)
            out.attempted += 1
            before = self.runner.stats().revaluations
            begin = time.perf_counter()
            try:
                self.runner.process(chunk)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                out.fail(exc)
                continue
            seconds.append(time.perf_counter() - begin)
            repriced.append(self.runner.stats().revaluations - before)
        out.options_priced += sum(repriced)
        # one window per chunk of one tick per position
        out.end_to_end["options_per_s"] = (_median_rate(repriced, seconds),
                                           "1/s")

    def layer_from_spans(self, spans) -> dict:
        """Service, book and tick-apply times from the traced revaluations."""
        times = self_times(spans)
        service = [end - start for _id, name, start, end, _p, _r in spans
                   if name == "service.submit"]
        service_p50 = (summarize(service)["p50"] * 1e3, "ms")
        revalue, apply = times["stream.revalue"], times["stream.apply"]
        return {
            "stream.service_ms_p50": service_p50,
            "service.latency_p50_ms": service_p50,
            "stream.book_ms_per_reval": (
                revalue["self_s"] / revalue["count"] * 1e3, "ms"),
            "stream.apply_us_per_tick": (
                apply["total_s"] / apply["count"] * 1e6, "us"),
        }

    def check(self, out: Outcome) -> None:
        rng = np.random.default_rng(self.sampled_seed)
        picked, got = [], {name: [] for name in ("prices",) + checks.GREEKS}
        for request, result in self.passthrough.calls:
            cols = oracle.option_columns(request.options)
            out.problems += checks.check_put_bounds(result.prices, cols)
            columns = {name: getattr(result, name) for name in checks.GREEKS}
            out.problems += checks.check_greek_signs(
                columns, checks.greek_tolerances(cols, STREAM_STEPS))
            pick = int(rng.integers(len(request.options)))
            picked.append(request.options[pick])
            got["prices"].append(float(result.prices[pick]))
            for name in checks.GREEKS:
                got[name].append(float(getattr(result, name)[pick]))
        cols = oracle.option_columns(picked)
        out.problems += checks.check_prices(
            got["prices"], oracle.lattice_price(cols, STREAM_STEPS),
            "stream sampled price")
        every = max(1, len(picked) // STREAM_GREEK_SAMPLES)
        few = slice(0, None, every)
        few_cols = oracle.option_columns(picked[few])
        out.problems += checks.check_greeks(
            {name: np.asarray(values)[few] for name, values in got.items()},
            oracle.lattice_greeks(few_cols, STREAM_STEPS),
            checks.greek_tolerances(few_cols, STREAM_STEPS))

        positions = self.book.positions()
        effective = [self.book.effective_option(p.instrument_id)
                     for p in positions]
        cols = oracle.option_columns(effective)
        out.problems += checks.check_aggregate(
            self.runner.published[-1].columns,
            oracle.lattice_greeks(cols, STREAM_STEPS),
            [p.quantity for p in positions],
            checks.greek_tolerances(cols, STREAM_STEPS))

    def close(self) -> None:
        if getattr(self, "service", None) is not None:
            self.service.close()


WORKLOADS = ("batch-book", "serve-mixed", "stream-risk")


def make_workload(name: str):
    if name == "batch-book":
        return BookWorkload()
    if name == "serve-mixed":
        return ServeWorkload()
    if name == "stream-risk":
        return StreamWorkload()
    raise ValueError(f"unknown workload {name!r}")
