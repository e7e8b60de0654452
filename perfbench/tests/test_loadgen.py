"""Open-loop latency is timed from each request's due time."""

import threading
import time

from spans import SpanRecorder
from workloads import Outcome, ServeWorkload


class _StallingClient:
    """Answers at once, except the first request, which stalls."""

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.calls = 0
        self.lock = threading.Lock()

    def price(self, request):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            time.sleep(self.stall_s)
        return request


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    workload = ServeWorkload()
    workload.clients = [_StallingClient(stall_s=0.2)]
    workload.request = lambda index: index
    workload.results = {}
    workload.finished = {}
    start = time.perf_counter() + 0.02
    interval = 0.01
    latencies = workload._phase(
        Outcome(), SpanRecorder(), range(6),
        lambda index: start + index * interval, None)
    assert sorted(latencies) == list(range(6))
    # Request 1 was due 10 ms after request 0 but could only be sent
    # once the 200 ms stall ended: its latency counts that wait.
    for index in range(1, 6):
        expected_wait = 0.2 - index * interval
        assert latencies[index] >= expected_wait - 0.005
    assert latencies[0] >= 0.2


def test_closed_loop_times_from_send():
    workload = ServeWorkload()
    workload.clients = [_StallingClient(stall_s=0.1)]
    workload.request = lambda index: index
    workload.results = {}
    workload.finished = {}
    latencies = workload._phase(
        Outcome(), SpanRecorder(), range(4), lambda index: None,
        time.perf_counter() + 5.0)
    assert latencies[0] >= 0.1
    assert max(latencies[index] for index in range(1, 4)) < 0.05
