"""End-to-end tests of the sharded serving tier, over real sockets.

Every test boots a :class:`~repro.serve.PricingServer` (forked shard
worker processes, asyncio front-end on an ephemeral localhost port)
and talks to it through :class:`~repro.serve.ServeClient` or a raw
socket — the full production path: wire codec, consistent-hash
routing, result transport over the shard pipe, deadline/priority/cancel
semantics, and supervised shard restart.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import PricingRequest
from repro.engine.faults import FaultKind, FaultPlan
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
)
from repro.finance import generate_batch
from repro.obs import keys
from repro.serve import PricingServer, ServeClient, ServeConfig
from repro.service import PricingService, ServiceConfig
from repro.service.health import HealthPolicy

STEPS = 32

# the benchmark's routed traffic mix doubles as the e2e fixture set
from repro.bench.service_bench import SERVE_TRAFFIC_VARIANTS  # noqa: E402


def request_mix(n_requests: int, options_per_request: int = 4,
                seed: int = 7, **overrides) -> "list[PricingRequest]":
    requests = []
    for index in range(n_requests):
        kernel, precision, family = SERVE_TRAFFIC_VARIANTS[
            index % len(SERVE_TRAFFIC_VARIANTS)]
        options = tuple(generate_batch(n_options=options_per_request,
                                       seed=seed + index).options)
        requests.append(PricingRequest(
            options=options, steps=STEPS, kernel=kernel,
            precision=precision, family=family, strict=False, **overrides))
    return requests


def wait_until(predicate, timeout_s: float = 20.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestPricingOverTheWire:
    @pytest.fixture(scope="class")
    def server(self):
        with PricingServer(ServeConfig(shards=2)) as server:
            yield server

    @pytest.fixture(scope="class")
    def client(self, server):
        with ServeClient(server.host, server.port) as client:
            yield client

    def test_price_request_round_trips(self, server, client, small_batch):
        request = PricingRequest(options=tuple(small_batch), steps=STEPS)
        result = client.price(request)
        with PricingService(ServiceConfig()) as oracle:
            expected = oracle.submit(request).result()
        np.testing.assert_array_equal(result.prices, expected.prices)

    def test_greeks_request_round_trips(self, server, client, small_batch):
        request = PricingRequest(options=tuple(small_batch), steps=STEPS,
                                 task="greeks")
        result = client.price(request)
        with PricingService(ServiceConfig()) as oracle:
            expected = oracle.submit(request).result()
        for column in ("prices", "delta", "gamma", "theta", "vega", "rho"):
            np.testing.assert_array_equal(getattr(result, column),
                                          getattr(expected, column))

    def test_routing_follows_the_ring(self, server, client, small_batch):
        request = PricingRequest(options=tuple(small_batch), steps=STEPS)
        shard = client.shard_of(request)
        assert shard == server._ring.route(request.batch_key)
        # same key -> same shard, every time
        assert client.shard_of(request) == shard

    def test_healthz_reports_every_shard(self, server, client):
        status, document = client.healthz()
        assert status == 200
        assert document["state"] in ("healthy", "degraded")
        assert len(document["shards"]) == 2

    def test_stats_document_schema(self, server, client, small_batch):
        client.price(PricingRequest(options=tuple(small_batch),
                                    steps=STEPS))
        document = client.stats()
        assert tuple(document) == ("schema", "serve", "shards")
        assert document["schema"] == keys.STATS_SCHEMA
        serve = document["serve"]
        assert tuple(serve) == keys.SERVE.names
        assert serve["requests"] >= 1
        assert serve["responses"] >= 1
        assert serve["shards"] == 2
        assert len(document["shards"]) == 2
        for shard in document["shards"]:
            assert tuple(shard) == keys.SERVICE.names

    def test_stats_sections_keep_in_process_types(self, server, client,
                                                   small_batch):
        """``GET /stats`` carries each layer's snapshot unchanged: no
        key differs in type from that layer's in-process snapshot."""
        request = PricingRequest(options=tuple(small_batch), steps=STEPS)
        client.price(request)
        with PricingService(ServiceConfig()) as service:
            service.submit(request).result()
            in_process = {"serve": server.stats().as_dict(),
                          "shards": service.stats().as_dict()}
        document = client.stats()
        assert type(document["schema"]) is str
        for key, value in document["serve"].items():
            assert type(value) is type(in_process["serve"][key]), key
        for shard in document["shards"]:
            for key, value in shard.items():
                assert type(value) is type(in_process["shards"][key]), key

    def test_malformed_json_is_bad_request(self, server, client):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/price", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            document = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert document["error"]["code"] == "bad_request"

    def test_unknown_route_is_404(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            conn.request("GET", "/nope")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        assert response.status == 404


class TestParityAgainstInProcessService:
    @pytest.mark.parametrize("fault_seed", [None, 101, 202, 303])
    def test_network_results_bitwise_equal(self, fault_seed):
        """The wire + shard pipe path must not move one ULP — with or
        without transient injected faults (which heal on retry)."""
        faults = (FaultPlan.random(fault_seed, 4)
                  if fault_seed is not None else None)
        service_config = ServiceConfig(faults=faults)
        requests = request_mix(8)
        with PricingService(service_config) as oracle:
            expected = [oracle.submit(request).result()
                        for request in requests]
        with PricingServer(ServeConfig(shards=2,
                                       service=service_config)) as server:
            with ServeClient(server.host, server.port) as client:
                for request, want in zip(requests, expected):
                    got = client.price(request)
                    np.testing.assert_array_equal(got.prices, want.prices)
                    assert [f.as_dict() for f in got.failures] == \
                        [f.as_dict() for f in want.failures]


class _PinnedShard:
    """One shard whose coalescer a slow request pins for ``HANG_S``.

    The coalescer drains its queue eagerly, so a request only waits in
    the shard while a flush occupies the service thread: a seeded
    ``HANG`` fault on an option index only the 8-option slow request
    carries pins its flush for seconds whatever the pricing speed.  The
    shard's ``flushes`` and ``cache_misses`` counters are the admission
    barriers — the former increments when the slow flush *starts*, the
    latter only after a request is really queued.
    """

    HANG_S = 5.0

    def __init__(self, **service_overrides):
        slow_options = tuple(generate_batch(n_options=8, seed=40).options)
        hang = FaultPlan.single(len(slow_options) - 1, FaultKind.HANG,
                                hang_s=self.HANG_S)
        self.config = ServeConfig(shards=1, service=ServiceConfig(
            faults=hang, **service_overrides))
        self.slow = PricingRequest(options=slow_options, steps=STEPS)
        self.outcome = {}
        self.threads = []

    def submit(self, server, name, request) -> None:
        """Price ``request`` on a thread of its own; see ``outcome``."""
        def run():
            with ServeClient(server.host, server.port) as peer:
                try:
                    self.outcome[name] = peer.price(request)
                except BaseException as exc:  # noqa: BLE001
                    self.outcome[name] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        self.threads.append(thread)

    def pin(self, server, client) -> None:
        """Start the slow request and wait until its flush runs."""
        self.submit(server, "slow", self.slow)
        assert wait_until(lambda: shard_stat(client, "flushes") >= 1,
                          timeout_s=60)

    def join(self) -> None:
        for thread in self.threads:
            thread.join(timeout=120)
        assert not isinstance(self.outcome["slow"], BaseException)


def shard_stat(client, name):
    (document,) = client.stats()["shards"]
    return (document or {}).get(name, 0)


class TestDeadlinePriorityCancel:
    def test_deadline_expires_across_the_wire(self):
        pinned = _PinnedShard()
        with PricingServer(pinned.config) as server:
            with ServeClient(server.host, server.port) as client:
                pinned.pin(server, client)
                options = tuple(generate_batch(n_options=2,
                                               seed=3).options)
                # queued behind the hung flush, it outlives its budget
                request = PricingRequest(options=options, steps=STEPS,
                                         deadline_ms=100.0)
                with pytest.raises(DeadlineExceededError):
                    client.price(request)
                assert shard_stat(client, "deadline_expired") == 1
            pinned.join()

    def test_high_priority_sheds_queued_normal(self):
        """Under a full admission queue, a high-priority request is
        admitted by shedding the oldest queued normal one — visible
        through the network as typed errors on the shed side.

        The queue only fills while the slow request pins the shard's
        coalescer; three small ones then exercise the queue-full /
        shed paths deterministically."""
        # the small requests merge into flushes of at most 4 options,
        # so only the slow request's flush reaches the hung index
        pinned = _PinnedShard(max_batch=2, max_queue=1)
        with PricingServer(pinned.config) as server:

            def opts(seed):
                return tuple(generate_batch(n_options=2, seed=seed).options)

            normal_1 = PricingRequest(options=opts(41), steps=STEPS)
            normal_2 = PricingRequest(options=opts(42), steps=STEPS)
            high = PricingRequest(options=opts(43), steps=STEPS,
                                  priority="high")
            with ServeClient(server.host, server.port) as client:
                pinned.pin(server, client)
                pinned.submit(server, "first", normal_1)
                assert wait_until(
                    lambda: shard_stat(client, "cache_misses") >= 2,
                    timeout_s=60)
                # the queue slot is taken: a second normal is refused
                with pytest.raises(ServiceOverloadedError):
                    client.price(normal_2)
                # ... but high priority is admitted by shedding
                result = client.price(high)
            assert result.prices.shape == (2,)
            pinned.join()
            assert isinstance(pinned.outcome["first"],
                              ServiceOverloadedError)

    def test_client_disconnect_cancels_the_request(self):
        pinned = _PinnedShard()
        with PricingServer(pinned.config) as server:
            options = tuple(generate_batch(n_options=2, seed=5).options)
            request = PricingRequest(options=options, steps=STEPS)
            body = json.dumps(request.to_dict()).encode("utf-8")
            with ServeClient(server.host, server.port) as client:
                pinned.pin(server, client)
                raw = socket.create_connection((server.host, server.port),
                                               timeout=30)
                raw.sendall(
                    b"POST /v1/price HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode(
                        "ascii")
                    + body)
                # abandon the connection while the request is queued
                # behind the hung flush
                assert wait_until(
                    lambda: shard_stat(client, "cache_misses") >= 2,
                    timeout_s=60)
                raw.close()
                assert wait_until(
                    lambda: client.stats()["serve"]["cancelled"] >= 1,
                    timeout_s=30)
                # the tier keeps serving afterwards
                survivor = client.price(request)
            assert survivor.prices.shape == (2,)
            pinned.join()


class TestShardFailureIsolation:
    def fast_restart_config(self, shards: int = 2) -> ServeConfig:
        return ServeConfig(
            shards=shards,
            ping_interval_s=0.05,
            ping_miss_limit=5,
            health=HealthPolicy(restart_limit=3, restart_backoff_s=0.01),
        )

    def keyed_requests(self, server) -> "dict[int, PricingRequest]":
        """One request per shard index, found by walking seeds."""
        requests = {}
        seed = 11
        while len(requests) < server.config.shards:
            options = tuple(generate_batch(n_options=2, seed=seed).options)
            for kernel, precision, family in SERVE_TRAFFIC_VARIANTS:
                request = PricingRequest(options=options, steps=STEPS,
                                         kernel=kernel, precision=precision,
                                         family=family, strict=False)
                shard = server._ring.route(request.batch_key)
                requests.setdefault(shard, request)
            seed += 1
        return requests

    def test_wedged_shard_restarts_without_dropping_siblings(self):
        with PricingServer(self.fast_restart_config()) as server:
            by_shard = self.keyed_requests(server)
            with ServeClient(server.host, server.port) as client:
                for request in by_shard.values():
                    client.price(request)  # warm both shards

                server._shards[0].inject_wedge(30.0)
                # the sibling keeps serving while shard 0 is wedged
                sibling = client.price(by_shard[1])
                assert sibling.prices.shape == (2,)
                # the supervisor detects the missed pongs and restarts
                assert wait_until(
                    lambda: client.stats()["serve"]["shard_restarts"] >= 1,
                    timeout_s=60)
                # the restarted shard serves its keys again
                revived = client.price(by_shard[0])
            assert revived.prices.shape == (2,)

    def test_killed_shard_restarts_and_serves(self):
        with PricingServer(self.fast_restart_config()) as server:
            by_shard = self.keyed_requests(server)
            with ServeClient(server.host, server.port) as client:
                client.price(by_shard[0])
                server._shards[0]._process.kill()
                assert wait_until(
                    lambda: client.stats()["serve"]["shard_restarts"] >= 1,
                    timeout_s=60)
                revived = client.price(by_shard[0])
            assert revived.prices.shape == (2,)

    def test_restart_budget_exhaustion_pins_shard_dead(self):
        config = ServeConfig(
            shards=2, ping_interval_s=0.05, ping_miss_limit=5,
            health=HealthPolicy(restart_limit=0, restart_backoff_s=0.01),
        )
        with PricingServer(config) as server:
            by_shard = self.keyed_requests(server)
            with ServeClient(server.host, server.port) as client:
                client.price(by_shard[0])
                server._shards[0]._process.kill()
                # budget 0: the slot is pinned dead, requests fail fast
                assert wait_until(lambda: client.healthz()[0] == 503,
                                  timeout_s=60)
                with pytest.raises(ReproError):
                    client.price(by_shard[0])
                # the sibling never flinches
                sibling = client.price(by_shard[1])
            assert sibling.prices.shape == (2,)
