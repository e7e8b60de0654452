"""The versioned wire schema: lossless codec, total error table.

``repro-request/v1`` / ``repro-result/v1`` carry every float as
``float.hex()``, so a request or result that crosses the network is
*bitwise* identical after the round trip — the serving tier's parity
guarantee starts here.  The error table must stay total over the
serving error surface and its published codes stable.
"""

import json
import math

import numpy as np
import pytest

from repro.api import (
    BatchResult,
    GreeksResult,
    PriceResult,
    PricingRequest,
    ServiceResult,
    WIRE_REQUEST_SCHEMA,
    WIRE_RESULT_SCHEMA,
    greeks,
    price,
)
from repro.engine.reliability import FailureRecord
from repro.engine.stats import EngineStats
from repro.errors import (
    CANCELLED_HTTP_STATUS,
    CANCELLED_WIRE_CODE,
    DeadlineExceededError,
    INTERNAL_WIRE_CODE,
    ReproError,
    ServiceOverloadedError,
    WIRE_ERRORS,
    error_from_wire,
    wire_error,
)
from repro.finance import generate_batch

STEPS = 16


def wire_round_trip(request: PricingRequest) -> PricingRequest:
    """dict -> JSON bytes -> dict -> request, like the server does."""
    payload = json.dumps(request.to_dict()).encode("utf-8")
    return PricingRequest.from_dict(json.loads(payload))


class TestRequestRoundTrip:
    def test_default_request_survives(self, small_batch):
        request = PricingRequest(options=tuple(small_batch), steps=STEPS)
        rebuilt = wire_round_trip(request)
        assert rebuilt == request
        assert rebuilt.batch_key == request.batch_key

    def test_every_float_field_is_bitwise(self, small_batch):
        # awkward values: subnormal, negative zero, huge, tiny-epsilon
        awkward = math.ldexp(1.0, -1060)
        request = PricingRequest(
            options=tuple(small_batch), steps=STEPS, task="greeks",
            bump_vol=awkward, bump_rate=1e-4 + 1e-19,
            deadline_ms=1000.0 / 3.0, priority="high",
            precision="single", kernel="iv_a", family="tian",
            workers=2, strict=True, backend="numpy")
        rebuilt = wire_round_trip(request)
        assert rebuilt == request
        for sent, received in zip(request.options, rebuilt.options):
            for field in ("spot", "strike", "rate", "volatility",
                          "maturity", "dividend_yield"):
                assert math.copysign(1.0, getattr(sent, field)) == \
                    math.copysign(1.0, getattr(received, field))
                assert getattr(sent, field).hex() == \
                    getattr(received, field).hex()

    def test_per_option_steps_survive(self, small_batch):
        request = PricingRequest(options=tuple(small_batch),
                                 steps=tuple(8 + i for i in
                                             range(len(small_batch))))
        assert wire_round_trip(request) == request

    def test_schema_tag_is_checked(self, small_batch):
        data = PricingRequest(options=tuple(small_batch),
                              steps=STEPS).to_dict()
        assert data["schema"] == WIRE_REQUEST_SCHEMA
        data["schema"] = "repro-request/v999"
        with pytest.raises(ReproError, match="schema"):
            PricingRequest.from_dict(data)

    def test_malformed_document_is_a_typed_error(self, small_batch):
        with pytest.raises(ReproError, match="'options' list"):
            PricingRequest.from_dict({"schema": WIRE_REQUEST_SCHEMA,
                                      "options": "not-a-list"})
        broken = PricingRequest(options=tuple(small_batch),
                                steps=STEPS).to_dict()
        broken["steps"] = {"not": "steps"}
        with pytest.raises(ReproError, match="malformed wire request"):
            PricingRequest.from_dict(broken)

    def test_plain_json_numbers_accepted(self, small_batch):
        # a hand-written client may send 100.0 instead of float.hex();
        # the decoder tolerates it (losing only the bitwise guarantee)
        data = PricingRequest(options=tuple(small_batch),
                              steps=STEPS).to_dict()
        data["options"][0]["spot"] = 123.25
        rebuilt = PricingRequest.from_dict(data)
        assert rebuilt.options[0].spot == 123.25


class TestResultRoundTrip:
    def result_round_trip(self, result):
        payload = json.dumps(result.to_dict()).encode("utf-8")
        return BatchResult.from_dict(json.loads(payload))

    def test_price_result_bitwise(self, small_batch):
        result = price(small_batch, steps=STEPS)
        rebuilt = self.result_round_trip(result)
        assert isinstance(rebuilt, PriceResult)
        np.testing.assert_array_equal(rebuilt.prices, result.prices)
        assert rebuilt.route == result.route
        assert isinstance(rebuilt.stats, EngineStats)
        assert rebuilt.stats == result.stats
        # a key this build does not declare (fused_greeks left the
        # engine stats in v10) is dropped, not an error
        data = result.to_dict()
        data["stats"]["fused_greeks"] = True
        rebuilt = BatchResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.stats == result.stats
        assert "fused_greeks" not in rebuilt.stats.as_dict()

    def test_greeks_result_bitwise(self, small_batch):
        result = greeks(small_batch, steps=STEPS)
        rebuilt = self.result_round_trip(result)
        assert isinstance(rebuilt, GreeksResult)
        for column in ("prices", "delta", "gamma", "theta", "vega", "rho"):
            np.testing.assert_array_equal(getattr(rebuilt, column),
                                          getattr(result, column))

    def test_service_result_extras_survive(self, small_batch):
        base = price(small_batch, steps=STEPS)
        result = ServiceResult(prices=base.prices, route=base.route,
                               stats=base.stats, cache_hit=True,
                               batch_options=17, wait_s=1.0 / 3.0)
        rebuilt = self.result_round_trip(result)
        assert isinstance(rebuilt, ServiceResult)
        assert rebuilt.cache_hit is True
        assert rebuilt.batch_options == 17
        assert rebuilt.wait_s.hex() == (1.0 / 3.0).hex()

    def test_failure_records_survive(self, small_batch):
        base = price(small_batch, steps=STEPS)
        record = FailureRecord(index=3, error="EngineError",
                               message="injected", attempts=2)
        result = ServiceResult(prices=base.prices, route=base.route,
                               stats=base.stats,
                               failures=(record,))
        rebuilt = self.result_round_trip(result)
        (received,) = rebuilt.failures
        assert received == record


class TestErrorTable:
    def test_codes_are_published_and_stable(self):
        # renaming any of these breaks deployed clients: the assertion
        # is the contract, not a description
        stable = {
            "shard_crash": 503, "chaos_injected": 500,
            "deadline_exceeded": 504, "overloaded": 503,
            "service_error": 500, "backend_unavailable": 501,
            "poison_chunk": 422, "worker_crash": 500,
            "chunk_timeout": 504, "engine_error": 500,
            "transport_fault": 503, "opencl_error": 500,
            "hls_error": 500, "device_model_error": 500,
            "no_convergence": 422, "invalid_market_data": 400,
            "sweep_error": 400, "bad_request": 400,
        }
        assert {code: status
                for code, status in WIRE_ERRORS.values()} == stable
        assert CANCELLED_WIRE_CODE == "cancelled"
        assert CANCELLED_HTTP_STATUS == 499

    def test_table_is_total_over_the_error_hierarchy(self):
        # every ReproError subclass anywhere in the package must map to
        # a wire code through its MRO — no error can leave the server
        # without a published code
        def subclasses(klass):
            for child in klass.__subclasses__():
                yield child
                yield from subclasses(child)

        for klass in {ReproError, *subclasses(ReproError)}:
            code, status = wire_error(klass("boom"))
            assert code != INTERNAL_WIRE_CODE, klass
            assert 400 <= status < 600

    def test_most_derived_class_wins(self):
        assert wire_error(DeadlineExceededError("late")) == \
            ("deadline_exceeded", 504)
        assert wire_error(ServiceOverloadedError("full")) == \
            ("overloaded", 503)

    def test_non_repro_exception_is_internal(self):
        assert wire_error(ValueError("bug")) == (INTERNAL_WIRE_CODE, 500)

    def test_round_trip_rebuilds_the_typed_exception(self):
        for klass, (code, _status) in WIRE_ERRORS.items():
            rebuilt = error_from_wire(code, "over the wire")
            assert isinstance(rebuilt, klass) or \
                issubclass(type(rebuilt), ReproError)
            # the most-derived registrant of the code comes back
            assert wire_error(rebuilt)[0] == code

    def test_unknown_code_degrades_to_repro_error(self):
        rebuilt = error_from_wire("a_code_from_the_future", "newer server")
        assert type(rebuilt) is ReproError
        assert "a_code_from_the_future" in str(rebuilt)

    def test_result_schema_tags(self, small_batch):
        result = price(small_batch, steps=STEPS)
        assert result.to_dict()["schema"] == WIRE_RESULT_SCHEMA
