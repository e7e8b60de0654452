"""Routed entry points and the throughput harness.

The façade `repro.price`, the accelerator and the accuracy experiments
all schedule through the engine; these tests pin that the routing is
value-preserving, that the parameter builders validate before
allocating, and that the benchmark harness produces a well-formed,
gateable document.
"""

import numpy as np
import pytest

from repro.api import price
from repro.core import BinomialAccelerator
from repro.core.kernel_a import build_params_a
from repro.core.kernel_b import build_params_b
from repro.errors import ReproError
from repro.finance import generate_batch, price_binomial


class TestParamValidation:
    """Builders raise the simulators' exact messages, before allocating."""

    def test_params_b_steps(self):
        batch = list(generate_batch(n_options=2, seed=1).options)
        with pytest.raises(ReproError, match="kernel IV.B needs at least 2 steps"):
            build_params_b(batch, 1)

    def test_params_a_steps(self):
        batch = list(generate_batch(n_options=2, seed=1).options)
        with pytest.raises(ReproError, match="kernel IV.A needs at least 2 steps"):
            build_params_a(batch, 0)

    def test_params_empty_batch(self):
        with pytest.raises(ReproError, match="empty option batch"):
            build_params_b([], 8)
        with pytest.raises(ReproError, match="empty option batch"):
            build_params_a([], 8)


class TestRoutedEntryPoints:
    def test_facade_batch_matches_per_option(self):
        batch = list(generate_batch(n_options=6, seed=11).options)
        routed = price(batch, steps=16, kernel="reference").prices
        direct = np.array([price_binomial(o, 16).price for o in batch])
        np.testing.assert_array_equal(routed, direct)

    def test_facade_batch_workers(self):
        batch = list(generate_batch(n_options=6, seed=11).options)
        serial = price(batch, steps=16, kernel="reference").prices
        fanned = price(batch, steps=16, kernel="reference",
                       workers=2).prices
        np.testing.assert_array_equal(serial, fanned)

    def test_facade_batch_empty(self):
        assert price([], steps=16).prices.shape == (0,)

    def test_accelerator_routes_through_engine(self):
        from repro.core.batch_sim import simulate_kernel_b_batch
        from repro.core.faithful_math import ALTERA_13_0_DOUBLE
        from repro.engine import EngineConfig

        batch = list(generate_batch(n_options=5, seed=12).options)
        with BinomialAccelerator(platform="fpga", kernel="iv_b", steps=16,
                                 compile_fpga=False,
                                 engine_config=EngineConfig(chunk_options=2)
                                 ) as accelerator:
            result = price(batch, steps=16, device=accelerator)
        expected = simulate_kernel_b_batch(batch, 16, ALTERA_13_0_DOUBLE)
        np.testing.assert_array_equal(result.prices, expected)

    def test_accelerator_reference_single_precision(self):
        batch = list(generate_batch(n_options=4, seed=13).options)
        accelerator = BinomialAccelerator(platform="cpu", kernel="reference",
                                          precision="single", steps=16)
        result = price(batch, steps=16, device=accelerator)
        expected = price(batch, steps=16, kernel="reference",
                         precision="single").prices
        np.testing.assert_array_equal(result.prices, expected)


class TestBenchmarkHarness:
    @pytest.fixture(scope="class")
    def document(self):
        from repro.bench.engine_bench import run_benchmark

        return run_benchmark(options_counts=(12,), steps=16,
                             workers_settings=(1,), kernel="iv_b")

    def test_schema_and_shape(self, document):
        from repro.bench.engine_bench import BENCH_SCHEMA

        assert document["schema"] == BENCH_SCHEMA
        assert document["config"]["kernel"] == "iv_b"
        (entry,) = document["results"]
        assert entry["options"] == 12
        assert entry["parity"]["bit_identical_to_simulator"] is True
        (run,) = entry["runs"]
        assert run["workers"] == 1
        assert run["options_per_second"] > 0
        assert run["speedup_vs_baseline"] > 0

    def test_write_round_trip(self, document, tmp_path):
        import json

        from repro.bench.engine_bench import write_benchmark

        path = write_benchmark(document, tmp_path / "bench.json")
        assert json.loads(path.read_text()) == document

    def test_regression_gate(self, document):
        import copy

        from repro.bench.engine_bench import check_throughput_regression

        assert check_throughput_regression(document, document) == []

        slower = copy.deepcopy(document)
        slower["results"][0]["runs"][0]["options_per_second"] /= 2.0
        failures = check_throughput_regression(slower, document)
        assert len(failures) == 1
        assert "options=12 workers=1" in failures[0]

    def test_regression_gate_rejects_mismatched_config(self, document):
        import copy

        from repro.bench.engine_bench import check_throughput_regression

        other = copy.deepcopy(document)
        other["config"]["steps"] = 32
        failures = check_throughput_regression(document, other)
        assert failures and "not comparable" in failures[0]
