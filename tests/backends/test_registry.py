"""Backend selection: registry semantics, env override, config wiring."""

import warnings

import numpy as np
import pytest

from repro.backends import (
    AUTO_ORDER,
    BACKENDS,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.engine import EngineConfig, PricingEngine
from repro.errors import BackendUnavailableError, EngineError, ReproError
from repro.finance import generate_batch

STEPS = 16


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=6, seed=5).options)


@pytest.fixture()
def pristine_registry(monkeypatch, tmp_path):
    """Sabotage-safe registry: no caches, no on-disk .so.

    The compiled-library disk cache would mask a broken compiler
    (a prior good build satisfies the lookup without ever running
    ``cc``), so the cache root is pointed at an empty tmp dir; the
    per-process instance/failure/warned caches are snapshotted and
    restored so sabotage never leaks into other tests.
    """
    from repro.backends import registry

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    saved = (dict(registry._instances), dict(registry._failures),
             set(registry._fallbacks_warned))
    registry._instances.clear()
    registry._failures.clear()
    registry._fallbacks_warned.clear()
    yield registry
    registry._instances.clear()
    registry._failures.clear()
    registry._fallbacks_warned.clear()
    registry._instances.update(saved[0])
    registry._failures.update(saved[1])
    registry._fallbacks_warned.update(saved[2])


class TestRegistry:
    def test_numpy_always_available(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert not backend.compiled
        assert "numpy" in available_backends()

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown backend"):
            get_backend("opencl")

    def test_get_backend_is_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_auto_prefers_the_fastest_available(self):
        resolved = resolve_backend("auto")
        assert resolved.name == available_backends()[0]
        assert tuple(AUTO_ORDER)[-1] == "numpy"  # the floor

    def test_env_override_beats_requested_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend("auto").name == "numpy"
        # the operator's override also beats an explicit program choice
        for requested in available_backends():
            assert resolve_backend(requested).name == "numpy"

    def test_env_override_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fpga")
        with pytest.raises(ReproError, match="unknown backend"):
            resolve_backend("auto")

    def test_blank_env_override_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  ")
        assert resolve_backend("numpy").name == "numpy"


class TestEngineWiring:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(EngineError, match="backend"):
            EngineConfig(backend="opencl")

    def test_config_accepts_every_registry_name(self):
        for name in BACKENDS:
            assert EngineConfig(backend=name).backend == name

    def test_engine_construction_fails_fast_when_unavailable(
            self, monkeypatch, pristine_registry):
        monkeypatch.setenv("REPRO_CC", "false")  # exits 1 on any input
        with pytest.raises(BackendUnavailableError):
            PricingEngine(kernel="iv_b",
                          config=EngineConfig(backend="cnative"))

    def test_stats_and_describe_carry_backend_identity(self, batch):
        with PricingEngine(kernel="iv_b",
                           config=EngineConfig(backend="numpy")) as engine:
            assert "backend=numpy" in engine.describe()
            result = engine.run(batch, STEPS)
        assert result.stats.backend == "numpy"
        assert result.stats.backend_compile_seconds == 0.0
        assert result.stats.as_dict()["backend"] == "numpy"

    def test_env_override_reaches_the_engine(self, batch, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        with PricingEngine(kernel="iv_b") as engine:  # config says auto
            result = engine.run(batch, STEPS)
        assert result.stats.backend == "numpy"

    def test_auto_engine_matches_pinned_numpy(self, batch):
        """Whatever auto resolves to, the numbers are the NumPy bits."""
        with PricingEngine(kernel="iv_b") as engine:
            auto = engine.run(batch, STEPS)
        with PricingEngine(kernel="iv_b",
                           config=EngineConfig(backend="numpy")) as engine:
            pinned = engine.run(batch, STEPS)
        np.testing.assert_array_equal(auto.prices, pinned.prices)


class TestRequestWiring:
    def test_request_rejects_unknown_backend(self, batch):
        from repro.api import PricingRequest

        with pytest.raises(ReproError):
            PricingRequest(options=tuple(batch), steps=STEPS,
                           kernel="iv_b", backend="opencl")

    def test_price_facade_accepts_backend(self, batch):
        import repro

        pinned = repro.price(batch, steps=STEPS, kernel="iv_b",
                             backend="numpy")
        default = repro.price(batch, steps=STEPS, kernel="iv_b")
        assert pinned.stats.backend == "numpy"
        np.testing.assert_array_equal(pinned.prices, default.prices)


class TestAutoFallbackHardening:
    """Satellite: a broken cnative toolchain must degrade *loudly*.

    ``auto`` has to land on NumPy when the compiler cannot produce a
    library, emit one RuntimeWarning per process, and bump the
    ``repro_backend_fallback_total`` counter — never raise, never
    silently pretend the fast path existed.
    """

    def test_sabotaged_compiler_falls_back_to_numpy_with_warning(
            self, monkeypatch, pristine_registry):
        from repro.obs.keys import BACKEND_FALLBACK_TOTAL
        from repro.obs.metrics import get_registry

        monkeypatch.setenv("REPRO_CC", "false")  # exits 1 on any input
        before = get_registry().counter(BACKEND_FALLBACK_TOTAL).value(
            backend="cnative")
        with pytest.warns(RuntimeWarning, match="cnative.*unavailable"):
            backend = resolve_backend("auto")
        assert backend.name == "numpy"
        after = get_registry().counter(BACKEND_FALLBACK_TOTAL).value(
            backend="cnative")
        assert after == before + 1

    def test_fallback_warns_once_but_counts_every_resolution(
            self, monkeypatch, pristine_registry):
        from repro.obs.keys import BACKEND_FALLBACK_TOTAL
        from repro.obs.metrics import get_registry

        monkeypatch.setenv("REPRO_CC", "false")
        before = get_registry().counter(BACKEND_FALLBACK_TOTAL).value(
            backend="cnative")
        with pytest.warns(RuntimeWarning):
            resolve_backend("auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            resolve_backend("auto")
        after = get_registry().counter(BACKEND_FALLBACK_TOTAL).value(
            backend="cnative")
        assert after == before + 2

    def test_nonexistent_compiler_path_is_wrapped_not_raised(
            self, monkeypatch, pristine_registry):
        # an OSError from subprocess (missing binary) must surface as
        # BackendUnavailableError for the pinned path and as a clean
        # numpy fallback for auto
        monkeypatch.setenv("REPRO_CC", "/nonexistent/bin/cc-rot13")
        with pytest.raises(BackendUnavailableError, match="could not run"):
            get_backend("cnative")
        pristine_registry._failures.clear()
        with pytest.warns(RuntimeWarning):
            assert resolve_backend("auto").name == "numpy"


class TestTargetFlagFallback:
    """A compiler that rejects ``-march=native`` still yields a working
    ``cnative`` backend: it is rebuilt with the portable flags, says so
    once, and prices the same bits as the NumPy backend."""

    def test_rejected_target_flag_builds_portable(
            self, monkeypatch, pristine_registry, tmp_path):
        from repro.backends import cnative
        from repro.core.batch_sim import simulate_kernel_b_batch
        from repro.engine.scheduler import reference_chunk
        from repro.finance.lattice import LatticeFamily

        monkeypatch.delenv("REPRO_CC", raising=False)
        monkeypatch.delenv("CC", raising=False)
        real = cnative._compiler()
        if real is None:
            pytest.skip("no C toolchain for the cnative backend")
        calls = tmp_path / "calls.log"
        wrapper = tmp_path / "cc-portable-only"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'echo "$@" >> "{calls}"\n'
            'for arg in "$@"; do\n'
            '  if [ "$arg" = "-march=native" ]; then\n'
            '    echo "error: unsupported -march=native" >&2; exit 1\n'
            "  fi\n"
            "done\n"
            f'exec "{real}" "$@"\n')
        wrapper.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(wrapper))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = cnative.CNativeBackend()
            cnative.CNativeBackend()  # cached portable build, no new warning
        fallbacks = [w for w in caught if "-march=native" in str(w.message)]
        assert len(fallbacks) == 1
        assert fallbacks[0].category is RuntimeWarning

        builds = [line.split() for line in calls.read_text().splitlines()
                  if " -o " in line]
        assert len(builds) == 1
        assert "-march=native" not in builds[0]
        assert {"-O3", "-fPIC", "-shared",
                "-ffp-contract=off"} <= set(builds[0])

        options = list(generate_batch(n_options=6, seed=5).options)
        numpy_backend = get_backend("numpy")
        np.testing.assert_array_equal(
            simulate_kernel_b_batch(options, STEPS, backend=backend)
            .view(np.uint64),
            simulate_kernel_b_batch(options, STEPS, backend=numpy_backend)
            .view(np.uint64))
        np.testing.assert_array_equal(
            reference_chunk(options, STEPS, LatticeFamily.TIAN, np.float32,
                            backend=backend).view(np.uint64),
            reference_chunk(options, STEPS, LatticeFamily.TIAN, np.float32,
                            backend=numpy_backend).view(np.uint64))
