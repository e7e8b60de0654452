"""Workspace/buffer-pool behaviour: reuse, growth, accounting."""

import numpy as np
import pytest

from repro.engine import Workspace, kernel_tile_bytes


class TestTileLease:
    def test_shape_and_dtype(self):
        ws = Workspace()
        tile = ws.tile("v", (13, 4), np.float64)
        assert tile.shape == (13, 4)
        assert tile.dtype == np.float64

    def test_same_request_reuses_buffer(self):
        ws = Workspace()
        first = ws.tile("v", (8, 8), np.float64)
        second = ws.tile("v", (8, 8), np.float64)
        assert np.shares_memory(first, second)

    def test_smaller_request_reuses_buffer(self):
        ws = Workspace()
        big = ws.tile("v", (16, 16), np.float64)
        small = ws.tile("v", (4, 4), np.float64)
        assert np.shares_memory(big, small)

    def test_growth_reallocates(self):
        ws = Workspace()
        ws.tile("v", (4, 4), np.float64)
        before = ws.nbytes
        ws.tile("v", (32, 32), np.float64)
        assert ws.nbytes > before

    def test_dtype_change_honoured(self):
        ws = Workspace()
        ws.tile("v", (8, 8), np.float64)
        tile = ws.tile("v", (8, 8), np.float32)
        assert tile.dtype == np.float32

    def test_distinct_names_are_distinct_buffers(self):
        ws = Workspace()
        a = ws.tile("a", (8, 8), np.float64)
        b = ws.tile("b", (8, 8), np.float64)
        assert not np.shares_memory(a, b)


class TestAccounting:
    def test_peak_survives_release(self):
        ws = Workspace()
        ws.tile("v", (64, 64), np.float64)
        peak = ws.peak_bytes
        ws.release()
        assert ws.nbytes == 0
        assert ws.peak_bytes == peak
        assert peak >= 64 * 64 * 8

    def test_kernel_tile_bytes_matches_simulator_footprint(self):
        """The planner's per-row estimate covers what the loop leases."""
        from repro.backends.numpy_backend import _lease_tiles

        rows, steps = 7, 12
        ws = Workspace()
        _lease_tiles(ws, rows, steps, np.dtype(np.float64))
        assert ws.nbytes == kernel_tile_bytes(rows, steps, np.dtype(np.float64))

    def test_reference_chunk_leases_the_planned_tiles(self):
        """The reference kernel's American roll leases the same
        time-major tiles on the numpy backend, so the planner's budget
        covers it exactly like IV.A's."""
        from repro.backends import get_backend
        from repro.engine.scheduler import reference_chunk
        from repro.finance import ExerciseStyle, generate_batch
        from repro.finance.lattice import LatticeFamily

        rows, steps = 7, 12
        options = list(generate_batch(n_options=rows, seed=3,
                                      exercise=ExerciseStyle.AMERICAN)
                       .options)
        ws = Workspace()
        reference_chunk(options, steps, LatticeFamily.CRR, np.float64,
                        workspace=ws, backend=get_backend("numpy"))
        assert ws.nbytes == kernel_tile_bytes(rows, steps,
                                              np.dtype(np.float64))

    def test_kernel_tile_bytes_scales_linearly(self):
        one = kernel_tile_bytes(1, 1024, np.dtype(np.float64))
        many = kernel_tile_bytes(50, 1024, np.dtype(np.float64))
        assert many == 50 * one


class TestSimulatorReuse:
    def test_repeat_calls_do_not_grow_workspace(self):
        from repro.core.batch_sim import simulate_kernel_b_batch
        from repro.finance import generate_batch

        batch = list(generate_batch(n_options=5, seed=3).options)
        ws = Workspace()
        first = simulate_kernel_b_batch(batch, 16, workspace=ws)
        footprint = ws.nbytes
        second = simulate_kernel_b_batch(batch, 16, workspace=ws)
        assert ws.nbytes == footprint
        np.testing.assert_array_equal(first, second)

    def test_shared_workspace_result_matches_private(self):
        from repro.core.batch_sim import simulate_kernel_a_batch
        from repro.finance import generate_batch

        batch = list(generate_batch(n_options=5, seed=4).options)
        ws = Workspace()
        # prime the workspace with garbage from a different batch shape
        ws.tile("v", (3, 40), np.float64)[:] = 123.0
        shared = simulate_kernel_a_batch(batch, 12, workspace=ws)
        private = simulate_kernel_a_batch(batch, 12)
        np.testing.assert_array_equal(shared, private)
