"""SweepRunner: execution, crash-safe resume, bitwise determinism."""

import pytest

from repro.errors import SweepError
from repro.sweep import RunStore, SweepRunner, SweepSpec
from repro.obs.metrics import Snapshot

#: The transient-fault seeds the service/serve suites pin (faults must
#: heal with bitwise parity; the sweep layer inherits that contract).
FAULT_SEEDS = (101, 202, 303)


def tiny_spec(**kwargs):
    defaults = dict(
        name="tiny",
        axes={"steps": (8, 16), "kernel": ("iv_b", "reference")},
        base={"n_options": 4, "reference_steps": 32},
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestExecution:
    def test_full_grid_runs_to_done(self, tmp_path):
        spec = tiny_spec()
        stats = SweepRunner(spec, tmp_path / "run.jsonl").run()
        assert isinstance(stats, Snapshot) and stats.layer == "sweep"
        assert stats.cells == 4
        assert stats.executed == stats.done == 4
        assert stats.failed == 0
        assert stats.options == 16

    def test_rows_carry_result_fields(self, tmp_path):
        store_path = tmp_path / "run.jsonl"
        SweepRunner(tiny_spec(), store_path).run()
        for row in RunStore(store_path).latest().values():
            assert row.status == "done"
            result = row.result
            assert result["options"] == 4
            assert result["rmse"] >= 0.0
            assert result["max_abs_err"] >= result["rmse"]
            assert len(result["prices_blake2b"]) == 16
            assert set(result["modeled"]) == {
                "options_per_second", "options_per_joule", "power_w"}
            assert row.meta is not None  # volatile envelope present

    def test_rerun_of_completed_grid_is_noop(self, tmp_path):
        spec = tiny_spec()
        store_path = tmp_path / "run.jsonl"
        SweepRunner(spec, store_path).run()
        before = store_path.read_bytes()
        stats = SweepRunner(spec, store_path).run()
        assert stats.executed == 0
        assert stats.skipped == 4
        assert store_path.read_bytes() == before  # literally no append

    def test_store_of_other_spec_is_refused(self, tmp_path):
        store_path = tmp_path / "run.jsonl"
        SweepRunner(tiny_spec(), store_path).run(limit=1)
        other = tiny_spec(base={"n_options": 5, "reference_steps": 32})
        with pytest.raises(SweepError, match="refusing to mix"):
            SweepRunner(other, store_path).run()

    def test_fully_pruned_grid_is_an_error(self, tmp_path):
        spec = SweepSpec(name="t", axes={"steps": (1,)},
                         base={"kernel": "iv_b"})
        with pytest.raises(SweepError, match="no cells"):
            SweepRunner(spec, tmp_path / "run.jsonl").run()


class TestResumeDeterminism:
    def run_interrupted(self, spec, path, kill_after):
        """Run the grid in two passes: ``kill_after`` cells, then rest."""
        first = SweepRunner(spec, path).run(limit=kill_after)
        assert first.executed == kill_after
        counts = RunStore(path).counts()
        assert counts["done"] + counts["failed"] == kill_after
        assert counts["pending"] == spec_cells(spec) - kill_after
        second = SweepRunner(spec, path).run()
        assert second.skipped == kill_after
        return RunStore(path)

    def test_killed_and_resumed_store_is_bitwise_identical(self, tmp_path):
        spec = tiny_spec()
        uninterrupted = RunStore(tmp_path / "one_shot.jsonl")
        SweepRunner(spec, uninterrupted).run()
        for kill_after in (1, 2, 3):
            resumed = self.run_interrupted(
                spec, tmp_path / f"killed_{kill_after}.jsonl", kill_after)
            assert resumed.fingerprint() == uninterrupted.fingerprint()
            # row-for-row, not just digest-equal
            canonical = lambda store: sorted(
                (r.cell, r.canonical_dict())
                for r in store.latest().values())
            assert canonical(resumed) == canonical(uninterrupted)

    @pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
    def test_resume_is_bitwise_under_fault_injection(self, tmp_path,
                                                     fault_seed):
        spec = tiny_spec(
            axes={"steps": (8, 16), "fault_seed": (fault_seed,)},
            base={"n_options": 4, "kernel": "iv_b",
                  "reference_steps": 32})
        uninterrupted = RunStore(tmp_path / "one_shot.jsonl")
        SweepRunner(spec, uninterrupted).run()
        resumed = self.run_interrupted(
            spec, tmp_path / "killed.jsonl", kill_after=1)
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        for row in resumed.latest().values():
            assert row.status == "done"  # transient faults healed

    def test_interrupt_mid_append_is_recovered(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "run.jsonl"
        SweepRunner(spec, path).run(limit=2)
        # crash mid-write of the final committed row: the truncated
        # tail is dropped and that cell simply re-runs
        path.write_bytes(path.read_bytes()[:-30])
        stats = SweepRunner(spec, path).run()
        assert stats.done == 3  # the clipped cell plus the 2 never run
        uninterrupted = RunStore(tmp_path / "one_shot.jsonl")
        SweepRunner(spec, uninterrupted).run()
        assert RunStore(path).fingerprint() == uninterrupted.fingerprint()


class TestFailedCells:
    def test_invalid_cell_fails_with_typed_wire_code(self, tmp_path):
        # constraints disabled: steps=1 reaches the iv_b kernel, whose
        # request validation refuses it -> a failed row, not a crash
        spec = SweepSpec(name="t", axes={"steps": (1, 8)},
                         constraints=(),
                         base={"n_options": 4, "kernel": "iv_b"})
        store_path = tmp_path / "run.jsonl"
        stats = SweepRunner(spec, store_path).run()
        assert stats.done == 1
        assert stats.failed == 1
        latest = RunStore(store_path).latest()
        failed = [r for r in latest.values() if r.status == "failed"]
        assert len(failed) == 1
        assert failed[0].error["code"] == "bad_request"
        assert failed[0].error["message"]

    def test_failed_cells_are_not_rerun_on_resume(self, tmp_path):
        spec = SweepSpec(name="t", axes={"steps": (1, 8)},
                         constraints=(),
                         base={"n_options": 4, "kernel": "iv_b"})
        store_path = tmp_path / "run.jsonl"
        SweepRunner(spec, store_path).run()
        stats = SweepRunner(spec, store_path).run()
        assert stats.executed == 0
        assert stats.skipped == 2


def spec_cells(spec):
    return len(spec.conditions())
