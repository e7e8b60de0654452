"""PositionBook: tolerance-gated dirty marking and stable aggregation."""

import pytest

from repro.errors import StreamError
from repro.finance import ExerciseStyle, Option, OptionType
from repro.stream import (
    AGGREGATE_COLUMNS,
    Position,
    PositionBook,
    Tick,
    Tolerance,
)


def _option(spot=100.0):
    return Option(spot=spot, strike=100.0, rate=0.03, volatility=0.25,
                  maturity=1.0, option_type=OptionType.PUT,
                  exercise=ExerciseStyle.AMERICAN)


def _book(tolerances=None, n=2):
    book = PositionBook(tolerances)
    for index in range(n):
        book.add(Position(f"id-{index}", _option(100.0 + index),
                          quantity=float(index + 1), steps=16))
    return book


def _price_all(book):
    """Commit a dummy valuation for every drained instrument."""
    batch = book.drain_dirty()
    greeks = (1.0, -0.5, 0.02, -3.0, 30.0, -40.0)  # value, delta .. rho
    book.commit(batch, [[value] * len(batch) for value in greeks])


class TestTolerance:
    def test_zero_tolerance_marks_any_move(self):
        tol = Tolerance()
        assert tol.material(100.0, 100.0 + 1e-12)
        assert not tol.material(100.0, 100.0)

    def test_combined_abs_rel(self):
        tol = Tolerance(abs_tol=0.5, rel_tol=0.01)
        assert not tol.material(100.0, 101.4)   # 1.4 < 0.5 + 1.0
        assert tol.material(100.0, 101.6)

    def test_rejects_negative(self):
        with pytest.raises(StreamError, match="abs_tol"):
            Tolerance(abs_tol=-1.0)

    def test_rejects_unknown_field(self):
        with pytest.raises(StreamError, match="unknown field"):
            PositionBook({"strike": Tolerance()})


class TestPositionValidation:
    def test_empty_id(self):
        with pytest.raises(StreamError, match="non-empty"):
            Position("", _option())

    def test_non_finite_quantity(self):
        with pytest.raises(StreamError, match="quantity"):
            Position("a", _option(), quantity=float("inf"))

    def test_bad_steps(self):
        with pytest.raises(StreamError, match="steps"):
            Position("a", _option(), steps=0)

    def test_duplicate_instrument(self):
        book = _book()
        with pytest.raises(StreamError, match="already in"):
            book.add(Position("id-0", _option()))


class TestDirtyMarking:
    def test_new_positions_start_dirty(self):
        book = _book()
        assert set(book.dirty_ids()) == {"id-0", "id-1"}

    def test_tick_while_dirty_is_pending(self):
        book = _book()
        assert book.apply(Tick("id-0", "spot", 101.0, 0.001)) == "pending"

    def test_unknown_instrument_rejected(self):
        with pytest.raises(StreamError, match="unknown instrument"):
            _book().apply(Tick("ghost", "spot", 1.0, 0.0))

    def test_drain_clears_and_snapshots_live(self):
        book = _book(n=1)
        book.apply(Tick("id-0", "spot", 123.0, 0.001))
        drained = book.drain_dirty()
        assert len(drained) == 1
        assert (drained.ids, drained.steps) == (("id-0",), 16)
        assert drained.columns.spot.tolist() == [123.0]
        assert drained.columns.to_options()[0].spot == 123.0
        assert book.dirty_ids() == ()
        assert len(book.drain_dirty()) == 0

    def test_material_move_marks_clean_instrument(self):
        book = _book(n=1)
        _price_all(book)
        assert book.apply(Tick("id-0", "spot", 105.0, 0.001)) == "marked"
        assert book.dirty_ids() == ("id-0",)

    def test_within_tolerance_is_suppressed(self):
        book = _book({"spot": Tolerance(rel_tol=0.01)}, n=1)
        _price_all(book)
        assert book.apply(Tick("id-0", "spot", 100.5, 0.001)) == "suppressed"
        assert book.dirty_ids() == ()
        # the live view still moved even though nothing is owed
        assert book.live_inputs("id-0")["spot"] == 100.5
        assert book.effective_inputs("id-0")["spot"] == 100.0

    def test_cumulative_drift_cannot_hide_below_the_gate(self):
        # each move is sub-tolerance vs its predecessor, but the gate
        # compares against the EFFECTIVE value, so drift accumulates
        book = _book({"spot": Tolerance(rel_tol=0.01)}, n=1)
        _price_all(book)
        assert book.apply(Tick("id-0", "spot", 100.6, 0.001)) == "suppressed"
        assert book.apply(Tick("id-0", "spot", 101.2, 0.002)) == "marked"


class TestCommitAndAggregate:
    def test_commit_promotes_effective(self):
        book = _book(n=1)
        book.apply(Tick("id-0", "spot", 111.0, 0.001))
        book.commit(book.drain_dirty(), [2.5])
        assert book.effective_inputs("id-0")["spot"] == 111.0
        assert book.effective_option("id-0").spot == 111.0

    def test_commit_unknown_instrument(self):
        other = PositionBook()
        other.add(Position("ghost", _option()))
        with pytest.raises(StreamError, match="unknown instrument"):
            _book().commit(other.drain_dirty(), [1.0])

    def test_aggregate_before_pricing_raises(self):
        with pytest.raises(StreamError, match="never priced"):
            _book().aggregate()

    def test_aggregate_is_quantity_weighted(self):
        book = _book()  # quantities 1.0 and 2.0
        _price_all(book)
        out = book.aggregate()
        assert tuple(out) == AGGREGATE_COLUMNS
        assert out["value"] == pytest.approx(3.0)       # 1*1 + 2*1
        assert out["delta"] == pytest.approx(-1.5)      # 3 * -0.5

    def test_price_only_commit_zeroes_greeks(self):
        book = _book(n=1)
        book.commit(book.drain_dirty(), [4.0])
        out = book.aggregate()
        assert out["value"] == 4.0
        assert all(out[column] == 0.0
                   for column in AGGREGATE_COLUMNS if column != "value")

    def test_aggregation_is_bitwise_repeatable(self):
        book = _book(n=3)
        _price_all(book)
        first = {k: v.hex() for k, v in book.aggregate().items()}
        second = {k: v.hex() for k, v in book.aggregate().items()}
        assert first == second
