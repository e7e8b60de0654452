"""The legacy batch entry points are gone: the replacement produces
the values the old wrappers used to delegate to."""

import numpy as np
import pytest

import repro
from repro.finance import generate_batch

STEPS = 16


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=6, seed=77).options)


class TestPriceBinomialBatch:
    def test_replacement_covers_the_old_contract(self, batch):
        result = repro.price(batch, steps=STEPS)
        assert result.prices.shape == (len(batch),)
        assert np.all(np.isfinite(result.prices))
