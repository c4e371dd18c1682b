"""Memory accountant: charging, releasing, peak tracking."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SpillError
from repro.spill import accountant
from repro.spill.accountant import (
    MemoryAccountant,
    estimate_pair_bytes,
    estimate_pairs_bytes,
    estimate_value_bytes,
)


class TestEstimates:
    def test_pair_estimate_includes_overhead(self):
        cost = estimate_pair_bytes(b"word", 1)
        assert cost > len(b"word")

    def test_bigger_values_cost_more(self):
        small = estimate_value_bytes(b"x")
        big = estimate_value_bytes(b"x" * 1000)
        assert big > small

    def test_containers_recurse(self):
        flat = estimate_value_bytes([1])
        nested = estimate_value_bytes([1, [2, 3, 4], (5, 6)])
        assert nested > flat


class _TaggedBytes(bytes):
    """A ``bytes`` subclass: carries a ``__dict__``, so ``sys.getsizeof``
    answers more than header plus payload."""


_SCALAR = st.one_of(
    st.binary(max_size=120), st.text(max_size=40), st.integers(),
    st.binary(max_size=20).map(bytearray),
    st.binary(max_size=20).map(_TaggedBytes),
)
_OBJECT = st.one_of(
    _SCALAR,
    st.tuples(st.binary(max_size=8), st.integers()),
    st.lists(st.text(max_size=5), max_size=4),
)
#: One strategy per column, so batches come out with an all-``bytes``
#: column, an all-something-else column, and every mix of the two.
_COLUMN = st.sampled_from([
    st.binary(max_size=120), st.just(b""), st.text(max_size=40),
    st.integers(), st.binary(max_size=20).map(_TaggedBytes), _SCALAR, _OBJECT,
])


class TestBatchEstimates:
    """The bulk gate sizes a batch a column at a time; the charges are
    the per-pair ones, value for value, whatever the column holds."""

    @given(st.data())
    def test_batch_equals_pair_by_pair(self, data):
        keys, values = data.draw(_COLUMN), data.draw(_COLUMN)
        batch = data.draw(st.lists(st.tuples(keys, values), max_size=60))
        assert estimate_pairs_bytes(batch) == [
            estimate_pair_bytes(key, value) for key, value in batch
        ]

    def test_bytes_are_sized_from_their_length(self, monkeypatch):
        column = [b"", b"k", b"x" * 10, b"y" * 1000]
        expected = [sys.getsizeof(value) for value in column]
        # Not measured object by object: sys.getsizeof is out of reach.
        monkeypatch.setattr(accountant, "sys", None)
        assert accountant._column_bytes(column) == expected

    @pytest.mark.parametrize("other", [
        _TaggedBytes(b"k"), bytearray(b"k"), "k", 7, (b"k",), None,
    ])
    def test_only_exact_bytes_take_the_length_arm(self, other):
        column = [b"a", other, b"bcd"]
        assert accountant._column_bytes(column) == [
            estimate_value_bytes(value) for value in column
        ]

    def test_a_column_of_a_bytes_subclass_is_still_measured(self):
        column = [_TaggedBytes(b"k"), _TaggedBytes(b"kk")]
        measured = [sys.getsizeof(value) for value in column]
        assert accountant._column_bytes(column) == measured
        assert measured[0] > sys.getsizeof(b"k")  # len would undercharge

    def test_sort_shaped_batch(self):
        batch = [(b"%010d" % i, b"v" * 88) for i in range(500)]
        assert estimate_pairs_bytes(batch) == [
            estimate_pair_bytes(key, value) for key, value in batch
        ]


class TestMemoryAccountant:
    def test_charge_and_release(self):
        acct = MemoryAccountant(1000)
        acct.charge(400)
        acct.charge(300)
        assert acct.current == 700
        acct.release(300)
        assert acct.current == 400
        assert acct.peak == 700

    def test_would_exceed(self):
        acct = MemoryAccountant(1000)
        acct.charge(900)
        assert acct.would_exceed(200)
        assert not acct.would_exceed(100)

    def test_charge_past_budget_raises(self):
        acct = MemoryAccountant(100)
        acct.charge(80)
        with pytest.raises(SpillError):
            acct.charge(50)
        # the failed charge must not corrupt the ledger
        assert acct.current == 80

    def test_release_all(self):
        acct = MemoryAccountant(1000)
        acct.charge(600)
        acct.release_all()
        assert acct.current == 0
        assert acct.peak == 600

    def test_invalid_budget(self):
        with pytest.raises(SpillError):
            MemoryAccountant(0)

    def test_peak_never_exceeds_budget(self):
        acct = MemoryAccountant(256)
        for _ in range(100):
            if acct.would_exceed(60):
                acct.release_all()
            acct.charge(60)
        assert acct.peak <= 256
