import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateadapt.replay import ReplayBuffer
from tests.reference import ReferenceReplay


def push_tags(buf: ReplayBuffer, tags):
    """Push one transition per tag; its state is tag/100 and its action tag%8."""
    for tag in tags:
        buf.push(tag / 100.0, tag % 8, float(tag), 0.5, tag % 2 == 1)


def columns_of(tags):
    """The (s, a, r, s_next, done) columns push_tags writes for `tags`."""
    tags = np.asarray(list(tags), dtype=int)
    return (tags / 100.0, tags % 8, tags.astype(float),
            np.full(len(tags), 0.5), tags % 2 == 1)


def assert_columns_equal(got, want):
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class TestPush:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(2)
        push_tags(buf, (1, 2, 3))
        assert_columns_equal(buf.contents(), columns_of((2, 3)))

    def test_size_counts_up_to_capacity(self):
        buf = ReplayBuffer(5)
        for i in range(3):
            push_tags(buf, [i])
            assert buf.size == i + 1
        push_tags(buf, range(10))
        assert buf.size == 5

    def test_large_capacity_accepted(self):
        buf = ReplayBuffer(10**6)
        push_tags(buf, [0])
        assert buf.capacity == 10**6

    def test_clear_restarts_empty(self):
        buf = ReplayBuffer(3)
        push_tags(buf, range(5))
        buf.clear()
        assert buf.size == 0
        push_tags(buf, (8, 9))
        assert_columns_equal(buf.contents(), columns_of((8, 9)))

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=60))
    @settings(max_examples=50)
    def test_never_exceeds_capacity_and_keeps_newest(self, cap, n):
        buf = ReplayBuffer(cap)
        push_tags(buf, range(n))
        assert buf.size == min(n, cap)
        assert_columns_equal(buf.contents(), columns_of(range(max(0, n - cap), n)))


class TestSample:
    def test_exact_batch_size(self):
        buf = ReplayBuffer(100)
        push_tags(buf, range(10))
        batch = buf.sample(64, np.random.default_rng(0))
        assert [len(column) for column in batch] == [64] * 5

    def test_single_item_buffer(self):
        buf = ReplayBuffer(10)
        push_tags(buf, [7])
        batch = buf.sample(5, np.random.default_rng(0))
        assert_columns_equal(batch, columns_of([7] * 5))

    def test_uniformity(self):
        buf = ReplayBuffer(10)
        push_tags(buf, range(10))
        rng = np.random.default_rng(123)
        s, _, _, _, _ = buf.sample(100_000, rng)
        freqs = np.bincount(np.round(s * 100).astype(int), minlength=10) / 100_000
        assert np.all(np.abs(freqs - 0.1) < 0.01)


class TestGrowth:
    def test_fresh_large_buffer_holds_under_one_mb(self):
        buf = ReplayBuffer(10**6)
        assert sum(column.nbytes for column in buf._columns) < 2**20

    # Capacities below, at and beyond the initial rows, a power of two and
    # not; 5,000 pushes wrap each ring, and a clear() midway restarts it.
    @pytest.mark.parametrize("capacity", [1, 3, 1024, 1500, 4096, 10**6])
    def test_matches_fixed_capacity_reference(self, capacity):
        buf, ref = ReplayBuffer(capacity), ReferenceReplay(capacity)
        rng_a, rng_b = np.random.default_rng(capacity), np.random.default_rng(capacity)
        for tag in range(5000):
            if tag == 2600:
                buf.clear()
                ref.clear()
            row = (tag / 100.0, tag % 8, float(tag), tag / 7.0, tag % 2 == 1)
            buf.push(*row)
            ref.push(*row)
            if tag % 97 == 0 or tag == 4999:
                assert buf.size == len(ref.rows)
                assert_columns_equal(buf.contents(), ref.contents())
                assert_columns_equal(buf.sample(64, rng_a), ref.sample(64, rng_b))
        assert len(buf._columns[0]) <= capacity
