import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateadapt.replay import ReplayBuffer
from tests.reference import (TARGET_WIDTHS, ReferenceReplay, stale_target_mismatches,
                             subprocess_env)


def push_tags(tags, *buffers):
    """Push each tag's row to each buffer: s tag/100, a tag%8, r tag, s' tag/7, done if odd."""
    for tag in tags:
        for buf in buffers:
            buf.push(tag / 100.0, tag % 8, float(tag), tag / 7.0, tag % 2 == 1)


def encode(r, s_next, done):
    """A row-wise `targets` whose y carries the row's r, s_next and done."""
    return np.where(done, -1.0, 1.0) * (r + s_next / 1024)


# A generator stand-in whose draw is every slot, in slot order.
EVERY_SLOT = SimpleNamespace(integers=lambda low, high, size: np.arange(low, high))


def filled(capacity, tags):
    """A ReplayBuffer and a ReferenceReplay with the same pushes."""
    buf, ref = ReplayBuffer(capacity), ReferenceReplay(capacity)
    push_tags(tags, buf, ref)
    return buf, ref


def assert_same_draws(buf, ref, n, seed=None):
    """buf's (s, a, y) draw of n rows equals ref's, y = encode(r, s_next, done), under
    twin generators: default_rng(seed), or EVERY_SLOT with no seed; returns sorted tags."""
    twin = (lambda: EVERY_SLOT) if seed is None else (lambda: np.random.default_rng(seed))
    s, a, r, s_next, done = ref.sample(n, twin())
    got = buf.sample(n, twin(), encode)
    for g, want in zip(got, (s, a, encode(r, s_next, done)), strict=True):
        assert np.array_equal(g, want)
    return sorted(np.round(got[0] * 100).astype(int).tolist())


class TestPush:
    def test_fifo_eviction(self):
        buf, ref = filled(2, (1, 2, 3))
        assert assert_same_draws(buf, ref, buf.size) == [2, 3]

    def test_size_counts_up_to_capacity(self):
        buf = ReplayBuffer(5)
        for i in range(3):
            push_tags([i], buf)
            assert buf.size == i + 1
        push_tags(range(10), buf)
        assert buf.size == 5

    def test_large_capacity_accepted(self):
        buf = ReplayBuffer(10**6)
        push_tags([0], buf)
        assert buf.capacity == 10**6

    def test_clear_restarts_empty(self):
        buf, ref = filled(3, range(5))
        buf.clear()
        ref.clear()
        assert buf.size == 0
        push_tags((8, 9), buf, ref)
        assert assert_same_draws(buf, ref, buf.size) == [8, 9]

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=60))
    @settings(max_examples=50)
    def test_never_exceeds_capacity_and_keeps_newest(self, cap, n):
        buf, ref = filled(cap, range(n))
        assert buf.size == min(n, cap)
        assert assert_same_draws(buf, ref, buf.size) == list(range(max(0, n - cap), n))


class TestSample:
    def test_exact_batch_size(self):
        buf = ReplayBuffer(100)
        push_tags(range(10), buf)
        batch = buf.sample(64, np.random.default_rng(0), encode)
        assert [len(column) for column in batch] == [64] * 3

    def test_single_item_buffer(self):
        buf, ref = filled(10, [7])
        assert assert_same_draws(buf, ref, 5, seed=0) == [7] * 5

    def test_uniformity(self):
        buf = ReplayBuffer(10)
        push_tags(range(10), buf)
        s, _, _ = buf.sample(100_000, np.random.default_rng(123), encode)
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
        for tag in range(5000):
            if tag == 2600:
                buf.clear()
                ref.clear()
            push_tags([tag], buf, ref)
            if tag % 97 == 0 or tag == 4999:
                assert_same_draws(buf, ref, 64, seed=tag)
                assert_same_draws(buf, ref, buf.size)
        assert len(buf._columns[0]) <= capacity


@pytest.mark.parametrize("batch_size", [1, 2, 5, 64])
def test_cached_targets_are_fresh_and_computed_in_chunks(batch_size):
    # y is r plus the target "version", which each mark_stale bumps. A row's
    # y is computed at most once after each push and each mark_stale, in
    # calls of at most batch_size rows and, unless batch_size is 1, at least
    # 2; a 37-row ring wraps and is cleared.
    buf, rng, version, calls = ReplayBuffer(37), np.random.default_rng(batch_size), [0], []

    def targets(r, s_next, done):
        calls.append((len(r), len(set(r.tolist()))))
        return r + version[0]

    stale_events = 0
    for tag in range(300):
        push_tags([tag], buf)
        stale_events += 1
        if tag == 150:
            buf.clear()
        elif tag % 3 == 0:
            s, _, y = buf.sample(batch_size, rng, targets)
            assert np.array_equal(y, np.round(s * 100) + version[0])
        if tag % 50 == 49:
            version[0] += 1000
            stale_events += buf.size
            buf.mark_stale()
    sizes, rows = zip(*calls)
    assert all(2 <= n <= batch_size if batch_size > 1 else n == 1 for n in sizes)
    assert sum(rows) <= stale_events


# OpenBLAS kernels by the /proc/cpuinfo flags each needs.
OPENBLAS_CORES = {"Prescott": {"pni"}, "Sandybridge": {"avx"}, "Haswell": {"avx2", "fma"},
                  "SkylakeX": {"avx512f", "avx512bw", "avx512vl", "avx512dq", "avx512cd"}}


def test_cached_targets_equal_one_forward_of_the_drawn_batch():
    # In this process, then in a child per OpenBLAS kernel this CPU runs,
    # one at a time, with OPENBLAS_CORETYPE set in the child's environment.
    code = ("import json; from tests.reference import TARGET_WIDTHS, stale_target_mismatches; "
            "print(json.dumps([stale_target_mismatches(h) for h in TARGET_WIDTHS]))")
    try:
        flags = set(next(line for line in Path("/proc/cpuinfo").read_text().splitlines()
                         if line.startswith("flags")).split())
    except (OSError, StopIteration):
        flags = set()
    counts = {"in process": [stale_target_mismatches(h) for h in TARGET_WIDTHS]}
    for core in (core for core, needs in OPENBLAS_CORES.items() if needs <= flags):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=Path(__file__).resolve().parents[1], timeout=120, check=True,
                              env={**subprocess_env(), "OPENBLAS_CORETYPE": core})
        counts[core] = json.loads(proc.stdout)
    assert counts == dict.fromkeys(counts, [0] * len(TARGET_WIDTHS))
