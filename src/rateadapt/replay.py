"""Fixed-capacity FIFO replay buffer of (s, a, r, s', done) transitions,
stored as five numpy columns, plus each row's cached learning target."""

from __future__ import annotations

import numpy as np

# Column dtypes: the (s, a, r, s_next, done) transition (a: an MCS index), then y.
_DTYPES = (float, np.int8, float, float, bool, float)

# Rows of a fresh buffer's columns; they double as pushes fill them.
_INITIAL_ROWS = 1024


class ReplayBuffer:
    """Ring buffer; once full, pushes overwrite strictly oldest-first.

    The columns start small and double, up to `capacity` rows, as pushes
    fill them, so a large capacity costs memory only in proportion to the
    rows written.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        rows = min(self.capacity, _INITIAL_ROWS)
        self._columns = tuple(np.empty(rows, dtype=t) for t in _DTYPES)
        self._next = 0
        self.size = 0
        self._stale = 0  # the newest this many rows' y are stale

    def push(self, s: float, a: int, r: float, s_next: float, done: bool):
        # The cursor reaches the columns' end only while they are shorter
        # than capacity: at capacity it wraps to 0 first.
        if self._next == len(self._columns[0]):
            rows = min(2 * self._next, self.capacity)
            columns, self._columns = list(self._columns), ()
            for j, c in enumerate(columns):  # an old column is freed once it is copied
                columns[j] = np.concatenate((c, np.empty(rows - len(c), c.dtype)))
            self._columns = tuple(columns)
        i = self._next
        s_col, a_col, r_col, s_next_col, done_col, _ = self._columns
        s_col[i], a_col[i], r_col[i], s_next_col[i], done_col[i] = s, a, r, s_next, done
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self._stale += 1

    def sample(self, batch_size: int, rng: np.random.Generator, targets):
        """(s, a, y) arrays of batch_size rows drawn uniformly with
        replacement; the buffer must hold at least one row.

        `targets` maps (r, s_next, done) arrays to their y, which is cached
        per row until a push overwrites the row or `mark_stale`, so the stale
        rows are the newest. A draw that hits one first computes all their y
        in calls of 2 to batch_size rows, which give each row the same bits
        (a lone row goes twice), or of 1 at batch_size 1.
        """
        idx = rng.integers(0, self.size, size=batch_size)
        s, a, r, s_next, done, y = self._columns
        if self._stale and ((self._next - 1 - idx) % self.capacity < self._stale).any():
            first = self._next - min(self._stale, self.size)  # may wrap below 0
            for start in range(first, self._next, batch_size):
                chunk = np.arange(start, min(start + batch_size, self._next)) % self.capacity
                if len(chunk) < 2 <= batch_size:
                    chunk = np.repeat(chunk, 2)
                y[chunk] = targets(r[chunk], s_next[chunk], done[chunk])
            self._stale = 0
        return s[idx], a[idx], y[idx]

    def mark_stale(self):
        """Mark every row's cached target stale, as a new target network does."""
        self._stale = self.capacity

    def clear(self):
        self._next = 0
        self.size = 0
