"""Fixed-capacity FIFO replay buffer of (s, a, r, s', done) transitions,
stored as five numpy columns."""

from __future__ import annotations

import numpy as np

# Column dtypes in (s, a, r, s_next, done) order.
_DTYPES = (float, int, float, float, bool)

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

    def push(self, s: float, a: int, r: float, s_next: float, done: bool):
        # The cursor reaches the columns' end only while they are shorter
        # than capacity: at capacity it wraps to 0 first.
        if self._next == len(self._columns[0]):
            rows = min(2 * self._next, self.capacity)
            self._columns = tuple(np.concatenate((c, np.empty(rows - len(c), c.dtype)))
                                  for c in self._columns)
        i = self._next
        s_col, a_col, r_col, s_next_col, done_col = self._columns
        s_col[i], a_col[i], r_col[i], s_next_col[i], done_col[i] = s, a, r, s_next, done
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """(s, a, r, s_next, done) arrays of batch_size rows drawn uniformly
        with replacement; the buffer must hold at least one row."""
        idx = rng.integers(0, self.size, size=batch_size)
        return tuple(column[idx] for column in self._columns)

    def clear(self):
        self._next = 0
        self.size = 0

    def contents(self):
        """(s, a, r, s_next, done) arrays of the stored rows, oldest first."""
        order = (np.arange(self.size) + self._next - self.size) % self.capacity
        return tuple(column[order] for column in self._columns)
