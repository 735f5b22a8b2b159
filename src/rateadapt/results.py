"""Results-folder setup and throughput statistics (CCDF) for plotting."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CcdfPoint:
    value: float
    prob: float  # P(X > value)


def ccdf(samples) -> list[CcdfPoint]:
    """Empirical complementary CDF: for each distinct sorted value v,
    P(X > v) = (#samples strictly greater than v) / n.

    A leading point just below the minimum with probability 1.0 is prepended
    so plots start at the top of the axis. Raises ValueError on no samples
    or a non-finite one.
    """
    xs = np.asarray(list(samples), dtype=float)
    if not xs.size:
        raise ValueError("ccdf needs at least one sample")
    if not np.isfinite(xs).all():
        raise ValueError("ccdf samples must be finite")
    values, counts = np.unique(xs, return_counts=True)
    probs = (xs.size - np.cumsum(counts)) / xs.size
    lo, hi = float(values[0]), float(values[-1])
    margin = 0.01 * (hi - lo) if hi > lo else max(abs(lo) * 1e-9, 1e-9)
    return [CcdfPoint(lo - margin, 1.0),
            *map(CcdfPoint, values.tolist(), probs.tolist())]


def csv_writer(f):
    """The one CSV dialect of every results file (Unix line ends)."""
    return csv.writer(f, lineterminator="\n")


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv_writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_ccdf_csv(points, path):
    write_csv(path, ("throughput_mbps", "ccdf"),
              ((f"{p.value:.6f}", f"{p.prob:.6f}") for p in points))


def setup_results_dir(base, run_name: str, now: datetime | None = None) -> Path:
    """Create `<base>/<run_name>_<UTC timestamp>/`, adding a monotonic suffix
    when two runs collide within the same second."""
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    stamp = (now or datetime.now(timezone.utc)).strftime("%Y%m%dT%H%M%SZ")
    candidate = base / f"{run_name}_{stamp}"
    suffix = 0
    while True:
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = base / f"{run_name}_{stamp}_{suffix:02d}"
