import subprocess
import sys
from datetime import datetime, timezone

import numpy as np
import pytest

from rateadapt.results import CcdfPoint, ccdf, setup_results_dir, write_ccdf_csv
from tests.reference import subprocess_env


class TestCcdf:
    def test_counting_definition(self):
        points = ccdf([1.0, 2.0, 3.0])
        assert points[0].prob == 1.0  # leading plot point below the minimum
        assert points[0].value < 1.0
        assert points[1:] == [CcdfPoint(1.0, 2 / 3), CcdfPoint(2.0, 1 / 3),
                              CcdfPoint(3.0, 0.0)]

    def test_degenerate_distribution(self):
        points = ccdf([5.0, 5.0, 5.0])
        assert len(points) == 2
        assert points[0].prob == 1.0 and points[0].value < 5.0
        assert points[1] == CcdfPoint(5.0, 0.0)

    def test_duplicates_counted_once(self):
        points = ccdf([1.0, 1.0, 2.0, 3.0])
        assert points[1:] == [CcdfPoint(1.0, 0.5), CcdfPoint(2.0, 0.25),
                              CcdfPoint(3.0, 0.0)]

    def test_prob_nonincreasing_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.uniform(0, 30, size=int(rng.integers(1, 50)))
            probs = [p.prob for p in ccdf(xs)]
            assert all(b <= a for a, b in zip(probs, probs[1:]))
            assert all(0.0 <= p <= 1.0 for p in probs)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        base = list(rng.uniform(0, 20, size=40))
        reference = ccdf(base)
        for _ in range(100):
            shuffled = list(base)
            rng.shuffle(shuffled)
            assert ccdf(shuffled) == reference

    def test_matches_group_by_reference(self):
        def reference(samples):
            xs = sorted(samples)
            n = len(xs)
            points, i = [], 0
            while i < n:
                v = xs[i]
                while i < n and xs[i] == v:
                    i += 1
                points.append(CcdfPoint(v, (n - i) / n))
            return points

        rng = np.random.default_rng(2)
        for k in range(400):
            n = int(rng.integers(1, 120))
            xs = [rng.normal(10, 5, n), np.round(rng.normal(10, 5, n), 1),
                  np.full(n, rng.normal()),
                  rng.choice([0.0, 1.5, 2.5, 65.0], n)][k % 4].tolist()
            assert ccdf(xs)[1:] == reference(xs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, value):
        # A NaN once made ccdf loop forever, so it runs in a child process
        # that the timeout stops.
        code = ("import sys\n"
                "from rateadapt.results import ccdf\n"
                "try:\n"
                "    ccdf([1.0, float(sys.argv[1]), 2.0])\n"
                "except ValueError as exc:\n"
                "    sys.exit(f'ValueError: {exc}')\n")
        proc = subprocess.run([sys.executable, "-c", code, value],
                              capture_output=True, text=True, timeout=60,
                              env=subprocess_env(), check=False)
        assert proc.returncode == 1
        assert "ValueError: ccdf samples must be finite" in proc.stderr

    def test_csv_output(self, tmp_path):
        path = tmp_path / "ccdf.csv"
        write_ccdf_csv(ccdf([1.0, 2.0]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "throughput_mbps,ccdf"
        assert lines[2] == "1.000000,0.500000"


class TestResultsDir:
    def test_creates_timestamped_folder(self, tmp_path):
        run = setup_results_dir(tmp_path, "train")
        assert run.is_dir()
        assert run.name.startswith("train_")

    def test_collision_gets_monotonic_suffix(self, tmp_path):
        now = datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
        a = setup_results_dir(tmp_path, "run", now=now)
        b = setup_results_dir(tmp_path, "run", now=now)
        c = setup_results_dir(tmp_path, "run", now=now)
        assert len({a, b, c}) == 3
        assert b.name == a.name + "_01"
        assert c.name == a.name + "_02"
