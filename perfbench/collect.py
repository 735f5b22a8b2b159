"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/collect.py --workloads train_default eval_grid sweep_dense \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--write-baseline]

Runs the command in BENCHMARK.json once per (workload, seed), one at a time,
and prints for every end-to-end metric the median of the per-run values and
their spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound. When perfbench/baseline.json exists, each median is also compared
with the baseline's: a change worse than the metric's bound is marked, as is
an output hash that differs for the same seed. With --write-baseline the
medians, quartiles and per-seed output hashes go to perfbench/baseline.json,
the numbers a later change is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "baseline.json"


def run_once(spec, workload, seed, seconds, trace=0):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher_is_better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    old = json.loads(BASELINE.read_text()) if BASELINE.is_file() else None
    baseline = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {},
                "outputs_sha256": {}}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        hashes = baseline["outputs_sha256"][workload] = {}
        for seed in args.seeds:
            record, result = run_once(spec, workload, seed, args.seconds)
            ok &= result["correct"] and result["failed"] == 0
            hashes[str(seed)] = record["outputs_sha256"]
            old_hashes = (old or {}).get("outputs_sha256", {}).get(workload, {}).get(str(seed))
            if old_hashes and old_hashes != hashes[str(seed)]:
                print(f"{workload} seed {seed}: outputs differ from the baseline")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            baseline.update({k: record[k] for k in ("commit", "nproc", "python", "numpy")})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(vals),
                             "spread": spread}
            line = (f"  {workload:14s} {name:16s} median={median:.6g} "
                    f"spread={spread:.4f} bound={bounds[name]} "
                    f"({spread / bounds[name]:.2f} of bound)")
            if old and workload in old["workloads"]:
                base = old["workloads"][workload][name]["median"]
                change = median / base - 1.0
                worse = -change if higher_is_better[name] else change
                line += (f" vs baseline {change:+.2%}"
                         + (" WORSE THAN BOUND" if worse > bounds[name] else ""))
            print(line)
        baseline["workloads"][workload] = summary
    if args.write_baseline:
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
