"""Closed-loop benchmark of the rateadapt package, driven from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 25 --trace 0

One process and one caller: each call into the package waits for the last to
finish. The workload seed is turned into configs here; the package only sees
those configs. A run sets the workload up several times (setup_s is their
median), then repeats the timed phase until --seconds have passed and reports
medians over those repetitions. Every repetition's outputs are checked and
hashed; the same seed must give the same hashes on every repetition.

Times are host seconds scaled to a reference host speed. On a shared host the
same code runs tens of percent faster or slower from one minute to the next,
so a fixed calibration kernel that uses nothing from the package runs before
and after each timed span and about four times a second inside it; host
seconds are multiplied by CAL_REFERENCE_S over the kernel's mean duration.
The run record keeps the unscaled host seconds as well.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the run makes one untraced and one traced repetition and reports
per-layer counts and seconds, taken by wrapping the package's public
functions (see `span_sites`). The line before the result is the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Seconds one calibration kernel takes at the reference host speed; every
# reported time is host seconds scaled by this over the kernel's time around
# the measurement.
CAL_REFERENCE_S = 0.008
CAL_SAMPLES = 7
# Inside an untraced span, a shorter calibration runs from the LinkSimEnv.step
# hook once per CAL_PERIOD_S, so that the scale follows the host's speed
# through a repetition of several seconds.
CAL_PERIOD_S = 0.25
CAL_POLL_SAMPLES = 3

WORKLOADS = ("train_default", "eval_grid", "sweep_dense")
EVAL_ALGORITHMS = ("dara", "dara_tabular", "ideal", "minstrel_like", "constant")
# Settings a smoke test uses to run a workload at a tiny size.
TINY = {("sim", "duration_s"): 3.0, ("agent", "warmup"): 64}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "throughput_mbps": "Mbit/s",
    "success_ratio": "ratio",
}

# Spans whose .calls, .s or .self_s are reported.
SPAN_METRICS = {
    "phy.snr_db": ("calls", "s"),
    "phy.frame_success_prob": ("calls", "s"),
    "env.step": ("calls", "self_s"),
    "env.reset": ("calls",),
    "agents.select_action": ("calls", "s"),
    "nn.mlp_forward": ("calls", "s"),
    "dqn.dqn_train_step": ("calls", "self_s"),
    "nn.adam_step": ("s",),
    "replay.push": ("calls", "s"),
    "replay.sample": ("calls", "s"),
    "tabular.row": ("calls",),
    "checkpoint.save": ("calls", "s"),
    "checkpoint.load": ("s",),
    "config.validate_config": ("calls", "s"),
    "results.ccdf": ("s",),
    "harness.run_training": ("self_s",),
    "harness.run_evaluation": ("self_s",),
    "harness.run_sweep": ("self_s",),
}
DERIVED_UNITS = {
    "phy.snr_db.calls_per_window": "count",
    "dqn.target_syncs": "count",
    "replay.fill": "count",
    "checkpoint.save.bytes": "bytes",
    "harness.output_bytes": "bytes",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{span}.{kind}": "count" if kind == "calls" else "s"
             for span, kinds in SPAN_METRICS.items() for kind in kinds}
    units.update(DERIVED_UNITS)
    return units


def import_package():
    """Import rateadapt from this checkout's src/ and nowhere else."""
    if not (SRC / "rateadapt" / "__init__.py").is_file():
        raise SystemExit(f"error: no rateadapt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rateadapt
    from rateadapt import (agents, checkpoint, config, dqn, env, harness, nn,
                           phy, replay, results, tabular)
    if Path(rateadapt.__file__).resolve().parent != SRC / "rateadapt":
        raise SystemExit(f"error: imported rateadapt from {rateadapt.__file__}")
    return argparse.Namespace(
        agents=agents, checkpoint=checkpoint, config=config, dqn=dqn, env=env,
        harness=harness, nn=nn, phy=phy, replay=replay, results=results,
        tabular=tabular)


# -- tracing -----------------------------------------------------------------

def span_sites(ra):
    """(span name, owner, attribute) for every wrapped call boundary.

    Names bound with `from x import f` are wrapped where the caller looks
    them up. `nn.mlp_forward` is wrapped at the agents' binding, so it counts
    single-observation passes only; `nn.init_mlp` and `nn.MlpParams.copy`
    are kept to derive the number of target-network syncs.
    """
    a = ra.agents
    agent_classes = (a.DaraAgent, a.TabularDaraAgent, a.IdealAgent,
                     a.MinstrelLikeAgent, a.ConstantAgent)
    return [
        ("phy.snr_db", ra.phy, "snr_db"),
        ("phy.frame_success_prob", ra.phy, "frame_success_prob"),
        ("env.step", ra.env.LinkSimEnv, "step"),
        ("env.reset", ra.env.LinkSimEnv, "reset"),
        *[("agents.select_action", cls, "select_action") for cls in agent_classes],
        ("nn.mlp_forward", a, "mlp_forward"),
        ("nn.init_mlp", ra.harness, "init_mlp"),
        ("nn.MlpParams.copy", ra.nn.MlpParams, "copy"),
        ("dqn.dqn_train_step", ra.harness, "dqn_train_step"),
        ("nn.adam_step", ra.dqn, "adam_step"),
        ("replay.push", ra.replay.ReplayBuffer, "push"),
        ("replay.sample", ra.replay.ReplayBuffer, "sample"),
        ("tabular.row", ra.tabular.QTable, "row"),
        ("checkpoint.save", ra.checkpoint, "save"),
        ("checkpoint.load", ra.checkpoint, "load"),
        ("config.validate_config", ra.config, "validate_config"),
        ("results.ccdf", ra.results, "ccdf"),
        ("harness.run_training", ra.harness, "run_training"),
        ("harness.run_evaluation", ra.harness, "run_evaluation"),
        ("harness.run_sweep", ra.harness, "run_sweep"),
    ]


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Per-span call counts, inclusive seconds and seconds spent in traced
    children, kept in memory; uses only counters and time.perf_counter."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, child_s]
        self.replay_fill = 0
        self.saved_bytes = 0
        self._stack = []

    def wrapper(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += dt
                if after is not None:
                    after(args)
        return traced

    def install(self, ra, patches: Patches):
        hooks = {"replay.push": self._after_push, "checkpoint.save": self._after_save}
        for name, owner, attr in span_sites(ra):
            patches.set(owner, attr,
                        self.wrapper(name, getattr(owner, attr), hooks.get(name)))

    def _after_push(self, args):
        self.replay_fill = max(self.replay_fill, args[0].size)

    def _after_save(self, args):
        self.saved_bytes += Path(args[0]).stat().st_size

    def value(self, name, kind):
        calls, total, child = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": total - child}[kind]


def count_windows(ra, patches: Patches, poll):
    """Count LinkSimEnv.step calls and call `poll` after each: the only hook
    in an untraced span."""
    counter = [0]
    step = ra.env.LinkSimEnv.step

    def counted(self, action):
        counter[0] += 1
        result = step(self, action)
        poll()
        return result
    patches.set(ra.env.LinkSimEnv, "step", counted)
    return counter


# -- host speed ----------------------------------------------------------------

class HostSpeed:
    """Calibration samples taken around a measurement and, through `poll`,
    every CAL_PERIOD_S inside it. Host seconds times `scale` give seconds at
    the reference host speed."""

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples = []
        self.inside_s = 0.0  # seconds spent calibrating inside the measurement
        # The kernel writes only into these arrays: an allocation at a moment
        # that depends on the host's speed would move the heap layout, and
        # with it the peak RSS, from run to run.
        self._x = np.arange(64.0)
        self._w = np.ones((64, 8))
        self._tmp = np.empty(64)
        self._out = np.empty(8)
        self._last = time.perf_counter()

    def kernel(self) -> float:
        """Fixed interpreter and small-numpy work that uses nothing from the
        package, so its duration follows the host's speed and no code change."""
        total = 0.0
        for i in range(15000):
            total += math.log10(1.0 + i)
            if i % 10 == 0:
                np.multiply(self._x, -0.01, out=self._tmp)
                np.exp(self._tmp, out=self._tmp)
                np.dot(self._tmp, self._w, out=self._out)
                total += float(self._out[3])
        return total

    def sample(self, kernels=CAL_SAMPLES) -> float:
        """Record the median seconds of `kernels` kernels; returns the
        seconds this took."""
        t0 = time.perf_counter()
        times = []
        for _ in range(kernels):
            k0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - k0)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()
        return self._last - t0

    def poll(self):
        if time.perf_counter() - self._last >= self.period_s:
            self.inside_s += self.sample(CAL_POLL_SAMPLES)

    @property
    def scale(self) -> float:
        return CAL_REFERENCE_S / statistics.fmean(self.samples)


def timed(fn, ra, tracer: Tracer | None = None, polled=True):
    """Run fn() between two host-speed calibrations.

    Untraced, a LinkSimEnv.step hook counts windows and, if `polled`,
    calibrates about every CAL_PERIOD_S; traced, the tracer's wrappers are
    installed instead. Returns (result, host seconds without calibration
    time, factor to the reference host speed, windows stepped).
    """
    speed = HostSpeed(CAL_PERIOD_S if polled else math.inf)
    patches = Patches()
    if tracer is not None:
        tracer.install(ra, patches)
    else:
        windows = count_windows(ra, patches, speed.poll)
    try:
        speed.sample()
        t0 = time.perf_counter()
        result = fn()
        host_s = time.perf_counter() - t0 - speed.inside_s
        speed.sample()
    finally:
        patches.restore()
    n_windows = tracer.value("env.step", "calls") if tracer else windows[0]
    return result, host_s, speed.scale, n_windows


# -- workloads -----------------------------------------------------------------

def build_config(ra, seed, overrides, tiny):
    """Validated config: the shipped reference config with agent seed `seed`."""
    data = json.loads(ra.config.reference_config_text())
    data["agent"]["seed"] = seed
    for (section, key), value in {**overrides, **(TINY if tiny else {})}.items():
        data[section][key] = value
    return ra.config.validate_config(json.dumps(data))


def read_csv_rows(path):
    with open(path, encoding="utf-8") as f:
        header = next(f).strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in f if line.strip()]


def failed_episodes(path, n_episodes):
    """Failed episodes in an episodes.csv: missing rows, non-finite values or
    a decreasing train-step count."""
    if not path.is_file():
        return n_episodes
    bad, last_steps = 0, 0
    rows = read_csv_rows(path)
    for row in rows:
        values = [float(v) for v in row.values()]
        steps = int(row["train_steps"])
        if not all(math.isfinite(v) for v in values) or steps < last_steps:
            bad += 1
        last_steps = max(last_steps, steps)
    return bad + max(0, n_episodes - len(rows))


def dqn_arrays(ckpt):
    """Network weights and Adam moments of a DQN checkpoint, in a fixed order."""
    p, o = ckpt.params, ckpt.opt
    return [*p.weights, *p.biases, *o.m_w, *o.v_w, *o.m_b, *o.v_b]


class TrainDefault:
    """One run_training with the reference config: DQN [16,16,16], 15 x 60 s
    episodes, train_every 8."""

    def __init__(self, ra, seed, tiny=False):
        self.ra = ra
        self.cfg = build_config(ra, seed, {}, tiny)
        self.episodes = self.cfg["agent"]["episodes"]
        self.ops = self.episodes

    def setup(self, work: Path):
        pass

    def run(self, out: Path):
        return self.ra.harness.run_training(self.cfg, out)

    def check(self, out: Path, result) -> int:
        failed = failed_episodes(out / "episodes.csv", self.episodes)
        _, ckpt = result
        loaded = self.ra.checkpoint.load(out / f"policy_ep{self.episodes:03d}.ckpt")
        mem, disk = dqn_arrays(ckpt), dqn_arrays(loaded)
        same = (len(mem) == len(disk) and loaded.train_step == ckpt.train_step
                and all(m.dtype == d.dtype and m.shape == d.shape
                        and m.tobytes() == d.tobytes() for m, d in zip(mem, disk)))
        return failed + (0 if same else 1)

    def throughput(self, out: Path, result) -> float:
        summaries, _ = result
        return summaries[-1].mean_throughput_mbps


class EvalGrid:
    """Frozen-policy run_evaluation of every algorithm on ten eval seeds,
    then results.ccdf over the throughput logs. The DQN and tabular policies
    come from 3-episode training runs in set-up and are read back with
    checkpoint.load, as `rateadapt eval` does.

    The policies are trained with the fixed seed POLICY_SEED and only the
    eval seeds follow the workload seed: a 3-episode policy varies so much
    from seed to seed that its throughput would hide a change in results.
    """

    TRAIN_EPISODES = 3
    POLICY_SEED = 1

    def __init__(self, ra, seed, tiny=False):
        self.ra = ra
        self.cfgs = {alg: build_config(
            ra, self.POLICY_SEED, {("agent", "algorithm"): alg,
                       ("agent", "episodes"): self.TRAIN_EPISODES}, tiny)
            for alg in EVAL_ALGORITHMS}
        self.eval_seeds = range(99 + seed, 109 + seed)
        self.max_rate = self.cfgs["dara"].mcs_table().max_rate_mbps
        self.ops = len(EVAL_ALGORITHMS) * len(self.eval_seeds)
        self.ckpt_paths = {}

    def setup(self, work: Path):
        for alg in ("dara", "dara_tabular"):
            self.ra.harness.run_training(self.cfgs[alg], work / alg)
            self.ckpt_paths[alg] = work / alg / f"policy_ep{self.TRAIN_EPISODES:03d}.ckpt"

    def run(self, out: Path):
        ra = self.ra
        summaries = {}
        for alg, cfg in self.cfgs.items():
            ckpt = None
            if alg in self.ckpt_paths:
                ckpt = ra.checkpoint.load(self.ckpt_paths[alg],
                                          expected_fingerprint=cfg.fingerprint())
            for s in self.eval_seeds:
                summaries[alg, s], _ = ra.harness.run_evaluation(
                    cfg, ckpt, out / alg / f"seed{s}", seed=s)
        samples = [float(row["throughput_mbps"])
                   for log in sorted(out.rglob("throughput_*.csv"))
                   for row in read_csv_rows(log)]
        ra.results.write_ccdf_csv(ra.results.ccdf(samples), out / "ccdf.csv")
        return summaries

    def check(self, out: Path, result) -> int:
        failed = 0
        for (alg, s), summary in result.items():
            values = [summary.mean_throughput_mbps] + [
                float(row["throughput_mbps"])
                for row in read_csv_rows(out / alg / f"seed{s}" / "throughput_eval.csv")]
            failed += not all(0.0 <= v <= self.max_rate for v in values)
        return failed + self.ops - len(result)

    def throughput(self, out: Path, result) -> float:
        return statistics.fmean(summary.mean_throughput_mbps
                                for (alg, _), summary in result.items() if alg == "dara")


class SweepDense:
    """run_sweep over lr {0.01, 0.001} x arch {32x32, 64x64} with 3 episodes
    per cell and train_every 1: the batch-64 learner dominates."""

    def __init__(self, ra, seed, tiny=False):
        self.ra = ra
        self.base = build_config(ra, seed, {("agent", "episodes"): 3,
                                            ("agent", "train_every"): 1}, tiny)
        self.sweep = ra.harness.SweepConfig((0.01, 0.001), ((32, 32), (64, 64)),
                                            (seed,))

    @property
    def ops(self):
        s = self.sweep
        return len(s.learning_rates) * len(s.architectures) * len(s.seeds)

    def setup(self, work: Path):
        pass

    def run(self, out: Path):
        return self.ra.harness.run_sweep(self.sweep, self.base, out)

    def check(self, out: Path, result) -> int:
        return sum(1 for row in result if row["error"]) + self.ops - len(result)

    def throughput(self, out: Path, result) -> float:
        finals = [float(read_csv_rows(path)[-1]["mean_throughput_mbps"])
                  for path in sorted(out.glob("cell_*/episodes.csv"))]
        return statistics.fmean(finals)


WORKLOAD_CLASSES = {"train_default": TrainDefault, "eval_grid": EvalGrid,
                    "sweep_dense": SweepDense}


# -- measurement ---------------------------------------------------------------

def outputs_digest(out: Path) -> str:
    """SHA-256 over every episodes.csv and throughput_*.csv, by relative path."""
    h = hashlib.sha256()
    files = [p for p in out.rglob("*.csv")
             if p.name == "episodes.csv" or p.name.startswith("throughput_")]
    for path in sorted(files, key=lambda p: p.relative_to(out).as_posix()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def cold_import():
    """Import the package's CLI module in a fresh interpreter, as every
    `rateadapt` command does; part of each set-up."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import rateadapt.cli"], env=env,
                   check=True)


def summarize(values, unit):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"unit": unit, "n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


class Rep:
    """One repetition of the timed phase and its checks."""

    def __init__(self, workload, ra, out: Path, tracer: Tracer | None, polled=True):
        result, self.host_wall_s, self.scale, self.windows = timed(
            lambda: workload.run(out), ra, tracer, polled)
        self.wall_s = self.host_wall_s * self.scale
        self.failed = workload.check(out, result)
        self.throughput = workload.throughput(out, result)
        self.digest = outputs_digest(out)
        self.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def trace_metrics(tracer: Tracer, traced: Rep, untraced: Rep) -> dict:
    values = {f"{span}.{kind}": tracer.value(span, kind) * (
                  1 if kind == "calls" else traced.scale)
              for span, kinds in SPAN_METRICS.items() for kind in kinds}
    windows = tracer.value("env.step", "calls")
    values.update({
        "phy.snr_db.calls_per_window":
            tracer.value("phy.snr_db", "calls") / windows if windows else 0.0,
        "dqn.target_syncs": (tracer.value("nn.MlpParams.copy", "calls")
                             - tracer.value("nn.init_mlp", "calls")),
        "replay.fill": tracer.replay_fill,
        "checkpoint.save.bytes": tracer.saved_bytes,
        "harness.output_bytes": traced.output_bytes,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.traced_wall_s": traced.wall_s,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s,
    })
    return values


def measure(name, seed, seconds, trace, tiny=False, adjust=None):
    """Set up and run one workload; returns (result line, run record).

    `adjust`, if given, is called with the built workload before set-up.
    """
    loadavg = Path("/proc/loadavg").read_text().split()[:3] if Path(
        "/proc/loadavg").exists() else []
    ra = import_package()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}_", dir=WORK))
    try:
        def set_up():
            cold_import()
            workload = WORKLOAD_CLASSES[name](ra, seed, tiny)
            if adjust is not None:
                adjust(workload)
            workload.setup(work / "setup")
            return workload

        # Set-up and the first repetition run without time-triggered
        # calibration, so that every allocation before the RSS reading after
        # the first repetition comes at the same point on every run.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload, host_s, scale, _ = timed(set_up, ra, polled=False)
            setup_times.append(host_s * scale)

        reps, attempted, failed = [], 0, 0
        traced = tracer = None
        start = time.perf_counter()
        while not reps or (not trace and time.perf_counter() - start < seconds):
            out = work / f"rep{len(reps):03d}"
            attempted += workload.ops
            try:
                rep = Rep(workload, ra, out, None, polled=bool(reps))
            except Exception:  # noqa: BLE001 - a raised error is a counted failure
                traceback.print_exc()
                failed += workload.ops
                break
            failed += rep.failed
            if not reps:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reps.append(rep)
            shutil.rmtree(out)
        if trace and reps:
            tracer = Tracer()
            out = work / "traced"
            attempted += workload.ops
            try:
                traced = Rep(workload, ra, out, tracer)
                failed += traced.failed
            except Exception:  # noqa: BLE001
                traceback.print_exc()
                failed += workload.ops
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    if not reps or (trace and traced is None):
        raise SystemExit(f"error: workload {name} did not complete a repetition")

    digests = sorted({rep.digest for rep in reps + ([traced] if traced else [])})
    if trace:
        units = per_layer_units()
        values = trace_metrics(tracer, traced, reps[0])
        samples = {k: [v] for k, v in values.items()}
    else:
        units = END_TO_END_UNITS
        samples = {
            "setup_s": setup_times,
            "wall_s": [r.wall_s for r in reps],
            "windows_per_s": [r.windows / r.wall_s for r in reps],
            "peak_rss_mb": [peak_rss_mb],
            "throughput_mbps": [r.throughput for r in reps],
            "success_ratio": [1.0 - failed / attempted],
        }
    stats = {k: summarize(v, units[k]) for k, v in samples.items()}
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": s["unit"]} for k, s in stats.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "loadavg_start": loadavg, "repetitions": len(reps),
        "outputs_sha256": digests, "metrics": stats,
        "host_wall_s": summarize([r.host_wall_s for r in reps], "s"),
        "host_speed_scale": summarize([r.scale for r in reps], "ratio"),
    }
    return result, record


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
