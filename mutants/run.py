"""Run the mutation catalogue against the fast suite and write the report.

    python3 mutants/run.py [--timeout S] [--only ID ...]

It first runs the fast suite on an unmutated copy of the checkout, where
tests/test_mutants.py refuses a catalogue whose ids repeat or whose `old`
texts do not occur exactly once. Then, for each entry of
mutants/catalogue.py, it copies the checkout's src/, tests/, perfbench/,
mutants/, README.md, pyproject.toml and BENCHMARK.json to a temporary
folder (the tests read perfbench/run.py and README.md by path, and
perfbench refuses a package from outside its own src/), puts the mutation
in, and runs the fast suite there with PYTHONPATH at the copy's src/. The
tests that fail kill the mutant; a run that outlasts the timeout kills it
by timeout. It writes mutants/REPORT.md: per mutant, the tests that kill
it, and every test that kills none.

At most len(os.sched_getaffinity(0)) suites run at once. Each suite runs
in its own process group, which is killed on a timeout, on Ctrl-C or on
SIGTERM, and every temporary copy is removed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORT = ROOT / "mutants" / "REPORT.md"
COPIED = ("src", "tests", "perfbench", "mutants", "README.md", "pyproject.toml",
          "BENCHMARK.json")
PYTEST = ["-m", "pytest", "-m", "not acceptance", "-q", "-p", "no:cacheprovider",
          "-rfE", "--hypothesis-seed=0"]
# It checks the catalogue against the unmutated tree, so every mutant fails
# it; it runs only in the unmutated suite.
CATALOGUE_TEST = "tests/test_mutants.py"
WITHOUT_CATALOGUE_TEST = f"--ignore={CATALOGUE_TEST}"


def load_catalogue():
    spec = importlib.util.spec_from_file_location("catalogue", ROOT / "mutants" / "catalogue.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failed_ids(output: str):
    """The test IDs (or files, for a collection error) in pytest's
    `-rfE` summary: `FAILED <id> - <message>` and `ERROR <id> ...`."""
    return sorted({line.split(" ", 1)[1].split(" - ", 1)[0]
                   for line in output.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))})


class Runner:
    """Copies of the checkout under one temporary root, and the pytest
    process groups running in them, which `stop` kills."""

    def __init__(self, tmp: Path, timeout: float):
        self.tmp, self.timeout = tmp, timeout
        self._live, self._lock, self._stopping = set(), threading.Lock(), False

    def copy(self, name: str, mutant=None) -> Path:
        dest = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.tmp))
        for item in COPIED:
            if (ROOT / item).is_dir():
                shutil.copytree(ROOT / item, dest / item, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / item, dest / item)
        if mutant is not None:
            path = dest / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        return dest

    def pytest(self, cwd: Path, *args):
        """(exit code, or None on a timeout; output) of the suite in `cwd`."""
        env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        with self._lock:
            if self._stopping:
                raise RuntimeError("stopped")
            proc = subprocess.Popen([sys.executable, *PYTEST, *args], cwd=cwd, env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                    text=True, start_new_session=True)
            self._live.add(proc)
        try:
            out, _ = proc.communicate(timeout=self.timeout)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            _kill(proc)
            return None, proc.communicate()[0]
        except BaseException:  # Ctrl-C or SIGTERM in the main thread
            _kill(proc)
            raise
        finally:
            with self._lock:
                self._live.discard(proc)

    def run(self, mutant):
        """(exit code or None, killing test IDs, seconds) of one mutant."""
        start = time.monotonic()
        dest = self.copy(mutant.id, mutant)
        try:
            code, out = self.pytest(dest, WITHOUT_CATALOGUE_TEST)
        finally:
            shutil.rmtree(dest, ignore_errors=True)
        return code, failed_ids(out), time.monotonic() - start

    def stop(self):
        with self._lock:
            self._stopping = True
            for proc in self._live:
                _kill(proc)


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def grouped(ids, tests):
    """IDs in the suite's order, each test's parametrized cases folded into
    one `name[a|b]`."""
    order = {t: i for i, t in enumerate(tests)}
    cases = {}
    for test_id in sorted(ids, key=lambda t: (order.get(t, len(order)), t)):
        name, bracket, param = test_id.partition("[")
        cases.setdefault(name, []).append(param[:-1] if bracket else None)
    return [name if params == [None] else f"{name}[{'|'.join(filter(None, params))}]"
            for name, params in cases.items()]


def versions():
    return {"Python": platform.python_version(),
            **{name: importlib.import_module(name).__version__
               for name in ("numpy", "pytest", "hypothesis")}}


def write_report(args, module, results, tests, wall_s, jobs):
    entries = {m.id: m for m in module.CATALOGUE}
    killed = {mid for mid, r in results.items() if r["status"] != "survived"}
    killers = {t for r in results.values() for t in r["killed_by"]}
    idle = [t for t in tests if t not in killers]
    host = ", ".join(f"{k} {v}" for k, v in versions().items())
    lines = [
        "# Mutation report",
        "",
        f"`python3 mutants/run.py{' --only ' + ' '.join(args.only) if args.only else ''}` "
        f"ran {len(results)} mutants of `mutants/catalogue.py` in {wall_s:.0f} s of wall "
        f"time, {jobs} suites at a time with a {args.timeout:g} s timeout each, on a host with "
        f"{len(os.sched_getaffinity(0))} CPUs ({host}).",
        "",
        "Each mutant's suite is "
        f"`python -m pytest {' '.join(_quoted(PYTEST[2:]))} {WITHOUT_CATALOGUE_TEST}`, "
        "run in a copy of the checkout with PYTHONPATH at the copy's `src/`. "
        f"`{CATALOGUE_TEST}` is left out: it checks the catalogue against the "
        "unmutated tree, and the unmutated suite, which passed, runs it. "
        f"The {len(tests)} tests below are the rest of that suite.",
        "",
        f"**Killed: {len(killed)} of {len(results)}.** "
        + (f"Survived: {', '.join(f'`{m}`' for m in sorted(set(results) - killed))}."
           if set(results) - killed else "None survived."),
        "",
        "## Mutants",
    ]
    for mid, r in results.items():
        m = entries[mid]
        verdict = {"timeout": "killed by timeout", "survived": "SURVIVED"}.get(
            r["status"], f"killed by {len(r['killed_by'])} tests")
        lines += ["", f"### `{mid}` ({m.file}): {verdict}", "", f"Breaks: {m.breaks}.", ""]
        lines += [f"- `{t}`" for t in grouped(r["killed_by"], tests)] or ["- (no test)"]
    lines += ["", f"## Tests that kill no mutant ({len(idle)} of {len(tests)})", ""]
    lines += [f"- `{t}`" for t in grouped(idle, tests)] or ["- (none)"]
    lines += ["", "## Recorded mutations left out of the catalogue", ""]
    lines += [f"- {what}: {why}." for what, why in module.DROPPED]
    REPORT.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _quoted(words):
    return [f'"{w}"' if " " in w else w for w in words]


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--timeout", type=float, default=180.0,
                   help="seconds per mutant's suite before it counts as killed by timeout")
    p.add_argument("--only", nargs="+", metavar="ID", help="run only these mutants")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    module = load_catalogue()
    mutants = [m for m in module.CATALOGUE if not args.only or m.id in args.only]
    unknown = sorted(set(args.only or ()) - {m.id for m in mutants})
    if unknown:
        print(f"error: unknown ids: {unknown}", file=sys.stderr)
        return 2
    jobs = max(1, min(len(os.sched_getaffinity(0)), len(mutants)))

    def on_signal(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)

    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        runner = Runner(Path(tmp), args.timeout)
        pool = ThreadPoolExecutor(jobs)
        try:
            base = runner.copy("unmutated")
            code, out = runner.pytest(base, "--collect-only", WITHOUT_CATALOGUE_TEST)
            tests = [line for line in out.splitlines() if "::" in line]
            code, out = runner.pytest(base)
            shutil.rmtree(base)
            if code != 0:
                why = "outlasts the timeout" if code is None else f"fails (exit {code})"
                print(f"error: the unmutated suite {why}:\n{out}", file=sys.stderr)
                return 1
            futures = {m.id: pool.submit(runner.run, m) for m in mutants}
            results = {}
            for mid, future in futures.items():
                code, ids, seconds = future.result()
                status = "timeout" if code is None else "survived" if code == 0 else "killed"
                results[mid] = {"status": status, "seconds": round(seconds, 1),
                                "killed_by": ids}
                print(f"{mid}: {status} ({len(ids)} tests, {seconds:.0f} s)", flush=True)
        except KeyboardInterrupt:
            print("interrupted: stopping the running suites", file=sys.stderr)
            return 130
        finally:
            runner.stop()
            pool.shutdown(wait=True, cancel_futures=True)
    wall_s = time.monotonic() - start
    write_report(args, module, results, tests, wall_s, jobs)
    survived = [mid for mid, r in results.items() if r["status"] == "survived"]
    print(f"{len(results) - len(survived)} of {len(results)} killed in {wall_s:.0f} s; "
          f"report: {REPORT.relative_to(ROOT)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
