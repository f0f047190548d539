"""pdfill benchmark: four README commands timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; pdfill is imported from its src/.
Every command runs in a fresh interpreter, one at a time, through the
CLI's own click entry point (probe.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment.  The whole result also goes to
.bench_out/.

--trace 0 reports the end-to-end metrics of the workload.  A round runs
a set-up sample and then the command:
  setup_s      a fresh interpreter that imports pdfill.cli and builds the
               workload's group, spawn to exit
  wall_s       the command, spawn to exit, stdout captured
  probe_s      the library call inside the command
  peak_rss_mb  peak resident set of the command, in MiB
Times are medians over the run, scaled to the speed of a reference host:
while the library call runs, a fixed loop is timed in the same process
(speed.py), and the round's three times are scaled by how much slower or
faster the loop ran than on the reference host (README.md, "Host speed").
peak_rss_mb is the median.
--trace 1 reports the per-layer metrics of PER_LAYER: each round runs the
command once plainly and once traced.

Rounds repeat until --seconds have passed, and at least twice.  Every
output is checked by checks.py, and compared byte for byte with the run's
first output; a wrong output is a failed operation and makes correct
false, a crash is a failed operation only.  README.md describes the
workloads, the layers and reference figures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEADLINE_S = 170          # every run ends well inside three minutes
MIN_ROUNDS = 2            # so every run compares two outputs of the same command
SETUP_ENTRY = "import sys, pdfill.cli; from pdfill.groups import make_group; make_group(sys.argv[1])"


@dataclass(frozen=True)
class Workload:
    group: str
    args: tuple
    check: object
    needs_facts: bool = False

    def argv(self, seed):
        """The CLI arguments; the seed reaches only ``slim --seed``."""
        return [str(seed) if a == "{seed}" else a for a in self.args]


# Each command takes one to three seconds, so a run holds several samples of
# it; README.md explains why the README's larger sizes are not used.
WORKLOADS = {
    "fill-plane": Workload(
        "Z^2", ("fill", "Z^2", "Z", "--radius", "6", "--max-word", "10"), checks.check_fill_plane
    ),
    "fill-surface": Workload(
        "Sigma2", ("fill", "Sigma2", "Z", "--radius", "5", "--max-word", "8"),
        checks.check_fill_surface, needs_facts=True,
    ),
    "slim-surface": Workload(
        "Sigma2", ("slim", "Sigma2", "--radius", "4", "--samples", "2000", "--seed", "{seed}"),
        checks.check_slim_surface,
    ),
    "folner-tree": Workload(
        "F2", ("folner", "F2", "--family", "connected:9"), checks.check_folner_tree
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "probe_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.emit_s": "s",
    "cli.stdout_bytes": "bytes",
    "groups.ball_s": "s",
    "groups.ball_elements": "count",
    "groups.multiply_calls": "count",
    "groups.multiply_s": "s",
    "groups.canonical_calls": "count",
    "groups.canonical_hit_ratio": "ratio",
    "groups.canonical_cache_entries": "count",
    "groups.distance_calls": "count",
    "groups.distance_s": "s",
    "filling.build_s": "s",
    "filling.vertices": "count",
    "filling.edges": "count",
    "filling.faces": "count",
    "filling.enumerate_s": "s",
    "filling.word_cycle_calls": "count",
    "filling.cycles": "count",
    "filling.distinct_cycle_ratio": "ratio",
    "filling.solve_s": "s",
    "filling.solve_calls": "count",
    "filling.solve_p50_ms": "ms",
    "filling.solve_p99_ms": "ms",
    "filling.search_nodes": "count",
    "filling.unfilled": "count",
    "folner.enumerate_s": "s",
    "folner.sets": "count",
    "folner.sets_per_s": "1/s",
    "slimness.triangles": "count",
    "slimness.triangle_p50_ms": "ms",
    "slimness.triangle_p99_ms": "ms",
    "slimness.geodesic_s": "s",
    "slimness.distance_calls_per_triangle": "count",
    "trace.probe_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Completed:
    exit_code: int
    stdout: bytes
    stderr: str
    wall_s: float
    peak_rss_mb: float


class Spawner:
    """Runs one subprocess at a time against the checkout's src/, within a deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.timed_out = False

    def run(self, args):
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                # wait4 gives this child's own peak RSS, which Popen.wait would discard
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        if time.monotonic() >= self.deadline:
            self.timed_out = True
        return Completed(proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024)


class Tally:
    """Operations attempted and failed; outputs judged once, then compared byte for byte."""

    def __init__(self, workload, argv):
        self.workload = workload
        self.argv = argv
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self._reference = None
        self._reference_problems = None

    def crashed(self, what, done):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what} exited {done.exit_code}: {done.stderr.strip()[-500:]}")

    def judge(self, what, stdout, facts):
        """Count one operation that exited 0 and check its stdout."""
        self.attempted += 1
        if self._reference is None:
            self._reference = stdout
            try:
                self._reference_problems = list(
                    self.workload.check(json.loads(stdout), facts or {}, self.argv)
                )
            except Exception as err:  # a check that cannot read the output rejects it
                self._reference_problems = [f"unreadable output: {err!r}"]
            problems = self._reference_problems
        elif stdout != self._reference:
            problems = ["stdout differs from the run's first output of the same command"]
        else:
            problems = self._reference_problems
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def environment():
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def probe(spawner, argv, report, facts=False, trace=None):
    """The command in a fresh interpreter, by probe.py: (Completed, its report or None)."""
    args = [sys.executable, str(HERE / "probe.py"), "--report", str(report)]
    if facts:
        args.append("--facts")
    if trace:
        args += ["--trace", str(trace)]
    done = spawner.run(args + ["--", *argv])
    if done.exit_code != 0:
        return done, None
    with open(report) as handle:
        return done, json.load(handle)


def loop_free_times(done, data):
    """The probe's raw times less the speed loops in them, and the loops' median time."""
    reading = data["speed"]
    return (
        done.wall_s - reading["total_s"], data["probe_s"] - reading["inside_s"], reading["median_s"]
    )


def measure(workload_name, seed, seconds, traced):
    workload = WORKLOADS[workload_name]
    argv = workload.argv(seed)
    tag = f"{workload_name}-seed{seed}-trace{int(traced)}"
    report = OUT / f"probe-{tag}.json"
    spawner = Spawner(time.monotonic() + DEADLINE_S)
    tally = Tally(workload, argv)

    # untimed first import: fails fast on a broken checkout, and fills the bytecode cache
    warm = spawner.run([sys.executable, "-c", "import pdfill.cli; print(pdfill.cli.__file__)"])
    found = warm.stdout.decode().strip()
    if warm.exit_code != 0 or Path(found).resolve().parent != (SRC / "pdfill").resolve():
        sys.exit(f"pdfill does not import from {SRC}: {found or warm.stderr.strip()[-500:]}")

    names = (
        "setup_s", "wall_s", "probe_s", "peak_rss_mb", "trace.probe_s",
        "raw.setup_s", "raw.wall_s", "raw.probe_s", "raw.loop_s",
    )
    samples = {name: [] for name in names}
    layers = []

    def run_command(what, trace=None, facts=False):
        done, data = probe(spawner, argv, report, facts=facts, trace=trace)
        if data is None:
            tally.crashed(what, done)
        else:
            tally.judge(what, done.stdout, data.get("facts"))
        return done, data

    if workload.needs_facts:
        # untimed: reading the window's facts costs a second build of it
        run_command("command with facts", facts=True)

    # Rounds take the CPUs in turn: other tenants of the host often slow one core
    # while sparing the other.  The benchmark and its subprocesses share the
    # round's CPU, so the reference loop reads the speed the command got.
    cpus = sorted(os.sched_getaffinity(0))
    started = time.monotonic()
    rounds = 0
    while not spawner.timed_out:
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        if not traced:
            setup = spawner.run([sys.executable, "-c", SETUP_ENTRY, workload.group])
            if setup.exit_code != 0:
                tally.crashed("setup", setup)
            else:
                tally.attempted += 1
        done, data = run_command("command")
        if data is not None:
            # one speed reading per round, taken during the library call, scales all three times
            wall, probe_time, loop_s = loop_free_times(done, data)
            samples["wall_s"].append(speed.scaled(wall, loop_s))
            samples["probe_s"].append(speed.scaled(probe_time, loop_s))
            samples["raw.wall_s"].append(done.wall_s)
            samples["raw.probe_s"].append(data["probe_s"])
            samples["raw.loop_s"].append(loop_s)
            samples["peak_rss_mb"].append(done.peak_rss_mb)
            if not traced and setup.exit_code == 0:
                samples["setup_s"].append(speed.scaled(setup.wall_s, loop_s))
                samples["raw.setup_s"].append(setup.wall_s)
        if traced:
            spans = OUT / f"spans-{tag}-round{rounds}.json"
            done, data = run_command("traced command", trace=spans)
            if data is not None:
                _, probe_time, loop_s = loop_free_times(done, data)
                samples["trace.probe_s"].append(speed.scaled(probe_time, loop_s))
                layers.append(dict(data["layers"], **{"cli.stdout_bytes": len(done.stdout)}))
        rounds += 1
        if rounds >= MIN_ROUNDS and time.monotonic() - started >= seconds:
            break

    if traced:
        metrics = {}
        if layers and samples["probe_s"]:
            # the figures of the median traced round (by scaled probe time)
            order = sorted(range(len(layers)), key=samples["trace.probe_s"].__getitem__)
            middle = order[(len(order) - 1) // 2]
            metrics = dict(layers[middle])
            metrics["trace.probe_s"] = samples["trace.probe_s"][middle]
            metrics["trace.overhead_s"] = metrics["trace.probe_s"] - statistics.median(samples["probe_s"])
        units = PER_LAYER
    else:
        metrics = {name: statistics.median(samples[name]) for name in ("wall_s", "setup_s", "probe_s") if samples[name]}
        if samples["peak_rss_mb"]:
            metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
        units = END_TO_END
    return tally, rounds, samples, metrics, units


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pdfill" / "cli.py").is_file():
        sys.exit(f"no pdfill sources under {SRC}: run from the root of a pdfill checkout")
    OUT.mkdir(exist_ok=True)

    env = environment()         # before measure narrows this process to one CPU at a time
    tally, rounds, samples, metrics, units = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    missing = sorted(set(units) - set(metrics))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "environment": env, "samples": samples,
        "problems": tally.problems, "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if missing:
        sys.exit(f"no measurement for {', '.join(missing)}: every operation failed")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
