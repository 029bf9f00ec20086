"""Benchmark of the fluxsense toolkit, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pea-coherent --seed 1 --seconds 30 --trace 0

The process imports fluxsense from ``src/`` of the checkout and runs the
workload's passes of CLI invocations (see workloads.py) serially
through ``fluxsense.cli.main`` until ``--seconds`` would be exceeded,
at least once.  Every invocation is one operation; it fails on a
non-zero exit code, an exception or a failed output check.

Invocation times are scaled to a reference speed.  The speed of a
shared host drifts by up to 2x over seconds to minutes, and the drift
slows fluxsense and any other Python and NumPy code alike.  So a fixed reference loop that
uses no fluxsense code (``reference_loop``) runs before the first
invocation and after each one, and each invocation's time is scaled by
REF_S over the mean of the two reference times around it: the result
reads in seconds on a machine that runs the reference loop in REF_S.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time (not scaled) of fresh interpreters that
               import fluxsense and parse the default configuration
  wall_s       scaled time of one pass: the median over passes of each
               invocation's scaled time, summed over the pass
  peak_rss_mb  peak resident memory of this process
--trace 1 runs passes untraced for half the time, then replays the first
passes (at most TRACED_PASSES) with spans around the public functions of
each module (tracing.py).  It reports the per-layer metrics summed over
the traced passes; from the untraced passes, the median scaled time of
each design invocation and the PEA runs per second (cli.*, zero where
the workload has no such invocation), the median reference loop time
(bench.ref_loop_s) and wall_s without scaling (bench.wall_unscaled_s);
and trace.overhead_s, the scaled time of a traced pass minus that of the
same pass untraced, averaged over the traced passes.

The last line of standard output is the result object; the line before
it records the machine, library versions, commit and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Op, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import fluxsense; fluxsense.parse_config('')")
TRACED_PASSES = 2
REF_ROUNDS = 50000
REF_S = 0.15  # reference loop seconds that scaled times are expressed at

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
CLI_TIMED = ("ridge", "optimal-point", "inductance")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_measurement"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_phi0"):
        return "Phi0"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def reference_loop() -> float:
    """Seconds of a fixed loop of small NumPy updates and Python arithmetic.

    Like the PEA inner loop it updates a 64-entry array elementwise and
    reads a scalar back, but it uses no fluxsense code, so its time
    tracks the speed of the machine, not of the program.
    """
    import numpy as np

    base = np.linspace(0.0, 1.0, 64)
    total = 0.0
    start = time.perf_counter()
    for i in range(REF_ROUNDS):
        total += float((base * 1.0001 + 0.5).sum()) + (i * 7) % 13
    elapsed = time.perf_counter() - start
    if not total > 0:
        raise RuntimeError("reference loop computed nothing")
    return elapsed


@dataclass
class Timed:
    """One invocation's in-process seconds and its scale to the reference speed."""

    op: Op
    seconds: float
    scale: float

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def run_op(main, op: Op, outdir: Path, config_path: Path) -> tuple[float, list[str]]:
    """Run one invocation; return its in-process seconds and its problems."""
    argv = [*op.argv, "--config", str(config_path), "--outdir", str(outdir)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"exit code {code}"]
    try:
        return elapsed, op.check(outdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return elapsed, [f"output unreadable: {exc!r}"]


class Loop:
    """Closed loop over a workload's passes, with failure accounting.

    The reference loop runs before the first invocation and after every
    invocation, so each invocation has one reference time on each side.
    """

    def __init__(self, main, workload: Workload, outdir: Path, config_path: Path) -> None:
        self.main, self.workload = main, workload
        self.outdir, self.config_path = outdir, config_path
        self.attempted = 0
        self.failed = 0
        self.ref_times: list[float] = []
        self._last_ref: float | None = None

    def once(self, pass_index: int) -> list[Timed]:
        if self._last_ref is None:
            reference_loop()  # warm-up
            self._last_ref = reference_loop()
            self.ref_times.append(self._last_ref)
        timed = []
        for op in self.workload.ops(pass_index):
            elapsed, problems = run_op(self.main, op, self.outdir, self.config_path)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"perfbench: {' '.join(op.argv)}: {'; '.join(problems)}", file=sys.stderr)
            after = reference_loop()
            self.ref_times.append(after)
            timed.append(Timed(op, elapsed, 2.0 * REF_S / (self._last_ref + after)))
            self._last_ref = after
        return timed

    def until(self, seconds: float) -> list[list[Timed]]:
        """Passes until another one would end after ``seconds``; at least one."""
        passes: list[list[Timed]] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            passes.append(self.once(len(passes)))
            longest = max(longest, time.perf_counter() - began)
            if time.perf_counter() - start + longest > seconds:
                return passes


def pass_seconds(passes: list[list[Timed]], scaled: bool = True) -> float:
    """Median over passes of each invocation's time, summed over one pass."""
    per_position = zip(*([t.scaled if scaled else t.seconds for t in p] for p in passes))
    return sum(statistics.median(times) for times in per_position)


def cli_metrics(passes: list[list[Timed]]) -> dict[str, float]:
    """Median scaled time per invocation of the design subcommands; PEA runs per second."""
    times: dict[str, list[float]] = {command: [] for command in CLI_TIMED}
    runs_per_s = []
    for timed_pass in passes:
        for timed in timed_pass:
            if timed.op.command in times:
                times[timed.op.command].append(timed.scaled)
            if timed.op.runs:
                runs_per_s.append(timed.op.runs / timed.scaled)
    metrics = {"cli.pea.runs_per_s": statistics.median(runs_per_s) if runs_per_s else 0.0}
    for command, values in times.items():
        key = f"cli.{command.replace('-', '_')}.s"
        metrics[key] = statistics.median(values) if values else 0.0
    return metrics


def setup_seconds(samples: int) -> float:
    """Median wall time of a fresh interpreter reaching a parsed default config.

    Not scaled: start-up is file reading and module loading, which the
    reference loop does not track.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def provenance(workload: str, seed: int) -> dict:
    """Machine, library versions and commit behind one result."""
    import numpy
    import scipy

    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(f"{index}/size")
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                                capture_output=True, text=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def measure(main, workload: Workload, workdir: Path, seconds: float,
            trace: bool) -> tuple[dict[str, float], int, int]:
    """Run a workload; return (metrics, attempted, failed)."""
    config_path = workdir / "workload.cfg"
    config_path.write_text(workload.config, encoding="utf-8")
    outdir = workdir / "out"
    loop = Loop(main, workload, outdir, config_path)
    if not trace:
        passes = loop.until(seconds)
        metrics = {
            "setup_s": setup_seconds(SETUP_SAMPLES),
            "wall_s": pass_seconds(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, loop.attempted, loop.failed

    untraced = loop.until(seconds / 2)
    ref_loop_s = statistics.median(loop.ref_times)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [loop.once(i) for i in range(min(TRACED_PASSES, len(untraced)))]
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"perfbench: not traced: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    metrics = layer_metrics(tracer)
    metrics.update(cli_metrics(untraced))
    metrics["bench.ref_loop_s"] = ref_loop_s
    metrics["bench.wall_unscaled_s"] = pass_seconds(untraced, scaled=False)
    metrics["trace.overhead_s"] = statistics.fmean(
        sum(t.scaled for t in with_spans) - sum(t.scaled for t in without)
        for with_spans, without in zip(traced, untraced))
    return metrics, loop.attempted, loop.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fluxsense" / "__init__.py").is_file():
        print(f"perfbench: no fluxsense package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the benchmark measures the serial program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import fluxsense.cli

    if not Path(fluxsense.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported fluxsense from {fluxsense.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        metrics, attempted, failed = measure(fluxsense.cli.main, workload, workdir,
                                             args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(json.dumps({"provenance": provenance(args.workload, args.seed)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
