"""Quick self-test of the benchmark itself (a few seconds).

    python3 perfbench/selftest.py

Covers the self-time arithmetic, metric names and units against
BENCHMARK.json, a tiny workload run untraced and traced, the output
checks rejecting wrong outputs, and the refusal to run without the
package source.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fluxsense.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_workload() -> workloads.Workload:
    """Every subcommand of the workloads, at tiny size."""
    phis = [0.0, 0.2, 0.4, 0.3]
    ops = [
        workloads.Op("rates", ("rates", "--phi", "0,0.2,0.4,0.3"),
                     functools.partial(workloads.check_rates, phis)),
        workloads.Op("optimal-point", ("optimal-point",), workloads.check_optimal_point),
        workloads.ridge_op(("40",), 3, 20),
        workloads.Op("calibration", ("calibration", "--points", "64"),
                     functools.partial(workloads.check_calibration, 64)),
        workloads.Op("inductance", ("inductance",), workloads.check_inductance),
        workloads.pea_op(("--n-qubits", "3", "--no-decoherence"), runs=4, no_caps=True),
    ]
    return workloads.Workload("n_flux_targets = 2\nn_repetitions = 2\n", lambda _: ops)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            ("a", 0.0, 10.0, -1, None),
            ("b", 1.0, 4.0, 0, None),
            ("c", 2.0, 3.0, 1, None),
            ("d", 5.0, 9.0, 0, None),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_pass_seconds_sums_per_invocation_medians_of_scaled_times(self):
        op = workloads.Op("x", (), lambda outdir: [])
        passes = [[run.Timed(op, 1.0, 2.0), run.Timed(op, 3.0, 1.0)],
                  [run.Timed(op, 4.0, 0.25), run.Timed(op, 1.0, 1.0)],
                  [run.Timed(op, 3.0, 1.0), run.Timed(op, 5.0, 1.0)]]
        self.assertEqual(run.pass_seconds(passes), 2.0 + 3.0)
        self.assertEqual(run.pass_seconds(passes, scaled=False), 3.0 + 3.0)

    def test_reference_loop_takes_time(self):
        with mock.patch.object(run, "REF_ROUNDS", 100):
            self.assertGreater(run.reference_loop(), 0.0)

    def test_percentile_interpolates(self):
        self.assertEqual(tracing._percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        self.assertAlmostEqual(tracing._percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90), 4.6)


class Names(unittest.TestCase):
    def test_names_and_units(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(NAME.fullmatch(name), name)
        for metric in SPEC["end_to_end"]:
            self.assertEqual(run.END_TO_END_UNITS[metric["name"]], metric["unit"])
        for metric in SPEC["per_layer"]:
            self.assertEqual(run.layer_unit(metric["name"]), metric["unit"], metric["name"])
        self.assertEqual(sorted(workloads.WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))


class TinyWorkload(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _measure(self, trace: bool) -> dict:
        workload = tiny_workload()
        with mock.patch.object(run, "SETUP_SAMPLES", 1), mock.patch.object(run, "REF_ROUNDS", 100):
            metrics, attempted, failed = run.measure(fluxsense.cli.main, workload,
                                                     self.workdir, 0.0, trace)
        self.assertEqual(failed, 0)
        self.assertEqual(attempted, len(workload.ops(0)) * (2 if trace else 1))
        return metrics

    def test_untraced_reports_every_end_to_end_metric(self):
        metrics = self._measure(trace=False)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
        self.assertTrue(all(value > 0 for value in metrics.values()), metrics)

    def test_traced_reports_every_per_layer_metric(self):
        metrics = self._measure(trace=True)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(metrics["pea.step1.grid_size"], 2048)
        self.assertEqual(metrics["pea.step9.grid_size"], 8)
        self.assertEqual(metrics["pea.truth_retained_frac"], 1.0)
        self.assertEqual(metrics["fringes.probability_excited.calls"], 4 * 9 * 2 + 1)
        self.assertEqual(metrics["pea.measurements"],
                         sum(metrics[f"pea.step{i}.measurements"] for i in range(1, 10)))
        self.assertGreater(metrics["magnetostatics.field_at.calls"], 0)
        # the tracer leaves the package as it found it
        self.assertIs(fluxsense.cli.run_campaign, fluxsense.pea.run_campaign)
        self.assertFalse(hasattr(fluxsense.pea.run_campaign, "__wrapped__"))


class Checks(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.outdir = Path(tempfile.mkdtemp(prefix="checks-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def test_optimal_point_check_rejects_a_wrong_bias(self):
        point = {"phi_star": 0.43, "t2": 4.625e-6, "tau_opt": 3.292e-6, "n_steps": 6}
        (self.outdir / "optimal_point.json").write_text(json.dumps(point))
        self.assertEqual(len(workloads.check_optimal_point(self.outdir)), 1)

    def test_pea_check_rejects_a_stalled_tau_bar(self):
        rows = ["step,tau_bar_s,accuracy_phi0,mean_measurements,mean_delay_s"]
        rows += [f"{i},{min(i, 5)}e-6,1e-8,10,1e-7" for i in range(1, 10)]
        (self.outdir / "pea_steps.csv").write_text("\n".join(rows) + "\n")
        (self.outdir / "pea_runs.csv").write_text("target_index,cap_hit\n")
        problems = workloads.check_pea(0, True, None, self.outdir)
        self.assertEqual(problems, ["tau_bar does not strictly increase"])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_package_source(self):
        run.WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "design-scan",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        if run.WORK.exists() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
