"""Tests for bench_diff.py — runnable with pytest or plain unittest:

    python3 -m pytest scripts/test_bench_diff.py
    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402


def snapshot(benchmarks):
    return {"benchmarks": [
        {"name": name, "real_time": rt, "time_unit": "ns"}
        for name, rt in benchmarks.items()
    ]}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, data):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def run_diff(self, base, cur, extra=()):
        return bench_diff.main([base, cur, *extra])

    def test_no_regression_passes(self):
        base = self.write("base.json", snapshot({"BM_X/dim:64": 100.0}))
        cur = self.write("cur.json", snapshot({"BM_X/dim:64": 110.0}))
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_regression_fails(self):
        base = self.write("base.json", snapshot({"BM_X/dim:64": 100.0}))
        cur = self.write("cur.json", snapshot({"BM_X/dim:64": 200.0}))
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_individual_missing_benchmark_is_tolerated(self):
        # One /dim: benchmark disappears but the family survives: families
        # evolve across revisions, so this stays a pass.
        base = self.write("base.json", snapshot({
            "BM_X/dim:64": 100.0, "BM_X/dim:128": 200.0}))
        cur = self.write("cur.json", snapshot({"BM_X/dim:64": 100.0}))
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_missing_family_fails_with_clear_message(self):
        # The whole /dim: family vanishes from the current snapshot: the
        # gate must fail loudly instead of passing vacuously — and via a
        # clean exit code, not a traceback.
        base = self.write("base.json", snapshot({
            "BM_X/dim:64": 100.0, "BM_Y/threads:2": 50.0}))
        cur = self.write("cur.json", snapshot({"BM_Y/threads:2": 50.0}))
        import contextlib
        import io
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.run_diff(base, cur)
        self.assertEqual(rc, 1)
        self.assertIn("family '/dim:'", err.getvalue())
        self.assertIn("none in the current snapshot", err.getvalue())

    def test_cache_family_is_guarded_by_default(self):
        # The persistent-result-cache family (warm vs cold sweep rerun) is
        # part of the default gate: a /cache:N regression fails without any
        # --families override, and a vanished family fails loudly.
        base = self.write("base.json", snapshot({
            "BM_SweepCachedRerun/cache:1/real_time": 100.0}))
        cur = self.write("cur.json", snapshot({
            "BM_SweepCachedRerun/cache:1/real_time": 300.0}))
        self.assertEqual(self.run_diff(base, cur), 1)
        cur2 = self.write("cur2.json", snapshot({"BM_Other": 1.0}))
        import contextlib
        import io
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.run_diff(base, cur2)
        self.assertEqual(rc, 1)
        self.assertIn("family '/cache:'", err.getvalue())

    def test_min_speedup_gate(self):
        # The intra-snapshot ratio assertion: the batched kernel must be
        # >= RATIO faster than its scalar reference in the *current*
        # snapshot (hardware-neutral, unlike absolute baseline numbers).
        base = self.write("base.json", snapshot({
            "BM_LScalar": 100.0, "BM_LBatched": 50.0}))
        ok = self.write("ok.json", snapshot({
            "BM_LScalar": 100.0, "BM_LBatched": 50.0}))
        self.assertEqual(self.run_diff(base, ok, extra=(
            "--min-speedup", "BM_LScalar", "BM_LBatched", "1.8")), 0)
        # Speedup collapsed to 1.25x: fails even though no per-benchmark
        # regression beyond tolerance occurred (neither is in a family).
        bad = self.write("bad.json", snapshot({
            "BM_LScalar": 100.0, "BM_LBatched": 80.0}))
        self.assertEqual(self.run_diff(base, bad, extra=(
            "--min-speedup", "BM_LScalar", "BM_LBatched", "1.8")), 1)
        # A named benchmark missing from the snapshot is a hard error, not
        # a silent pass.
        self.assertEqual(self.run_diff(base, ok, extra=(
            "--min-speedup", "BM_LScalar", "BM_Missing", "1.8")), 1)

    def test_max_ratio_gate(self):
        # The scaling-cost dual of --min-speedup: the larger instance may
        # cost at most RATIO x the smaller one in the current snapshot.
        base = self.write("base.json", snapshot({
            "BM_W/rows:64": 100.0, "BM_W/rows:256": 400.0}))
        ok = self.write("ok.json", snapshot({
            "BM_W/rows:64": 100.0, "BM_W/rows:256": 400.0}))
        self.assertEqual(self.run_diff(base, ok, extra=(
            "--max-ratio", "BM_W/rows:256", "BM_W/rows:64", "4.5")), 0)
        # Scaling blew up to 6x: fails on the ratio alone — the tolerance
        # is widened so neither benchmark trips the per-benchmark gate.
        bad = self.write("bad.json", snapshot({
            "BM_W/rows:64": 110.0, "BM_W/rows:256": 660.0}))
        self.assertEqual(self.run_diff(base, bad, extra=(
            "--tolerance", "0.8",
            "--max-ratio", "BM_W/rows:256", "BM_W/rows:64", "4.5")), 1)
        # A named benchmark missing from the snapshot is a hard error.
        self.assertEqual(self.run_diff(base, ok, extra=(
            "--max-ratio", "BM_W/rows:256", "BM_Missing", "4.5")), 1)
        # /rows: is a default family: a vanished family still fails loudly.
        cur2 = self.write("cur2.json", snapshot({"BM_Other": 1.0}))
        import contextlib
        import io
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.run_diff(base, cur2)
        self.assertEqual(rc, 1)
        self.assertIn("family '/rows:'", err.getvalue())

    def test_family_only_in_current_is_tolerated(self):
        # A brand-new family has no baseline yet: pass.
        base = self.write("base.json", snapshot({"BM_Y/threads:2": 50.0}))
        cur = self.write("cur.json", snapshot({
            "BM_Y/threads:2": 50.0, "BM_X/dim:64": 100.0}))
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_unreadable_snapshot_is_a_clean_error(self):
        base = self.write("base.json", snapshot({"BM_X/dim:64": 100.0}))
        with self.assertRaises(SystemExit) as ctx:
            self.run_diff(base, os.path.join(self.tmp.name, "absent.json"))
        self.assertIn("cannot read snapshot", str(ctx.exception))

    def test_invalid_json_is_a_clean_error(self):
        base = self.write("base.json", snapshot({"BM_X/dim:64": 100.0}))
        bad = os.path.join(self.tmp.name, "bad.json")
        with open(bad, "w") as f:
            f.write("{not json")
        with self.assertRaises(SystemExit) as ctx:
            self.run_diff(base, bad)
        self.assertIn("not valid JSON", str(ctx.exception))

    def test_canonical_strips_run_options_only(self):
        # Run options go; the benchmark identity (including Args()-encoded
        # families like /threads:N) stays.
        self.assertEqual(
            bench_diff.canonical("BM_X/rows:64/min_time:2.000"),
            "BM_X/rows:64")
        self.assertEqual(
            bench_diff.canonical("BM_L/width:4/real_time"), "BM_L/width:4")
        self.assertEqual(
            bench_diff.canonical(
                "BM_Y/threads:2/iterations:50/manual_time"),
            "BM_Y/threads:2")
        self.assertEqual(
            bench_diff.canonical("BM_Z/wer:12/min_warmup_time:0.5"),
            "BM_Z/wer:12")
        self.assertEqual(bench_diff.canonical("BM_Plain"), "BM_Plain")

    def test_min_time_retune_does_not_drop_the_comparison(self):
        # Raising a benchmark's MinTime renames it in the raw JSON
        # (/min_time:2.000 appears); the canonicalised diff still matches
        # the baseline entry and still catches the regression.
        base = self.write("base.json", snapshot({"BM_W/rows:64": 100.0}))
        cur = self.write("cur.json", snapshot({
            "BM_W/rows:64/min_time:2.000": 200.0}))
        self.assertEqual(self.run_diff(base, cur), 1)
        # And the reverse direction (baseline carries the suffix).
        base2 = self.write("base2.json", snapshot({
            "BM_W/rows:64/min_time:2.000": 100.0}))
        cur2 = self.write("cur2.json", snapshot({"BM_W/rows:64": 105.0}))
        self.assertEqual(self.run_diff(base2, cur2), 0)

    def test_gate_names_are_canonicalised(self):
        # --min-speedup / --max-ratio names match regardless of whether the
        # caller or the snapshot carries run-option suffixes.
        base = self.write("base.json", snapshot({
            "BM_L/width:1/real_time": 100.0,
            "BM_L/width:4/real_time": 50.0}))
        cur = self.write("cur.json", snapshot({
            "BM_L/width:1/real_time": 100.0,
            "BM_L/width:4/real_time": 50.0}))
        self.assertEqual(self.run_diff(base, cur, extra=(
            "--min-speedup", "BM_L/width:1/min_time:1.000",
            "BM_L/width:4/real_time", "1.8")), 0)
        self.assertEqual(self.run_diff(base, cur, extra=(
            "--max-ratio", "BM_L/width:1", "BM_L/width:4/real_time",
            "2.5")), 0)

    def test_wer_family_is_guarded_by_default(self):
        # The write-error-rate family joins the default gate.
        base = self.write("base.json", snapshot({
            "BM_Wer/wer:12/real_time": 100.0}))
        cur = self.write("cur.json", snapshot({
            "BM_Wer/wer:12/real_time": 200.0}))
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_unit_normalisation(self):
        # A unit change must not read as a 1000x regression.
        base = self.write("base.json", snapshot({"BM_X/dim:64": 100.0}))
        cur_data = {"benchmarks": [
            {"name": "BM_X/dim:64", "real_time": 0.1, "time_unit": "us"}]}
        cur = self.write("cur.json", cur_data)
        self.assertEqual(self.run_diff(base, cur), 0)


if __name__ == "__main__":
    unittest.main()
