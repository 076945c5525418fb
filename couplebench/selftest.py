#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 couplebench/selftest.py

Feeds run.py (through its `--raw` option, so nothing is built or run)
bench-binary documents with a failed or timed-out half, a NaN score, a
non-finite loss or embedding, an R half without Ω, a missing metric, a
non-Release build, scores or epoch schedules that differ between repeats,
and scores that differ from an earlier run of the same seed, and asserts the
command rejects each; a clean document must pass.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
TMP_PARENT = os.path.join(os.path.dirname(HERE), ".bench_build",
                              "couplebench")


def half(variant, acc):
    return {"variant": variant, "failed": False, "timed_out": False,
            "failure_reason": "", "acc": acc, "nmi": 0.3, "ari": 0.25,
            "cluster_epochs": 120, "nonfinite_losses": 0,
            "embed_finite": True, "omega_ok": True}


def clean_document():
    trial = {"dataset": "Pubmed", "wall_s": 17.0, "train_steps": 340,
             "pretrain_s": 5.0, "cluster_base_s": 7.0, "cluster_r_s": 5.0,
             "calls_s": [[0.1, 2.4, 2.5], [3.0, 4.0], [2.4, 2.5]],
             "halves": [half("base", 0.56), half("r", 0.58)]}
    rnd = {"setup_s": 0.01, "wall_s": 17.0,
           "peak_rss_mb": 44.0, "trials": [trial]}
    return {"workload": "pubmed-dgae", "seed": 1, "build_type": "Release",
            "kernel_isa": "avx2", "rounds": [rnd, copy.deepcopy(rnd)],
            "setup_s": [0.011, 0.010, 0.012]}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(TMP_PARENT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=TMP_PARENT)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def run_raw(self, doc, name="doc", cache="none"):
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w") as f:
            json.dump(doc, f)
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "pubmed-dgae", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--raw", path,
             "--cache", cache],
            capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return proc.returncode, result

    def assert_rejected(self, doc, **kwargs):
        code, result = self.run_raw(doc, **kwargs)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        return result

    def test_clean_document_passes(self):
        code, result = self.run_raw(clean_document())
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 4)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {"trial_s", "epochs_per_s", "setup_s", "peak_rss_mb",
                          "acc_r_over_base", "ok_frac"})
        self.assertEqual(result["metrics"]["trial_s"]["unit"], "s")

    def test_failed_half_is_rejected(self):
        doc = clean_document()
        doc["rounds"][1]["trials"][0]["halves"][1]["failed"] = True
        result = self.assert_rejected(doc)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_timed_out_half_is_rejected(self):
        doc = clean_document()
        doc["rounds"][0]["trials"][0]["halves"][0]["timed_out"] = True
        self.assert_rejected(doc)

    def test_nan_score_is_rejected(self):
        # The bench binary's JSON writer emits NaN as null; Python's as NaN.
        for nan in (None, float("nan")):
            doc = clean_document()
            doc["rounds"][0]["trials"][0]["halves"][0]["nmi"] = nan
            self.assert_rejected(doc)

    def test_nonfinite_loss_or_embedding_is_rejected(self):
        for key, value in (("nonfinite_losses", 3), ("embed_finite", False)):
            doc = clean_document()
            doc["rounds"][1]["trials"][0]["halves"][0][key] = value
            self.assert_rejected(doc)

    def test_missing_metric_is_rejected(self):
        doc = clean_document()
        del doc["rounds"][0]["peak_rss_mb"]
        result = self.assert_rejected(doc)
        self.assertNotIn("peak_rss_mb", result["metrics"])

    def test_r_half_without_omega_is_rejected(self):
        doc = clean_document()
        doc["rounds"][0]["trials"][0]["halves"][1]["omega_ok"] = False
        self.assert_rejected(doc)

    def test_debug_build_is_rejected(self):
        doc = clean_document()
        doc["build_type"] = "Debug"
        self.assert_rejected(doc)

    def test_repeat_with_other_scores_is_rejected(self):
        doc = clean_document()
        doc["rounds"][1]["trials"][0]["halves"][1]["acc"] = 0.57
        self.assert_rejected(doc)

    def test_repeat_with_other_schedule_is_rejected(self):
        doc = clean_document()
        doc["rounds"][1]["trials"][0]["calls_s"][2].append(0.05)
        self.assert_rejected(doc)

    def test_earlier_run_with_other_scores_is_rejected(self):
        cache = os.path.join(self.dir, "scores_seen.json")
        code, _ = self.run_raw(clean_document(), name="first", cache=cache)
        self.assertEqual(code, 0)
        doc = clean_document()
        for rnd in doc["rounds"]:
            rnd["trials"][0]["halves"][0]["acc"] = 0.61
        self.assert_rejected(doc, name="second", cache=cache)


if __name__ == "__main__":
    unittest.main()
