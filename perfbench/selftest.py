"""Self-tests of the benchmark: every output check rejects a damaged output,
and the printer emits every metric BENCHMARK.json declares.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from motionmae import targets, tokenizer, training  # noqa: E402
from motionmae.model import init_params, preset_configs  # noqa: E402
from motionmae.numerics import OptimState  # noqa: E402

GOOD_CSV = ("step,loss,loss_space,loss_time\n"
            "5,1.2e+00,6.0e-01,6.0e-01\n"
            "10,8.0e-01,4.0e-01,4.0e-01\n"
            "12,5.0e-01,3.0e-01,2.0e-01\n")


class CheckTests(unittest.TestCase):
    def test_checkpoint_trailer(self):
        grid = tokenizer.TokenGrid(4, 4, 4, 2, 4, 1)
        enc, dec = preset_configs("tiny", grid)
        params = init_params(enc, dec, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.mmck"
            training.save_checkpoint(params, OptimState.for_params(params), 7,
                                     bytes(32), path)
            blob = path.read_bytes()
        self.assertEqual(checks.check_checkpoint(blob), [])
        for at in (0, len(blob) // 2, len(blob) - 1):
            damaged = bytearray(blob)
            damaged[at] ^= 0x01
            self.assertNotEqual(checks.check_checkpoint(bytes(damaged)), [], at)
        self.assertNotEqual(checks.check_checkpoint(blob[:-1]), [])

    def test_motion_target(self):
        grid = tokenizer.TokenGrid(4, 4, 4, 2, 4, 1)
        clip = np.random.default_rng(5).uniform(0, 1, grid.clip_shape).astype(np.float32)
        for gap in (1, 2, 4):
            mask = tokenizer.sample_mask(grid, 0.75, "random", seed=checks.mask_seed(1, 0, gap))
            hidden = [k for k, bit in enumerate(mask.bits) if bit]
            got = targets.make_targets(clip, mask, grid, targets.TargetConfig("both", gap)).time
            self.assertEqual(checks.check_motion_target(got, clip, hidden, 2, 4, gap), [])
            perturbed = got.copy()
            perturbed[len(hidden) // 2, 3] += np.float32(1e-3)
            self.assertNotEqual(checks.check_motion_target(perturbed, clip, hidden, 2, 4, gap), [])
            swapped = got[::-1].copy()
            self.assertNotEqual(checks.check_motion_target(swapped, clip, hidden, 2, 4, gap), [])
            self.assertNotEqual(checks.check_motion_target(got[1:], clip, hidden, 2, 4, gap), [])

    def test_hidden_count(self):
        grid = tokenizer.TokenGrid(4, 8, 8, 2, 8, 1)
        for strategy, ratio in (("random", 0.75), ("tube", 0.9), ("time_only", 0.9)):
            mask = tokenizer.sample_mask(grid, ratio, strategy, seed=11)
            hidden = int(mask.bits.sum())
            self.assertEqual(checks.check_hidden_count(hidden, strategy, ratio, 4, 8, 8), [])
            self.assertNotEqual(
                checks.check_hidden_count(hidden + 1, strategy, ratio, 4, 8, 8), [])
        self.assertEqual(checks.expected_hidden("random", 0.75, 4, 8, 8), 192)
        self.assertEqual(checks.expected_hidden("tube", 0.9, 4, 4, 4), 56)
        self.assertEqual(checks.expected_hidden("time_only", 0.9, 4, 4, 4), 48)

    def test_loss_csv(self):
        self.assertEqual(checks.check_loss_csv(GOOD_CSV, 12, 5), [])
        head, r5, r10, r12 = GOOD_CSV.splitlines()
        damaged = {
            "out of order": [head, r10, r5, r12],
            "repeated": [head, r5, r10, r10, r12],
            "missing": [head, r5, r12],
            "non-finite": [head, r5, r10.replace("8.0e-01", "nan", 1), r12],
            "not learning": [head, r5, r10, r12.replace("5.0e-01", "2.0e+00", 1)],
            "no header": [r5, r10, r12],
        }
        for what, lines in damaged.items():
            self.assertNotEqual(checks.check_loss_csv("\n".join(lines) + "\n", 12, 5),
                                [], what)
        self.assertEqual(checks.logged_steps(12, 5), [5, 10, 12])

    def test_report(self):
        good = json.dumps({"top1": 0.5, "top5": 1.0, "n": 32, "train_top1": 0.4})
        self.assertEqual(checks.check_report(good, 32), [])
        self.assertNotEqual(checks.check_report(good, 31), [])
        for top1 in (-0.1, 1.5, None):
            bad = json.dumps({"top1": top1, "n": 32})
            self.assertNotEqual(checks.check_report(bad, 32), [], top1)

    def test_identical(self):
        a = {"loss.csv": "aa", "checkpoint_final.mmck": "bb"}
        self.assertEqual(checks.check_identical([a, dict(a), dict(a)]), [])
        self.assertNotEqual(checks.check_identical([a, dict(a, **{"loss.csv": "ab"})]), [])


class PrinterTests(unittest.TestCase):
    """One short round of each kind, through the real worker, printed."""

    @classmethod
    def setUpClass(cls):
        over, _, _, why = workloads.WORKLOADS["tiny-variants"]
        short = workloads._merge(over, {"train": {
            "total_steps": 4, "warmup_steps": 1, "log_interval": 2,
            "checkpoint_interval": 2, "finetune_steps": 2, "batch_size": 4}})
        workloads.WORKLOADS["selftest"] = (short, 8, 4, why)
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        cls.tmp = tempfile.TemporaryDirectory()
        root = Path(cls.tmp.name)
        cls.rounds = [run.run_round("selftest", 3, root / f"r{i}", trace=bool(i),
                                    check_targets=not i) for i in range(2)]

    @classmethod
    def tearDownClass(cls):
        del workloads.WORKLOADS["selftest"]
        cls.tmp.cleanup()

    def test_rounds_pass_checks(self):
        for r in self.rounds:
            self.assertEqual(r["codes"], [0, 0, 0, 0])
            self.assertEqual(r["problems"], [])
        self.assertEqual(checks.check_identical([r["digests"] for r in self.rounds]), [])

    def test_layer_counts(self):
        layers = self.rounds[1]["layers"]
        self.assertEqual(layers["tokenizer.patchify_calls_per_step"], 2 * 4)
        self.assertEqual(layers["tokenizer.posenc_calls_per_step"], 3 * 4)
        self.assertGreater(layers["numerics.tape_ops_per_step"], 0)
        self.assertGreater(layers["videodata.augment_ms_per_step"], 0)

    def _printed(self, kind, values):
        line = run.result_line(True, 8, 0, values, self.spec[kind])
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((out["attempted"], out["failed"]), (8, 0))
        declared = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, declared)
        for name, metric in out["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        return out["metrics"]

    def test_end_to_end_printed(self):
        metrics = self._printed("end_to_end", run.end_to_end(self.rounds))
        for name, metric in metrics.items():
            self.assertGreater(metric["value"], 0, name)

    def test_per_layer_printed(self):
        self._printed("per_layer", run.per_layer(self.rounds))

    def test_declared_names_unique(self):
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in self.spec[kind]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         [n for n in workloads.WORKLOADS if n != "selftest"])


if __name__ == "__main__":
    unittest.main()
