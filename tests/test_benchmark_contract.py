"""The names the benchmark in perfbench/ looks up in the package.

The benchmark times layers by replacing package functions where their
callers look them up, and its worker probes a few functions by name and
argument position. A rename or a removed function crashes its traced
rounds, so each name it uses is checked here.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

from motionmae import model, targets, tokenizer, training
from motionmae.numerics import Tape

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _wrapped():
    sys.path.insert(0, PERFBENCH)
    try:
        from tracing import WRAPPED
    finally:
        sys.path.remove(PERFBENCH)
    return WRAPPED


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_every_traced_function_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module, attr, _ in wrapped:
        mod = importlib.import_module(f"motionmae.{module}")
        assert callable(getattr(mod, attr, None)), f"motionmae.{module}.{attr}"


def test_worker_probes_resolve():
    assert _params(training.pretrain_step)[0] == "batch"
    assert _params(training.evaluate_top1)[0] == "clips"
    assert callable(training.adamw_step)
    assert callable(training.classify)
    assert len(Tape()) == 0


def test_worker_target_check_signatures():
    grid = tokenizer.TokenGrid(2, 2, 2, 2, 4, 1)  # (gt, gh, gw, ct, cp, channels)
    mask = tokenizer.sample_mask(grid, 0.5, "random", seed=1)
    cfg = targets.TargetConfig("both", 1, False)  # (kind, gap, normalize)
    bundle = targets.make_targets(np.zeros(grid.clip_shape, np.float32), mask, grid, cfg)
    assert bundle.time.shape == (mask.num_masked, grid.motion_dim)
    assert mask.bits.shape == (grid.num_tokens,)


def test_evaluate_top1_returns_a_logit_row_per_clip_in_order():
    """The worker reads `evaluate_top1`'s first argument, `clips`, and times
    a call as its span over its clip count, so the rows must pair with the
    clips one to one, in order."""
    grid = tokenizer.TokenGrid(2, 2, 2, 2, 4, 1)
    enc, _ = model.preset_configs("tiny", grid)
    params = model.init_params(enc, None, seed=0, num_classes=4)
    rng = np.random.default_rng(0)
    clips = [rng.uniform(size=grid.clip_shape).astype(np.float32) for _ in range(3)]
    assert _params(training.evaluate_top1)[0] == "clips"
    _, rows = training.evaluate_top1(clips, [0, 1, 2], grid, enc, params)
    assert len(rows) == len(clips)
    assert np.ptp(np.stack(rows), axis=0).max() > 1e-3  # rows differ: order shows
    for clip, row in zip(clips, rows):
        want = model.classify(clip, grid, enc, params).data[0]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-5)
