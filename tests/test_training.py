import argparse
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionmae import cli
from motionmae import evalviz as ev
from motionmae import model as md
from motionmae import numerics as nm
from motionmae import tokenizer as tk
from motionmae import training as tr
from motionmae import videodata as vd
from motionmae.numerics import NonFiniteError, OptimState, Tape, Tensor, backward

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _mask_of(bits):
    return tk.Mask(np.asarray(bits, dtype=bool))


def _tiny_task(n_clips, seed, T=8, H=16, W=16):
    clips, labels = [], []
    for i in range(n_clips):
        label = vd.DIRECTIONS[i % 4]
        rng = np.random.default_rng([seed, i])
        sx, sy = {"right": (1, 0), "left": (-1, 0), "up": (0, -1), "down": (0, 1)}[label]
        speed = int(rng.integers(1, 4))
        spec = vd.SyntheticSpec(object_size=int(rng.integers(4, 8)),
                                velocity=(sx * speed, sy * speed),
                                background_level=0.1, object_level=0.9, label=label)
        clip, _ = vd.generate_moving_square(spec, T, H, W,
                                            seed=int(rng.integers(2 ** 31)))
        clips.append(clip)
        labels.append(i % 4)
    return clips, labels


# ---- masked_loss ----


def test_masked_loss_zero_when_equal():
    pred = Tensor(np.random.default_rng(0).uniform(size=(6, 4)).astype(np.float32))
    mask = _mask_of([1, 0, 1, 0, 1, 0])
    target = pred.data[mask.masked_indices]
    for kind in tr.LOSS_KINDS:
        assert float(tr.masked_loss(pred, target, mask, kind).data) == 0.0


def test_masked_loss_constant_offset_mse():
    pred = Tensor(np.zeros((4, 5), dtype=np.float64) + 0.3)
    mask = _mask_of([1, 1, 0, 0])
    target = np.zeros((2, 5))
    loss = tr.masked_loss(pred, target, mask, "mse")
    np.testing.assert_allclose(float(loss.data), 0.09, rtol=1e-12)


def test_masked_loss_two_loop_oracle():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.normal(size=(5, 3)))
    mask = _mask_of([0, 1, 1, 0, 1])
    target = rng.normal(size=(3, 3))
    got = float(tr.masked_loss(pred, target, mask, "l1").data)
    total = 0.0
    for r, tok in enumerate([1, 2, 4]):
        for k in range(3):
            total += abs(pred.data[tok, k] - target[r, k])
    np.testing.assert_allclose(got, total / 9.0, rtol=1e-12)


def test_masked_loss_requires_masked_tokens():
    pred = Tensor(np.ones((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        tr.masked_loss(pred, np.ones((0, 2)), _mask_of([0, 0, 0]), "mse")


def test_masked_loss_locality():
    """Visible-position predictions are invisible to the loss; masked ones
    are not."""
    rng = np.random.default_rng(2)
    base = rng.normal(size=(6, 4))
    mask = _mask_of([0, 1, 0, 1, 0, 1])
    target = rng.normal(size=(3, 4))

    loss0 = float(tr.masked_loss(Tensor(base), target, mask, "mse").data)
    bumped = base.copy()
    bumped[mask.visible_indices] += 17.0
    assert float(tr.masked_loss(Tensor(bumped), target, mask, "mse").data) == loss0

    for tok in mask.masked_indices:
        poked = base.copy()
        poked[tok] += 0.5
        assert float(tr.masked_loss(Tensor(poked), target, mask, "mse").data) != loss0


def test_masked_loss_gradients():
    rng = np.random.default_rng(3)
    mask = _mask_of([1, 0, 1, 0])
    target = rng.normal(size=(2, 3))
    for kind in tr.LOSS_KINDS:
        pred = Tensor(rng.normal(size=(4, 3)) * 2.0)
        err = nm.finite_diff_check(
            lambda p: tr.masked_loss(p[0], target, mask, kind), [pred])
        assert err < 1e-4, f"{kind}: {err:.3e}"


# ---- total_loss ----


def test_total_loss_sum_and_degenerate_weights():
    a = Tensor(np.asarray(0.7))
    b = Tensor(np.asarray(0.2))
    assert float(tr.total_loss(a, b, 1.0).data) == 0.7 + 0.2
    assert float(tr.total_loss(a, None, 1.0).data) == 0.7
    assert float(tr.total_loss(None, b, 2.0).data) == 0.4
    assert float(tr.total_loss(a, b, 0.0).data) == float(a.data)
    with pytest.raises(ValueError):
        tr.total_loss(None, None, 1.0)


def test_total_loss_machine_precision_sum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.uniform(size=2)
        got = tr.total_loss(Tensor(np.asarray(a)), Tensor(np.asarray(b)), 1.0)
        assert float(got.data) == a + b


# ---- lr schedule ----


def test_lr_schedule_endpoints():
    cfg = tr.TrainConfig(lr=2e-3, warmup_steps=10, total_steps=100)
    assert tr.lr_at(0, cfg) == 0.0
    assert tr.lr_at(10, cfg) == 2e-3
    assert abs(tr.lr_at(100, cfg)) < 1e-12
    assert tr.lr_at(5, cfg) == 1e-3  # halfway through warmup
    mid = tr.lr_at(55, cfg)  # halfway through decay
    np.testing.assert_allclose(mid, 1e-3, rtol=1e-12)


def test_lr_schedule_rejects_out_of_range():
    cfg = tr.TrainConfig(total_steps=10)
    with pytest.raises(ValueError):
        tr.lr_at(11, cfg)
    with pytest.raises(ValueError):
        tr.lr_at(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(warmup_steps=5, total_steps=4)
    with pytest.raises(ValueError):
        tr.TrainConfig(lam=-0.5)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        tr.TrainConfig(loss_kind="l3")


@pytest.mark.parametrize("field,value", [
    ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
    ("weight_decay", -0.05), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5),
    ("eps", 0.0), ("eps", -1e-8), ("warmup_steps", -1),
])
def test_train_config_rejects_optimizer_fields(field, value):
    """Each message starts with the field, which the CLI maps to its key."""
    with pytest.raises(ValueError, match=f"^{field} "):
        tr.TrainConfig(**{field: value})


# ---- cross entropy ----


def test_cross_entropy_uniform_logits_exact():
    logits = Tensor(np.full((1, 4), 1.7))
    assert float(tr.cross_entropy(logits, 2).data) == np.log(4.0)


def test_cross_entropy_gradient():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(1, 5)))
    err = nm.finite_diff_check(lambda p: tr.cross_entropy(p[0], 3), [logits])
    assert err < 1e-4


def test_cross_entropy_label_bounds():
    with pytest.raises(ValueError):
        tr.cross_entropy(Tensor(np.zeros((1, 3))), 3)


# ---- pretrain step / loop ----


def _tiny_train_setup(seed=0, n_clips=4, **cfg_kw):
    clips, _ = _tiny_task(n_clips, seed=seed)
    _, grid = tk.patchify(clips[0], 2, 4)
    enc, dec = md.preset_configs("tiny", grid)
    defaults = dict(lr=1e-3, warmup_steps=2, total_steps=10, batch_size=2,
                    mask_ratio=0.75, seed=seed, log_interval=2)
    defaults.update(cfg_kw)
    cfg = tr.TrainConfig(**defaults)
    return clips, grid, enc, dec, cfg


def test_pretrain_trajectory_bit_deterministic():
    def run():
        clips, grid, enc, dec, cfg = _tiny_train_setup(seed=9)
        params = md.init_params(enc, dec, seed=1, dtype=np.float32)
        opt = OptimState.for_params(params)
        losses = []
        for step in range(10):
            batch = tr._batch_at(clips, step, cfg.batch_size)
            loss, _, _ = tr.pretrain_step(batch, params, opt, grid, enc, dec,
                                          cfg, step)
            losses.append(loss)
        return losses, {k: v.data.copy() for k, v in params.items()}

    (la, pa), (lb, pb) = run(), run()
    assert la == lb
    for k in pa:
        assert (pa[k] == pb[k]).all()


def test_batch_gradient_is_mean_of_sample_gradients():
    clips, grid, enc, dec, cfg = _tiny_train_setup(seed=11)
    params = md.init_params(enc, dec, seed=2, dtype=np.float64)
    tgt = cfg.target_config()

    def sample_loss(i):
        from motionmae.targets import make_targets
        mask = tk.sample_mask(grid, 0.75, "random", seed=100 + i)
        bundle = make_targets(clips[i], mask, grid, tgt)
        ps, pt = md.forward_pretrain(clips[i], mask, grid, enc, dec, params)
        return tr.total_loss(tr.masked_loss(ps, bundle.space, mask, "mse"),
                             tr.masked_loss(pt, bundle.time, mask, "mse"), 1.0)

    tape = Tape()
    for p in params.values():
        tape.watch(p)
    backward(nm.scale(nm.add(sample_loss(0), sample_loss(1)), 0.5), tape)
    batch_grads = {k: p.grad.copy() for k, p in params.items()}

    singles = []
    for i in range(2):
        tape = Tape()
        for p in params.values():
            tape.watch(p)
        backward(sample_loss(i), tape)
        singles.append({k: p.grad.copy() for k, p in params.items()})

    for k in batch_grads:
        want = 0.5 * (singles[0][k] + singles[1][k])
        np.testing.assert_allclose(batch_grads[k], want, atol=1e-12)


def _grads_of(loss_fn, params):
    tape = Tape()
    for p in params.values():
        tape.watch(p)
    parts = loss_fn()
    backward(parts[0], tape)
    return parts, {k: p.grad.copy() for k, p in params.items()}


def _assert_grads_close(got, want):
    # float32 rounding noise scales with the largest gradient, so entries far
    # below it are held to that scale (near-zero patch_proj entries differ
    # by up to 1.6e-9, which rtol alone rejects)
    atol = 1e-5 * max(np.abs(g).max() for g in want.values())
    for k in want:
        np.testing.assert_allclose(got[k], want[k], rtol=1e-5, atol=atol, err_msg=k)


@pytest.mark.parametrize("loss_kind", tr.LOSS_KINDS)
@pytest.mark.parametrize("arch", ["parallel", "shared"])
@pytest.mark.parametrize("strategy,ratio", [("random", 0.75), ("tube", 0.5),
                                            ("time_only", 0.5)])
def test_batched_pretrain_matches_mean_of_single_clips(strategy, ratio, arch,
                                                       loss_kind):
    """One (B, N, D) graph over four clips gives the mean of the four B = 1
    passes: the loss parts and every parameter gradient."""
    clips, _ = _tiny_task(4, seed=31)
    _, grid = tk.patchify(clips[0], 2, 4)
    enc, dec = md.preset_configs("tiny", grid, arch=arch)
    cfg = tr.TrainConfig(loss_kind=loss_kind, gap=2, normalize_space=True,
                         lam=0.5, mask_ratio=ratio, mask_strategy=strategy)
    params = md.init_params(enc, dec, seed=4)
    masks = [tk.sample_mask(grid, ratio, strategy, seed=40 + i) for i in range(4)]

    (loss, ls, lt), batch_grads = _grads_of(
        lambda: tr.pretrain_loss(clips, masks, params, grid, enc, dec, cfg), params)
    singles = [_grads_of(lambda: tr.pretrain_loss([c], [m], params, grid, enc,
                                                  dec, cfg), params)
               for c, m in zip(clips, masks)]

    for got, i in ((loss, 0), (ls, 1), (lt, 2)):
        want = np.mean([float(parts[i].data) for parts, _ in singles])
        np.testing.assert_allclose(float(got.data), want, rtol=1e-5)
    _assert_grads_close(batch_grads, {k: np.mean([g[k] for _, g in singles], axis=0)
                                      for k in params})


def test_batched_finetune_loss_matches_mean_of_single_clips():
    clips, labels = _tiny_task(4, seed=32)
    _, grid = tk.patchify(clips[0], 2, 4)
    enc, _ = md.preset_configs("tiny", grid)
    params = md.init_params(enc, None, seed=5, num_classes=4)

    def loss_of(cs, ls):
        return (tr.cross_entropy(md.classify(cs, grid, enc, params), ls),)

    (loss,), batch_grads = _grads_of(lambda: loss_of(clips, labels), params)
    singles = [_grads_of(lambda: loss_of([c], [y]), params)
               for c, y in zip(clips, labels)]
    want = np.mean([float(parts[0].data) for parts, _ in singles])
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-5)
    _assert_grads_close(batch_grads, {k: np.mean([g[k] for _, g in singles], axis=0)
                                      for k in params})


@pytest.mark.parametrize("arch", ["parallel", "shared", "classifier"])
def test_every_parameter_moves_the_loss(arch):
    """On the gradcheck's float64 model (cli._end_to_end_check's grid,
    widths, seeds and masks), with either decoder or as a classifier under
    cross-entropy, each parameter tensor's largest |gradient| is at least
    1e-8 of the largest tensor's. A parameter the loss cannot see has a
    gradient of rounding alone: a key bias, which the softmax cancels, read
    1e-18 to 1e-17 of the largest."""
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    enc = md.EncoderConfig(depth=2, embed_dim=16, heads=2, mlp_ratio=2.0,
                           token_dim=grid.token_dim)
    rng = np.random.default_rng(3)
    clips = [rng.uniform(0.0, 1.0, grid.clip_shape).astype(np.float32)
             for _ in range(2)]
    if arch == "classifier":
        params = md.init_params(enc, None, seed=11, num_classes=3, dtype=np.float64)
        loss = lambda: (nm.cross_entropy(md.classify(clips, grid, enc, params), [2, 0]),)
    else:
        dec = md.DecoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=2.0,
                               space_dim=grid.token_dim, time_dim=grid.motion_dim,
                               arch=arch)
        params = md.init_params(enc, dec, seed=11, dtype=np.float64)
        masks = [tk.sample_mask(grid, 0.5, "random", seed=s) for s in (4, 5)]
        cfg = tr.TrainConfig(target_kind="both", loss_kind="mse", lam=1.0)
        loss = lambda: tr.pretrain_loss(clips, masks, params, grid, enc, dec, cfg)
    _, grads = _grads_of(loss, params)
    peaks = {k: np.abs(g).max() for k, g in grads.items()}
    top = max(peaks.values())
    assert {k: p / top for k, p in peaks.items() if p < 1e-8 * top} == {}


def test_pretrain_batch_rejects_unequal_hidden_counts():
    clips, grid, enc, dec, cfg = _tiny_train_setup()
    params = md.init_params(enc, dec, seed=1)
    masks = [tk.sample_mask(grid, 0.75, "random", seed=1),
             tk.sample_mask(grid, 0.5, "random", seed=2)]
    with pytest.raises(ValueError, match="different token counts"):
        tr.pretrain_loss(clips[:2], masks, params, grid, enc, dec, cfg)


def test_pretrain_step_cuts_tokens_and_targets_once(monkeypatch):
    """A step patchifies its stacked clips once for the model, once for the
    frame targets and its anchor frames once for the motion targets, and
    builds the whole batch's targets in one call."""
    from motionmae import targets as tg
    clips, grid, enc, dec, cfg = _tiny_train_setup(batch_size=4)
    params = md.init_params(enc, dec, seed=1)
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(md, "patchify")
    counted(tg, "patchify")
    counted(tr, "make_targets")
    tr.pretrain_step(clips, params, OptimState.for_params(params), grid, enc, dec,
                     cfg, 0)
    assert sorted(calls) == ["make_targets", "patchify", "patchify", "patchify"]


def test_tiny_batch_graph_records_fewer_than_100_ops():
    """Two records per transformer block, attention and mlp, plus its two
    residual adds keep a tiny batch-8 pretrain graph (2 encoder blocks, two
    1-block decoder stacks) under 100 tape ops."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(n_clips=8, batch_size=8)
    params = md.init_params(enc, dec, seed=1)
    masks = [tk.sample_mask(grid, 0.75, "random", seed=i) for i in range(8)]
    tape = Tape()
    for p in params.values():
        tape.watch(p)
    tr.pretrain_loss(clips, masks, params, grid, enc, dec, cfg)
    assert len(tape) < 100


def test_pretrain_step_builds_no_mask_index_arrays(monkeypatch):
    """A step addresses token rows by mask bits alone: neither a clip's mask
    nor the batch's builds its index arrays."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(batch_size=4)
    params = md.init_params(enc, dec, seed=1)
    masks = []

    def kept(make):
        def wrapper(*args, **kwargs):
            masks.append(make(*args, **kwargs))
            return masks[-1]
        return wrapper

    monkeypatch.setattr(tr, "sample_mask", kept(tr.sample_mask))
    monkeypatch.setattr(tr, "Mask", kept(tr.Mask))
    tr.pretrain_step(clips, params, OptimState.for_params(params), grid, enc, dec,
                     cfg, 0)
    assert [m.bits.ndim for m in masks] == [1, 1, 1, 1, 2]
    for m in masks:
        assert "masked_indices" not in vars(m)
        assert "visible_indices" not in vars(m)


def test_run_pretrain_csv_bookkeeping(tmp_path):
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=10, log_interval=3)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path)
    rows = (tmp_path / "loss.csv").read_text().strip().splitlines()
    assert rows[0] == "step,loss,loss_space,loss_time"
    assert len(rows) - 1 == 4  # ceil(10 / 3)
    assert rows[-1].startswith("10,")


def test_run_pretrain_frame_only_empty_time_column(tmp_path):
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=4, log_interval=2,
                                                   target_kind="frame")
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path)
    for row in (tmp_path / "loss.csv").read_text().strip().splitlines()[1:]:
        assert row.endswith(",")


def test_run_pretrain_resume_bit_exact(tmp_path):
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=8,
                                                   checkpoint_interval=4)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "full")
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "resumed",
                    resume_from=tmp_path / "full" / "checkpoint_000004.mmck")
    a = (tmp_path / "full" / "checkpoint_final.mmck").read_bytes()
    b = (tmp_path / "resumed" / "checkpoint_final.mmck").read_bytes()
    assert a == b


def test_resume_into_same_dir_rewrites_loss_csv_identically(tmp_path):
    """Rows after the checkpoint step are dropped before the replay appends
    them again, so the log matches the uninterrupted run byte for byte."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=8, log_interval=1,
                                                   checkpoint_interval=4)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path)
    uninterrupted = (tmp_path / "loss.csv").read_bytes()
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path,
                    resume_from=tmp_path / "checkpoint_000004.mmck")
    assert (tmp_path / "loss.csv").read_bytes() == uninterrupted


def test_resume_after_a_hard_kill_logs_every_step(tmp_path):
    """A run killed with no cleanup right after its step-4 checkpoint has
    logged steps 1 to 4, so resuming into the same directory ends with the
    uninterrupted run's loss.csv."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=8, log_interval=1,
                                                   checkpoint_interval=4)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "full")
    script = textwrap.dedent("""\
        import os, sys
        import test_training as t
        from motionmae import training as tr
        save = tr.save_checkpoint
        def save_then_die(*args):
            save(*args)
            os._exit(9)
        tr.save_checkpoint = save_then_die
        clips, grid, enc, dec, cfg = t._tiny_train_setup(
            total_steps=8, log_interval=1, checkpoint_interval=4)
        tr.run_pretrain(clips, grid, enc, dec, cfg, sys.argv[1])
        """)
    paths = [str(Path(tr.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = tmp_path / "killed"
    done = subprocess.run([sys.executable, "-c", script, str(run)], env=env,
                          timeout=300)
    assert done.returncode == 9
    assert sorted(p.name for p in run.iterdir()) == ["checkpoint_000004.mmck",
                                                     "loss.csv"]
    tr.run_pretrain(clips, grid, enc, dec, cfg, run,
                    resume_from=run / "checkpoint_000004.mmck")
    assert (run / "loss.csv").read_bytes() == (tmp_path / "full" / "loss.csv").read_bytes()


def test_resume_drops_an_unterminated_last_row(tmp_path):
    """A kill mid-write can leave the log ending in part of a row, such as
    the `1` of `12,...`: resume keeps whole rows only."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=8, log_interval=1,
                                                   checkpoint_interval=4)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path)
    log = tmp_path / "loss.csv"
    uninterrupted = log.read_bytes()
    log.write_bytes(b"".join(uninterrupted.splitlines(keepends=True)[:5]) + b"1")
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path,
                    resume_from=tmp_path / "checkpoint_000004.mmck")
    assert log.read_bytes() == uninterrupted


def test_resume_whose_loss_csv_rewrite_fails_keeps_the_old_log(tmp_path, monkeypatch):
    """On resume, the kept rows of loss.csv are rewritten through a temporary
    file: a write that fails midway leaves the old log whole."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=8, log_interval=1,
                                                   checkpoint_interval=4)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path)
    old = (tmp_path / "loss.csv").read_bytes()
    real_open = open

    def open_(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return _DiskFull(fh) if "loss.csv" in Path(file).name else fh

    for module in (tr, vd):
        monkeypatch.setattr(module, "open", open_, raising=False)
    with pytest.raises(OSError):
        tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path,
                        resume_from=tmp_path / "checkpoint_000004.mmck")
    assert (tmp_path / "loss.csv").read_bytes() == old
    assert list(tmp_path.rglob("*.tmp")) == []


def test_resume_rejects_checkpoint_of_another_decoder(tmp_path):
    """A parallel-decoder checkpoint shares the shared decoder's config
    digest but not its parameters: rejected before loss.csv is opened."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=2)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "parallel")
    _, shared = md.preset_configs("tiny", grid, arch="shared")
    with pytest.raises(ValueError, match="dec.shared.embed.w: checkpoint absent"):
        tr.run_pretrain(clips, grid, enc, shared, cfg, tmp_path / "shared",
                        resume_from=tmp_path / "parallel" / "checkpoint_final.mmck")
    assert not (tmp_path / "shared" / "loss.csv").exists()


def test_load_params_replaces_every_named_param(tmp_path):
    params, opt = _small_state(seed=1)
    tr.save_checkpoint(params, opt, 3, bytes(32), tmp_path / "c.mmck")
    target, _ = _small_state(seed=2)
    target["cls.w"] = Tensor(np.ones((4, 2), np.float32))
    got_opt = OptimState.for_params(target)
    step = tr.load_params(tmp_path / "c.mmck", target, prefixes=("enc.",),
                          opt=got_opt)
    assert step == 3 and got_opt.t == 3
    for name in params:
        np.testing.assert_array_equal(target[name].data, params[name].data)
        np.testing.assert_array_equal(got_opt.m[name], opt.m[name])
        np.testing.assert_array_equal(got_opt.v[name], opt.v[name])
    assert (target["cls.w"].data == 1.0).all()  # outside the prefixes


@pytest.mark.parametrize("change,misfit", [
    (lambda p: p.update({"enc.extra": Tensor(np.zeros(2, np.float32))}),
     "enc.extra: checkpoint (2,), model absent"),
    (lambda p: p.pop("enc.b"), "enc.b: checkpoint absent, model (4,)"),
    (lambda p: p.update({"enc.b": Tensor(np.zeros(5, np.float32))}),
     "enc.b: checkpoint (5,), model (4,)"),
], ids=["extra", "missing", "misshaped"])
def test_load_params_rejects_misfit_and_leaves_params_untouched(tmp_path, change,
                                                                misfit):
    """An extra, a missing or a mis-shaped parameter in the checkpoint is
    named, and no parameter of the model is replaced."""
    saved, _ = _small_state(seed=1)
    change(saved)
    tr.save_checkpoint(saved, OptimState.for_params(saved), 1, bytes(32),
                       tmp_path / "c.mmck")
    params, _ = _small_state(seed=2)
    before = dict(params)
    with pytest.raises(ValueError, match=rf"\(1 misfit\(s\)\): {re.escape(misfit)}$"):
        tr.load_params(tmp_path / "c.mmck", params)
    assert params.keys() == before.keys()
    assert all(params[k] is before[k] for k in before)


def test_resume_rejects_a_negative_second_moment(tmp_path):
    """A checkpoint whose digest holds but whose second moment has a negative
    entry, which AdamW's square root would turn into NaN, is rejected at
    load naming the tensor, before loss.csv is written."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=4,
                                                   checkpoint_interval=2)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "run")
    params = md.init_params(enc, dec, seed=0)
    opt = OptimState.for_params(params)
    digest = tr.config_digest(cfg)
    step = tr.load_params(tmp_path / "run" / "checkpoint_000002.mmck", params,
                          expect_digest=digest, opt=opt)
    opt.flat_v[0] = -1.0
    tr.save_checkpoint(params, opt, step, digest, tmp_path / "bad.mmck")
    first = next(iter(opt.v))
    with pytest.raises(ValueError, match=rf"{re.escape(first)}'s second moment is negative"):
        tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "resumed",
                        resume_from=tmp_path / "bad.mmck")
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("moment,value", [("m", np.nan), ("v", np.inf), ("v", np.nan)])
def test_load_params_rejects_non_finite_moments(tmp_path, moment, value):
    """Loaded with `opt`, a non-finite moment is rejected naming its tensor,
    and nothing is written; loaded without, the parameters alone load."""
    params, opt = _small_state(seed=1)
    getattr(opt, moment)["enc.b"][2] = value
    tr.save_checkpoint(params, opt, 3, bytes(32), tmp_path / "c.mmck")
    target, target_opt = _small_state(seed=2)
    before = target["enc.w"].data.copy()
    with pytest.raises(NonFiniteError, match="enc.b's moments hold non-finite"):
        tr.load_params(tmp_path / "c.mmck", target, opt=target_opt)
    assert (target["enc.w"].data == before).all() and target_opt.t == 0
    assert tr.load_params(tmp_path / "c.mmck", target) == 3


# ---- finetune ----


def test_finetune_overfits_small_train_set(tmp_path):
    clips, labels = _tiny_task(16, seed=21)
    val_clips, val_labels = _tiny_task(8, seed=22)
    _, grid = tk.patchify(clips[0], 2, 4)
    enc, _ = md.preset_configs("tiny", grid)
    cfg = tr.TrainConfig(lr=1e-3, warmup_steps=10, total_steps=150,
                         batch_size=8, seed=5)
    report, params = tr.run_finetune(clips, labels, val_clips, val_labels,
                                     grid, enc, cfg, num_classes=4)
    assert report["train_top1"] >= 0.5  # far above the 0.25 chance level
    assert 0.0 <= report["val_top1"] <= 1.0
    assert report["n_train"] == 16


def test_finetune_restores_encoder_weights_bit_exact(tmp_path):
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=2)
    params, opt, ckpt = tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path)

    labels = [0, 1, 2, 3]
    cfg_ft = tr.TrainConfig(total_steps=0, batch_size=1, seed=3)
    _, ft_params = tr.run_finetune(clips, labels, clips, labels, grid, enc,
                                   cfg_ft, num_classes=4, init_from=ckpt)
    for name, p in params.items():
        if name.startswith(("enc.", "patch_proj.")):
            assert (ft_params[name].data == p.data).all(), name
    assert "cls.w" in ft_params
    assert not any(k.startswith("dec.") for k in ft_params)


def test_eval_chunk_rule_at_the_tiny_and_desk_grids():
    """One chunk's (chunk, heads, N, N) float32 scores stay within 1 MiB:
    16 clips at the 64-token tiny grid, 1 at the 256-token desk grid."""
    for grid, preset, want in ((tk.TokenGrid(4, 4, 4, 2, 4, 1), "tiny", 16),
                               (tk.TokenGrid(4, 8, 8, 2, 8, 1), "desk", 1)):
        enc, _ = md.preset_configs(preset, grid)
        assert tr.eval_chunk_clips(grid, enc) == want
        assert want * enc.heads * grid.num_tokens ** 2 * 4 <= 2 ** 20


def test_chunked_evaluation_matches_per_clip_logits():
    clips, labels = _tiny_task(21, seed=24)  # one full chunk of 16, one of 5
    _, grid = tk.patchify(clips[0], 2, 4)
    enc, _ = md.preset_configs("tiny", grid)
    assert tr.eval_chunk_clips(grid, enc) == 16
    params = md.init_params(enc, None, seed=6, num_classes=4)
    top1, logits = tr.evaluate_top1(clips, labels, grid, enc, params)
    singles = [md.classify(c, grid, enc, params).data[0] for c in clips]
    assert len(logits) == len(clips)
    np.testing.assert_allclose(np.stack(logits), np.stack(singles), rtol=0, atol=1e-5)
    assert [int(np.argmax(r)) for r in logits] == [int(np.argmax(r)) for r in singles]
    assert top1 == np.mean([np.argmax(r) == y for r, y in zip(singles, labels)])
    _, again = tr.evaluate_top1(clips, labels, grid, enc, params)
    assert np.stack(again).tobytes() == np.stack(logits).tobytes()


def _workload_resolved(name, tmp_path):
    """The run config of a benchmark workload (perfbench/workloads.py) at
    seed 7, and what `cli.load_config` resolves from it."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    run, _ = workloads.configs(name, 7)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))
    return run, cli.load_config(str(path))[1]


def _spy_held_paths(monkeypatch) -> list:
    """Wrap numerics.attention and numerics.mlp where the model looks them
    up: each taped call appends (its name, the size of what its record may
    hold, the weights or h, and whether it holds it)."""
    seen = []

    def spying(name, real, size):
        def spy(x, *params):
            out = real(x, *params)
            rule = out.tape._records[-1][2]
            cells = dict(zip(rule.__code__.co_freevars, rule.__closure__))
            seen.append((name, size(x, params),
                         cells["held"].cell_contents is not None))
            return out
        return spy

    def weights(x, params):
        return int(np.prod(x.shape[:-1])) * params[-1] * x.shape[-2]

    def hidden(x, params):
        return int(np.prod(x.shape[:-1])) * params[2].shape[1]

    monkeypatch.setattr(nm, "attention", spying("attention", nm.attention, weights))
    monkeypatch.setattr(nm, "mlp", spying("mlp", nm.mlp, hidden))
    return seen


@pytest.mark.parametrize("name, pretrain, finetune", [
    ("tiny-pipeline",
     (37, {("attention", 8192, True), ("attention", 65536, True),
           ("mlp", 8192, True), ("mlp", 16384, True)}),
     (14, {("attention", 131072, True), ("mlp", 32768, True)})),
    ("tiny-variants",
     (27, {("attention", 2048, True), ("attention", 65536, True),
           ("mlp", 4096, True), ("mlp", 16384, True)}),
     (14, {("attention", 131072, True), ("mlp", 32768, True)})),
    ("desk-pipeline",
     (53, {("attention", 65536, True), ("attention", 524288, False),
           ("mlp", 196608, True), ("mlp", 393216, False)}),
     (22, {("attention", 1048576, False), ("mlp", 786432, False)})),
])
def test_workload_attention_records_hold_or_recompute_their_weights(
        monkeypatch, tmp_path, name, pretrain, finetune):
    """One taped pretraining and finetuning step's graph at each benchmark
    workload's shapes: a block is two records, attention and mlp, plus two
    adds, which pins the records a step takes. Every tiny record (at most
    131,072 weights, 32,768 hidden values) holds what it may; the desk
    pretraining encoder holds its 65,536 weights and 196,608 hidden values,
    while the desk decoder's (524,288 and 393,216) and the finetuning
    encoder's (1,048,576 and 786,432) are recomputed in the backward."""
    run, (grid, enc, dec, pre_cfg, ft_cfg) = _workload_resolved(name, tmp_path)
    seen = _spy_held_paths(monkeypatch)
    r = np.random.default_rng(0)
    shape = tuple(run["data"][k] for k in ("T", "H", "W", "channels"))
    for pretraining, cfg, (records, want) in ((True, pre_cfg, pretrain),
                                              (False, ft_cfg, finetune)):
        params = md.init_params(enc, dec if pretraining else None, seed=1,
                                num_classes=4)
        tape = Tape()
        for p in params.values():
            tape.watch(p)
        clips = [r.random(shape).astype(np.float32) for _ in range(cfg.batch_size)]
        seen.clear()
        if pretraining:
            masks = [tk.sample_mask(grid, cfg.mask_ratio, cfg.mask_strategy, seed=i)
                     for i in range(cfg.batch_size)]
            tr.pretrain_loss(clips, masks, params, grid, enc, dec, cfg)
        else:
            tr.cross_entropy(md.classify(clips, grid, enc, params),
                             [i % 4 for i in range(cfg.batch_size)])
        assert len(tape) == records
        assert set(seen) == want


@pytest.mark.parametrize("pretraining, bound", [(True, 30), (False, 36)],
                         ids=["pretrain", "finetune"])
def test_desk_step_peak_memory(tmp_path, pretraining, bound):
    """One desk-pipeline step (forward, backward and AdamW, the parameter
    arena built beforehand) keeps LayerNorm's xhat and not its output, and
    the MLP's hidden layer only within SCORE_BUDGET: a pretraining step's
    traced peak is about 27.4 MiB and a finetuning step's 31.2 MiB. Records
    that kept every LayerNorm output and hidden layer peaked at 34.6 and
    43.8 MiB."""
    run, (grid, enc, dec, pre_cfg, ft_cfg) = _workload_resolved("desk-pipeline",
                                                                tmp_path)
    t, h, w, c = (run["data"][k] for k in ("T", "H", "W", "channels"))
    cfg = pre_cfg if pretraining else ft_cfg
    clips = [vd.dataset_clip(i, t, h, w, seed=5, channels=c)[0]
             for i in range(cfg.batch_size)]
    params = md.init_params(enc, dec if pretraining else None, seed=1,
                            num_classes=None if pretraining else 4)
    opt = OptimState.for_params(params)
    labels = [i % 4 for i in range(cfg.batch_size)]
    tracemalloc.start()
    try:
        if pretraining:
            tr.pretrain_step(clips, params, opt, grid, enc, dec, cfg, 0)
        else:
            tr._update(params, opt, cfg, 0, lambda: (tr.cross_entropy(
                md.classify(clips, grid, enc, params), labels),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_desk_finetune_forward_holds_no_attention_weights():
    """A taped desk finetuning forward (batch 4, 256 tokens, 4 encoder
    blocks of 4 heads) holds about 22.3 MiB at its end. Its four
    (4, 4, 256, 256) float32 weight arrays and four (1024, 768) hidden
    layers are recomputed in the backward, and no LayerNorm output inside a
    block is held; records that held the LayerNorm outputs and hidden
    layers held 37.3 MiB, and holding the weights again adds 16 MiB."""
    clips = [vd.dataset_clip(i, 8, 64, 64, seed=5)[0] for i in range(4)]
    _, grid = tk.patchify(clips[0], 2, 8)
    enc, _ = md.preset_configs("desk", grid)
    assert grid.num_tokens == 256 and (enc.depth, enc.heads) == (4, 4)
    params = md.init_params(enc, None, seed=3, num_classes=4)
    opt = OptimState.for_params(params)
    tape = Tape()
    for name, p in params.items():
        tape.watch(p, into=opt.grad[name])
    tracemalloc.start()
    try:
        loss = tr.cross_entropy(md.classify(clips, grid, enc, params), [0, 1, 2, 3])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.tape is tape
    assert held < 26 * 2**20, f"{held / 2**20:.1f} MiB held after the forward"


def test_finetune_rejects_single_class():
    clips, labels = _tiny_task(4, seed=23)
    _, grid = tk.patchify(clips[0], 2, 4)
    enc, _ = md.preset_configs("tiny", grid)
    with pytest.raises(ValueError):
        tr.run_finetune(clips, labels, clips, labels, grid, enc,
                        tr.TrainConfig(), num_classes=1)


# ---- checkpoints ----


def _small_state(dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    params = {
        "enc.w": Tensor(rng.normal(size=(3, 4)).astype(dtype)),
        "enc.b": Tensor(rng.normal(size=4).astype(dtype)),
    }
    opt = OptimState.for_params(params)
    opt.m["enc.w"] += 0.25
    opt.v["enc.b"] += 0.5
    return params, opt


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params, opt = _small_state()
    digest = tr.config_digest(tr.TrainConfig())
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 17, digest, p)
    arrays, (m2, v2), step = tr.load_checkpoint(p, expect_digest=digest)
    assert step == 17
    for name, t in params.items():
        assert (arrays[name] == t.data).all()
        assert (m2[name] == opt.m[name]).all()
        assert (v2[name] == opt.v[name]).all()


def test_checkpoint_bytes_match_the_joined_form(tmp_path):
    """The streamed checkpoint has the bytes of the version-2 layout joined
    in memory: header, step and table size, the name and shape of each
    parameter in arena order, the parameter, first-moment and second-moment
    payloads, and the digest."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=2)
    params = md.init_params(enc, dec, seed=1)
    opt = OptimState.for_params(params)
    tr.pretrain_step(clips[:2], params, opt, grid, enc, dec, cfg, 0)
    digest = tr.config_digest(cfg)
    tr.save_checkpoint(params, opt, 1, digest, tmp_path / "c.mmck")

    body = [b"MMCK", struct.pack("<B", 2), digest, struct.pack("<QI", 1, len(params))]
    body += [_entry(name.encode(), p.shape) for name, p in params.items()]
    for arrays in ({k: p.data for k, p in params.items()}, opt.m, opt.v):
        body += [arrays[k].astype("<f4").tobytes() for k in params]
    blob = b"".join(body)
    assert (tmp_path / "c.mmck").read_bytes() == blob + hashlib.sha256(blob).digest()


def test_checkpoint_loads_hold_one_copy_of_the_file(tmp_path):
    """Reading a checkpoint allocates about one file's worth of memory: the
    records are read-only views of the file's bytes, and load_params copies
    them once, into the arena built beforehand."""
    rng = np.random.default_rng(4)
    params = {f"enc.w{i}": Tensor(rng.normal(size=(256, 256)).astype(np.float32))
              for i in range(4)}
    opt = OptimState.for_params(params)
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 3, bytes(32), p)
    size = p.stat().st_size
    for load in (lambda: tr.load_checkpoint(p)[0],
                 lambda: tr.load_params(p, params, opt=opt)):
        tracemalloc.start()
        try:
            got = load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, f"peak {peak} bytes for a {size}-byte file"
    assert got == 3 and opt.t == 3
    arrays, (m, v), _ = tr.load_checkpoint(p)
    assert not any(a.flags.writeable for a in (*arrays.values(), *m.values(),
                                               *v.values()))


def _spy_first_update(monkeypatch, seen):
    """Wrap training.adamw_step: on the first update, record whether every
    parameter, gradient and moment is a view into the arena, and the
    parameters before and after the step."""
    real = tr.adamw_step

    def spy(params, state, **kw):
        if seen:
            return real(params, state, **kw)
        seen["homed"] = all(
            p.data is state.param[k] and np.shares_memory(p.data, state.flat_param)
            and p.grad is state.grad[k]
            and np.shares_memory(state.m[k], state.flat_m)
            and np.shares_memory(state.v[k], state.flat_v)
            for k, p in params.items())
        seen["before"] = {k: p.data.copy() for k, p in params.items()}
        seen["t"] = state.t
        real(params, state, **kw)
        seen["after"] = {k: p.data.copy() for k, p in params.items()}

    monkeypatch.setattr(tr, "adamw_step", spy)


def test_loaded_weights_stay_in_the_arena_and_keep_training(tmp_path, monkeypatch):
    """On resume and on a finetune warm start, load_params copies into the
    arena's views, and the first step updates the loaded values."""
    clips, grid, enc, dec, cfg = _tiny_train_setup(total_steps=4,
                                                   checkpoint_interval=2)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "run")
    ckpt = tmp_path / "run" / "checkpoint_000002.mmck"
    arrays, _, step = tr.load_checkpoint(ckpt)

    seen = {}
    _spy_first_update(monkeypatch, seen)
    tr.run_pretrain(clips, grid, enc, dec, cfg, tmp_path / "resumed", resume_from=ckpt)
    assert seen["homed"] and seen["t"] == step == 2
    for k, arr in arrays.items():
        assert seen["before"][k].tobytes() == arr.tobytes()
        assert not np.array_equal(seen["after"][k], arr), k

    seen.clear()
    labels = [0, 1, 2, 3]
    tr.run_finetune(clips, labels, clips, labels, grid, enc,
                    tr.TrainConfig(total_steps=1, batch_size=2, seed=3),
                    num_classes=4, init_from=ckpt)
    assert seen["homed"] and seen["t"] == 0
    loaded = [k for k in seen["before"] if k.startswith(("enc.", "patch_proj."))]
    assert loaded and len(loaded) == len(seen["before"]) - 2  # all but cls.*
    for k in loaded:
        assert seen["before"][k].tobytes() == arrays[k].tobytes()
        assert not np.array_equal(seen["after"][k], arrays[k]), k


class _DiskFull:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def writelines(self, lines):
        self.write("".join(lines))


def _write_ablate_csv(path):
    cfg = path.parent.parent / "cfg.json"
    cfg.write_text(json.dumps({
        "out_dir": str(path.parent), "data": {"dir": str(path.parent.parent / "ds"),
                                              "num_clips": 4, "T": 4, "H": 8, "W": 8},
        "train": {"total_steps": 1, "warmup_steps": 0, "batch_size": 2,
                  "finetune_steps": 1},
        "ablate": {"ratio": [0.5]}}))
    assert cli.main(["gen-data", "--config", str(cfg)]) == 0
    cli.cmd_ablate(argparse.Namespace(config=str(cfg), axis="ratio"))


# writer -> (the file it writes, a call that writes it)
_WRITERS = {
    "checkpoint": ("c.mmck",
                   lambda p: tr.save_checkpoint(*_small_state(), 1, bytes(32), p)),
    "clip": ("c.mmae", lambda p: vd.save_raw_clip(np.zeros((2, 4, 4, 1)), p)),
    "labels": ("labels.tsv",
               lambda p: vd.generate_dataset(p.parent, 2, 2, 4, 4, seed=0)),
    "ppm": ("r.ppm", lambda p: ev.write_ppm(np.zeros((2, 2, 3)), p)),
    "ablate_csv": ("run/ablate_ratio.csv", _write_ablate_csv),
}


@pytest.mark.parametrize("stage", ["write", "replace"])
@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_write_that_fails_midway_keeps_the_old_file(tmp_path, monkeypatch, writer,
                                                    stage):
    """A write or rename that fails on the file leaves its old bytes and no
    temporary file; the writes of other files go through."""
    name, write = _WRITERS[writer]
    p = tmp_path / name
    p.parent.mkdir(exist_ok=True)
    p.write_bytes(b"old")
    real_open, real_replace = open, os.replace
    if stage == "write":
        def open_(file, *args):
            fh = real_open(file, *args)
            return _DiskFull(fh) if Path(file).name.startswith(f".{p.name}.") else fh
        monkeypatch.setattr(vd, "open", open_, raising=False)
    else:
        def replace(src, dst):
            if Path(dst) == p:
                raise OSError("interrupted")
            real_replace(src, dst)
        monkeypatch.setattr(vd.os, "replace", replace)
    with pytest.raises(OSError):
        write(p)
    assert p.read_bytes() == b"old"
    assert list(tmp_path.rglob("*.tmp")) == []


def test_checkpoint_rejects_double_precision(tmp_path):
    params, opt = _small_state(dtype=np.float64)
    with pytest.raises(ValueError):
        tr.save_checkpoint(params, opt, 0, bytes(32), tmp_path / "c.mmck")


def test_checkpoint_rejects_params_that_are_not_the_arena(tmp_path):
    """The payloads are the arena, so a rebound tensor, whose values the
    arena no longer holds, or params of another state are rejected rather
    than saved stale."""
    params, opt = _small_state()
    other, _ = _small_state()
    with pytest.raises(ValueError, match="not the tensors"):
        tr.save_checkpoint(other | {"enc.x": other["enc.w"]}, opt, 1, bytes(32),
                           tmp_path / "c.mmck")
    params["enc.w"].data = params["enc.w"].data + 1
    with pytest.raises(ValueError, match="arena view"):
        tr.save_checkpoint(params, opt, 1, bytes(32), tmp_path / "c.mmck")
    assert not (tmp_path / "c.mmck").exists()


def test_checkpoint_corrupted_byte_digest_error(tmp_path):
    params, opt = _small_state()
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 1, bytes(32), p)
    blob = bytearray(p.read_bytes())
    blob[60] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(tr.CheckpointDigestError):
        tr.load_checkpoint(p)


def test_checkpoint_config_digest_mismatch(tmp_path):
    params, opt = _small_state()
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 1, tr.config_digest(tr.TrainConfig()), p)
    other = tr.config_digest(tr.TrainConfig(lr=9.9))
    with pytest.raises(tr.CheckpointDigestError):
        tr.load_checkpoint(p, expect_digest=other)


def test_checkpoint_version_and_magic_errors(tmp_path):
    """A version byte other than 2, version 1's included, is a version
    error: no reader for the old record stream is kept."""
    params, opt = _small_state()
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 1, bytes(32), p)

    for version in (1, 42):
        blob = bytearray(p.read_bytes())
        blob[4] = version
        p.write_bytes(_redigested(bytes(blob[:-32])))
        with pytest.raises(tr.CheckpointVersionError):
            tr.load_checkpoint(p)

    p.write_bytes(b"JUNK" + bytes(80))
    with pytest.raises(tr.CheckpointFormatError):
        tr.load_checkpoint(p)


def test_checkpoint_duplicate_record_rejected(tmp_path):
    """A name that repeats in the table is a malformed file, even when the
    content digest is right, not a silent overwrite."""
    table = _entry(b"x", (3,)) + _entry(b"x", (3,))
    p = tmp_path / "dup.mmck"
    p.write_bytes(_redigested(_header(2) + table + bytes(12 * 6)))
    with pytest.raises(tr.CheckpointFormatError, match="duplicate name 'x'"):
        tr.load_checkpoint(p)


def test_checkpoint_truncation_error(tmp_path):
    params, opt = _small_state()
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 1, bytes(32), p)
    p.write_bytes(p.read_bytes()[:50])
    with pytest.raises(tr.CheckpointError):
        tr.load_checkpoint(p)


@pytest.mark.parametrize("change,error", [(-4, tr.CheckpointTruncatedError),
                                          (4, tr.CheckpointFormatError)],
                         ids=["short", "long"])
def test_checkpoint_payloads_must_fill_the_table(tmp_path, change, error):
    """Payloads shorter than the table's shapes need are cut short; longer
    ones are malformed."""
    params, opt = _small_state()
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 1, bytes(32), p)
    content = p.read_bytes()[:-32]
    content = content[:change] if change < 0 else content + bytes(change)
    p.write_bytes(_redigested(content))
    with pytest.raises(error, match="payload bytes"):
        tr.load_checkpoint(p)


def _redigested(content: bytes) -> bytes:
    return content + hashlib.sha256(content).digest()


def _header(count, step=1):
    """Magic, version, a zero config digest, the step and the table size."""
    return (tr.CHECKPOINT_MAGIC + struct.pack("<B", tr.CHECKPOINT_VERSION)
            + bytes(32) + struct.pack("<QI", step, count))


def _entry(name: bytes, dims) -> bytes:
    """One table entry: the name's length and bytes, the rank, the dims."""
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims))


def test_checkpoint_non_utf8_record_name_is_format_error(tmp_path):
    p = tmp_path / "name.mmck"
    p.write_bytes(_redigested(_header(1) + _entry(b"\xffx", (3,)) + bytes(12 * 3)))
    with pytest.raises(tr.CheckpointFormatError, match="UTF-8"):
        tr.load_checkpoint(p)


def test_checkpoint_dims_too_large_to_count_are_truncation(tmp_path):
    """Dims whose product overflows int64 (2**31 * 2**31 * 4 = 2**64) must not
    wrap to an empty payload."""
    p = tmp_path / "dims.mmck"
    p.write_bytes(_redigested(_header(1) + _entry(b"x", (2 ** 31, 2 ** 31, 4))
                              + bytes(12)))
    with pytest.raises(tr.CheckpointTruncatedError):
        tr.load_checkpoint(p)


@pytest.mark.parametrize("dims", [(3, 0, 2 ** 31, 2 ** 31, 2 ** 31), (1,) * 70])
def test_checkpoint_dims_numpy_cannot_shape_are_format_error(tmp_path, dims):
    """An empty payload whose dims still overflow numpy's size, or more dims
    than numpy allows, is a malformed table."""
    count = int(np.prod(dims, dtype=object))
    p = tmp_path / "dims.mmck"
    p.write_bytes(_redigested(_header(1) + _entry(b"x", dims) + bytes(12 * count)))
    with pytest.raises(tr.CheckpointFormatError, match="cannot shape"):
        tr.load_checkpoint(p)


_TABLE_AT = 45  # magic + version + config digest + step; the table size follows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_damaged_records_raise_only_checkpoint_errors(tmp_path, data):
    """Truncations, and byte flips in the table and its size, re-digested so
    that only the table or the payload length is wrong, either load or raise
    a CheckpointError."""
    params, opt = _small_state()
    p = tmp_path / "c.mmck"
    tr.save_checkpoint(params, opt, 1, bytes(32), p)
    content = bytearray(p.read_bytes()[:-32])
    table_end = _TABLE_AT + 4 + sum(len(_entry(k.encode(), t.shape))
                                    for k, t in params.items())
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(_TABLE_AT, len(content) - 1), label="cut")
        content = content[:cut]
    else:
        flips = data.draw(st.lists(st.tuples(
            st.integers(_TABLE_AT, table_end - 1), st.integers(1, 255)),
            min_size=1, max_size=4), label="flips")
        for at, xor in flips:
            content[at] ^= xor
    p.write_bytes(_redigested(bytes(content)))
    try:
        tr.load_checkpoint(p)
    except tr.CheckpointError:
        pass
