"""Command-line behavior: strict config, subcommands, exit codes."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionmae.cli import (DEFAULT_CONFIG, ConfigError, _cap_threads,
                           _primitive_checks, load_config, main)
from motionmae.evalviz import read_ppm
from motionmae.tokenizer import MASK_STRATEGIES
from motionmae.videodata import load_raw_clip, save_raw_clip


def write_cfg(tmp_path, **sections):
    """Write a small-footprint run config; sections override the base."""
    cfg = {
        "seed": 9,
        "out_dir": str(tmp_path / "run"),
        "data": {"dir": str(tmp_path / "ds"), "num_clips": 8,
                 "T": 4, "H": 8, "W": 8},
        "model": {"cube_t": 2, "cube_p": 4},
        "train": {"total_steps": 6, "warmup_steps": 1, "batch_size": 2,
                  "log_interval": 3, "finetune_steps": 8},
    }
    for key, value in sections.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---- config parsing ----


def test_default_config_is_valid():
    cfg, _ = load_config(None)
    assert cfg == DEFAULT_CONFIG
    cfg["train"]["lr"] = 999.0
    assert DEFAULT_CONFIG["train"]["lr"] != 999.0


def test_unknown_top_level_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"masc": {"ratio": 0.5}}')
    with pytest.raises(ConfigError, match="masc"):
        load_config(str(p))


def test_unknown_nested_key_names_full_path(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"train": {"learning_rate": 0.1}}')
    with pytest.raises(ConfigError, match="train.learning_rate"):
        load_config(str(p))


def test_wrong_leaf_type_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"mask": {"ratio": "most"}}')
    with pytest.raises(ConfigError, match="mask.ratio"):
        load_config(str(p))


def test_int_accepted_where_float_expected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"targets": {"lambda": 2}}')
    cfg, _ = load_config(str(p))
    assert cfg["targets"]["lambda"] == 2.0
    assert isinstance(cfg["targets"]["lambda"], float)


@pytest.mark.parametrize("snippet,field", [
    ('{"mask": {"ratio": 1.0}}', "mask.ratio"),
    ('{"mask": {"strategy": "cube"}}', "mask.strategy"),
    ('{"targets": {"kind": "flow"}}', "targets.kind"),
    ('{"targets": {"gap": 0}}', "targets.gap"),
    ('{"train": {"loss_kind": "l3"}}', "train.loss_kind"),
    ('{"model": {"preset": "huge"}}', "model.preset"),
    ('{"model": {"preset": null}}', "model.enc_depth"),
    ('{"data": {"crop_scale": [0.0, 1.0]}}', "data.crop_scale"),
])
def test_semantic_validation(tmp_path, snippet, field):
    p = tmp_path / "c.json"
    p.write_text(snippet)
    with pytest.raises(ConfigError, match=field.split(".")[-1]):
        load_config(str(p))


def test_explicit_dims_accepted_without_preset(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"model": {
        "preset": None, "enc_depth": 1, "enc_dim": 8, "enc_heads": 2,
        "enc_mlp": 2.0, "dec_depth": 1, "dec_dim": 8, "dec_heads": 2,
        "dec_mlp": 2.0}}))
    cfg, _ = load_config(str(p))
    assert cfg["model"]["enc_dim"] == 8


@pytest.mark.parametrize("key", ["enc_heads", "dec_heads"])
def test_zero_heads_rejected_at_load(tmp_path, key):
    model = {"preset": None, "enc_depth": 1, "enc_dim": 8, "enc_heads": 2,
             "enc_mlp": 2.0, "dec_depth": 1, "dec_dim": 8, "dec_heads": 2,
             "dec_mlp": 2.0, key: 0}
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"model": model}))
    with pytest.raises(ConfigError, match=f"model.{key}"):
        load_config(str(p))


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(p))


# ---- exit codes through main() ----


def test_exit_code_unknown_key(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"nope": 1}')
    assert main(["pretrain", "--config", str(p)]) == 2


def test_exit_code_missing_dataset(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["pretrain", "--config", cfg]) == 3


def test_exit_code_mis_shaped_clip_named_before_any_step(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    save_raw_clip(np.zeros((4, 8, 10, 1), np.float32),
                  tmp_path / "ds" / "clips" / "00003.mmae")
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg]) == 2
    assert "clip 00003" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_exit_code_non_finite_clip_named_before_any_step(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    clip = np.zeros((4, 8, 8, 1), np.float32)
    clip[0, 0, 0, 0] = np.nan
    save_raw_clip(clip, tmp_path / "ds" / "clips" / "00002.mmae")
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg]) == 3
    assert "00002.mmae" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_exit_code_damaged_labels_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    labels = tmp_path / "ds" / "labels.tsv"
    rows = labels.read_text().splitlines()
    rows[4] = rows[4].replace("\t", " ")
    labels.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg]) == 3
    assert f"{labels}:5:" in capsys.readouterr().err


@pytest.mark.parametrize("damage, says", [
    (lambda row: row.replace(b"\t", b"\tsideways-"), "is not one of"),
    (lambda row: row + b"\xff", "not UTF-8"),
], ids=["label-outside-directions", "not-utf8"])
def test_exit_code_bad_label_names_its_line(tmp_path, capsys, damage, says):
    """A label outside the direction classes, or a line that is not UTF-8,
    is a damaged dataset file: exit 3 naming the file and the line, before
    any step writes loss.csv."""
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    labels = tmp_path / "ds" / "labels.tsv"
    rows = labels.read_bytes().splitlines()
    rows[2] = damage(rows[2])
    labels.write_bytes(b"\n".join(rows) + b"\n")
    capsys.readouterr()
    assert main(["pretrain", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert f"{labels}:3:" in err and says in err
    assert not (tmp_path / "run").exists()


def test_exit_code_reconstruct_ratio_out_of_range(tmp_path):
    cfg = write_cfg(tmp_path, data={"dir": None})
    assert main(["reconstruct", "--config", cfg, "--ratio", "1.0"]) == 2


def test_exit_code_corrupt_checkpoint(tmp_path):
    """A damaged checkpoint is an unreadable file: exit 3, as for a clip."""
    cfg = write_cfg(tmp_path, data={"dir": None})
    bad = tmp_path / "bad.mmck"
    bad.write_bytes(b"MMCKxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
                    b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
    assert main(["reconstruct", "--config", cfg, "--init", str(bad)]) == 3


def test_exit_code_truncated_init_checkpoint(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["pretrain", "--config", cfg]) == 0
    ckpt = tmp_path / "run" / "checkpoint_final.mmck"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    assert main(["finetune", "--config", cfg, "--init", str(ckpt)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_checkpoint_with_key_biases_does_not_fit(tmp_path, capsys):
    """A checkpoint written while attention still learned a key bias holds
    `*.attn.bk` tensors the model no longer has: load_params names them in
    its misfit error, and finetune --init exits 2 on it."""
    from motionmae import model, numerics, training

    cfg = write_cfg(tmp_path)
    _, (grid, enc, dec, _, _) = load_config(cfg)
    params = model.init_params(enc, dec, seed=1)
    blocks = {k.rsplit(".attn.", 1)[0] for k in params if ".attn." in k}
    for block in blocks:
        params[f"{block}.attn.bk"] = numerics.Tensor(
            np.zeros_like(params[f"{block}.attn.bq"].data))
    old = tmp_path / "old.mmck"
    training.save_checkpoint(params, numerics.OptimState.for_params(params), 6,
                             bytes(32), old)
    with pytest.raises(ValueError, match=r"does not fit the model .*"
                                         r"attn\.bk: checkpoint \(\d+,\), model absent"):
        training.load_params(old, model.init_params(enc, dec, seed=1))
    assert main(["gen-data", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["finetune", "--config", cfg, "--init", str(old)]) == 2
    err = capsys.readouterr().err
    assert "does not fit the model" in err and "enc.block0.attn.bk" in err


def test_exit_code_seed_whose_data_seed_is_negative(tmp_path, capsys):
    """gen-data draws from seed + 1, which numpy takes only when >= 0: seed
    -2 is rejected naming the seed, and nothing is written; -1 runs."""
    assert main(["gen-data", "--config", write_cfg(tmp_path, seed=-2)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed")
    assert not (tmp_path / "ds").exists()
    assert main(["gen-data", "--config", write_cfg(tmp_path, seed=-1)]) == 0


def test_each_command_resolves_its_config_once(tmp_path, monkeypatch):
    """pretrain, finetune and reconstruct run what load_config resolved,
    rather than resolving the config a second time."""
    import motionmae.cli as cli

    cfg = write_cfg(tmp_path, train={"total_steps": 1, "warmup_steps": 0,
                                     "finetune_steps": 1})
    assert main(["gen-data", "--config", cfg]) == 0
    calls = []
    real = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda c: calls.append(1) or real(c))
    ckpt = str(tmp_path / "run" / "checkpoint_final.mmck")
    for argv in (["pretrain"], ["finetune", "--init", ckpt],
                 ["reconstruct", "--init", ckpt, "--ratio", "0.75"]):
        calls.clear()
        assert main([*argv, "--config", cfg]) == 0, argv
        assert len(calls) == 1, argv


def test_exit_code_missing_checkpoint_file(tmp_path):
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    cfg = write_cfg(tmp_path)
    rc = main(["finetune", "--config", cfg, "--init",
               str(tmp_path / "absent.mmck")])
    assert rc == 3


def test_exit_code_bad_ablation_axis(tmp_path):
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    assert main(["ablate", "--config", write_cfg(tmp_path),
                 "--axis", "bogus"]) == 2


@pytest.mark.parametrize("sections,field", [
    ({"train": {"log_interval": 0}}, "train.log_interval"),
    ({"train": {"total_steps": 0, "warmup_steps": 0}}, "train.total_steps"),
    ({"train": {"checkpoint_interval": -1}}, "train.checkpoint_interval"),
    ({"train": {"finetune_steps": -1}}, "train.finetune_steps"),
    ({"targets": {"gap": 4}}, "targets.gap"),  # as long as the T=4 clips
    ({"mask": {"ratio": 0.0}}, "mask.ratio"),
    ({"mask": {"strategy": "time_only"}, "data": {"T": 2}}, "mask.ratio"),  # one slot
    ({"train": {"lr": -1.0}}, "train.lr"),
    ({"train": {"finetune_lr": -1e-3}}, "train.finetune_lr"),
    ({"train": {"weight_decay": -0.05}}, "train.weight_decay"),
    ({"train": {"beta1": 1.0}}, "train.beta1"),
    ({"train": {"beta2": 1.5}}, "train.beta2"),
    ({"train": {"eps": 0.0}}, "train.eps"),
    ({"train": {"eps": -1e-8}}, "train.eps"),
    ({"train": {"warmup_steps": -1}}, "train.warmup_steps"),
    ({"train": {"lr": 20}}, "train.lr"),  # lr * weight_decay = 1 zeroes each step
    ({"train": {"finetune_lr": 20}}, "train.finetune_lr"),
])
def test_exit_code_untrainable_config(tmp_path, capsys, sections, field):
    data = sections.get("data", {})
    assert main(["gen-data", "--config", write_cfg(tmp_path, data=data)]) == 0
    assert main(["pretrain", "--config", write_cfg(tmp_path, **sections)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sections,field", [
    ({"train": {"finetune_steps": "x"}}, "train.finetune_steps"),
    ({"train": {"finetune_steps": 2.5}}, "train.finetune_steps"),
    ({"train": {"finetune_lr": "x"}}, "train.finetune_lr"),
    ({"model": {"enc_dim": "x"}}, "model.enc_dim"),
    ({"model": {"dec_mlp": [2]}}, "model.dec_mlp"),
    ({"data": {"dir": 5}}, "data.dir"),
    ({"data": {"val_dir": True}}, "data.val_dir"),
    ({"train": {"lr": None}}, "train.lr"),
])
def test_exit_code_leaf_of_wrong_type(tmp_path, capsys, sections, field):
    """Leaves whose default is null are type-checked too, and only those may
    be null; nothing is written."""
    assert main(["gen-data", "--config", write_cfg(tmp_path, **sections)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("key", ["enc_dim", "dec_dim"])
def test_exit_code_embed_dim_below_six(tmp_path, capsys, key):
    """Too narrow for the three-axis position code: rejected at load, before
    the run directory exists."""
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    model = {"preset": None, "enc_depth": 1, "enc_dim": 8, "enc_heads": 2,
             "enc_mlp": 2.0, "dec_depth": 1, "dec_dim": 8, "dec_heads": 2,
             "dec_mlp": 2.0, key: 4}
    assert main(["pretrain", "--config", write_cfg(tmp_path, model=model)]) == 2
    assert f"model.{key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key,value", [("enc_dim", 64), ("dec_mlp", 4.0)])
def test_exit_code_explicit_dim_under_preset(tmp_path, capsys, key, value):
    """A preset fixes every size, so an explicit one would be ignored: it is
    rejected at load, naming the field, before the run directory exists."""
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, model={"preset": "tiny", key: value})
    assert main(["pretrain", "--config", cfg]) == 2
    assert f"model.{key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key,value", [("enc_mlp", -1.0), ("enc_mlp", float("nan")),
                                       ("dec_mlp", -1.0), ("dec_mlp", float("inf"))])
def test_exit_code_mlp_ratio_below_zero_or_non_finite(tmp_path, capsys, key, value):
    """An MLP ratio that sizes no hidden layer is rejected at load, naming
    the field, before the run directory exists."""
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    model = {"preset": None, "enc_depth": 1, "enc_dim": 12, "enc_heads": 2,
             "enc_mlp": 2.0, "dec_depth": 1, "dec_dim": 8, "dec_heads": 2,
             "dec_mlp": 2.0, key: value}
    assert main(["pretrain", "--config", write_cfg(tmp_path, model=model)]) == 2
    assert f"config error: model.{key}: mlp_ratio" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_exit_code_non_finite_lambda(tmp_path, capsys, lam):
    """JSON's NaN and Infinity parse as numbers; either weight is rejected at
    load, naming the field, before the run directory exists."""
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, targets={"lambda": lam})
    assert main(["pretrain", "--config", cfg]) == 2
    assert "config error: targets.lambda" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_exit_code_decoder_depth_zero(tmp_path, capsys):
    """A decoder needs a block: rejected at load, naming the field."""
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    model = {"preset": None, "enc_depth": 1, "enc_dim": 8, "enc_heads": 2,
             "enc_mlp": 2.0, "dec_depth": 0, "dec_dim": 8, "dec_heads": 2,
             "dec_mlp": 2.0}
    assert main(["pretrain", "--config", write_cfg(tmp_path, model=model)]) == 2
    assert "model.dec_depth" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("scale,crop", [([0.3, 0.3], True), (["a", 1.0], False)])
def test_exit_code_crop_scale_rejected_at_load(tmp_path, capsys, scale, crop):
    """A crop scale that holds no integer crop of the 8x8 frame, or that is
    not two numbers, is rejected at load before the run directory exists."""
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, data={"crop": crop, "crop_scale": scale})
    assert main(["pretrain", "--config", cfg]) == 2
    assert "data.crop_scale" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,data", [
    ("gen-data", {"H": 2, "W": 2}),
    ("reconstruct", {"dir": None, "H": 1, "W": 1}),
])
def test_exit_code_frame_too_small_for_the_square(tmp_path, capsys, command, data):
    """The synthetic square needs frames at least 4 px on a side: every
    command rejects a smaller frame at load, with nothing written."""
    cfg = write_cfg(tmp_path, data=data, model={"cube_p": 1})
    assert main([command, "--config", cfg]) == 2
    assert "data.H/data.W: frame" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()
    assert not (tmp_path / "run").exists()


def test_exit_code_ablate_rejects_every_setting_up_front(tmp_path):
    cfg = write_cfg(tmp_path, train={"total_steps": 2, "warmup_steps": 0,
                                     "finetune_steps": 2},
                    ablate={"ratio": [0.5, 1.0]})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["ablate", "--config", cfg, "--axis", "ratio"]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("axis", ["gap", "ratio", "decoder"])
def test_exit_code_ablate_empty_list(tmp_path, capsys, axis):
    assert main(["gen-data", "--config", write_cfg(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, ablate={axis: []})  # rejected at load, by any command
    assert main(["ablate", "--config", cfg, "--axis", axis]) == 2
    assert f"ablate.{axis}" in capsys.readouterr().err
    assert not (tmp_path / "run" / f"ablate_{axis}.csv").exists()


def test_exit_code_ablate_list_item_of_wrong_type(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ablate={"gap": [1, "x"]})
    assert main(["ablate", "--config", cfg, "--axis", "gap"]) == 2
    assert "ablate.gap" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---- gen-data ----


def test_gen_data_writes_dataset(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    root = tmp_path / "ds"
    assert (root / "labels.tsv").exists()
    clips = sorted((root / "clips").iterdir())
    assert len(clips) == 8
    clip = load_raw_clip(clips[0])
    assert clip.shape == (4, 8, 8, 1)


def test_gen_data_count_override_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["gen-data", "--config", cfg, "--count", "3",
                 "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", cfg, "--count", "3",
                 "--out", str(out_b)]) == 0
    names = sorted(p.name for p in (out_a / "clips").iterdir())
    assert len(names) == 3
    for name in names:
        assert ((out_a / "clips" / name).read_bytes()
                == (out_b / "clips" / name).read_bytes())


# ---- pretrain ----


def test_pretrain_writes_artifacts_and_reports_loss(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["pretrain", "--config", cfg]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("final_loss=")]
    assert len(line) == 1
    assert float(line[0].split("=")[1]) > 0.0
    run = tmp_path / "run"
    assert (run / "checkpoint_final.mmck").exists()
    rows = (run / "loss.csv").read_text().strip().splitlines()
    assert rows[0] == "step,loss,loss_space,loss_time"
    assert rows[-1].startswith("6,")


def test_pretrain_frame_only_leaves_time_column_empty(tmp_path):
    cfg = write_cfg(tmp_path, targets={"kind": "frame"},
                    out_dir=str(tmp_path / "run_f"))
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["pretrain", "--config", cfg]) == 0
    rows = (tmp_path / "run_f" / "loss.csv").read_text().strip().splitlines()
    assert all(row.endswith(",") for row in rows[1:])


# ---- finetune ----


def test_finetune_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["finetune", "--config", cfg]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert set(report) == {"top1", "top5", "n", "train_top1"}
    assert report["n"] == 8
    assert 0.0 <= report["top1"] <= 1.0
    assert report["top5"] == 1.0  # 4 classes, top-4 always hits
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert printed == report


def test_finetune_from_pretrained_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["pretrain", "--config", cfg]) == 0
    ckpt = tmp_path / "run" / "checkpoint_final.mmck"
    assert main(["finetune", "--config", cfg, "--init", str(ckpt)]) == 0
    assert (tmp_path / "run" / "report.json").exists()


def test_finetune_init_from_shallower_encoder_rejected(tmp_path, capsys):
    """A depth-1 encoder checkpoint lacks the tiny preset's second block:
    exit 2 naming it, and no report is written."""
    model = {"preset": None, "enc_depth": 1, "enc_dim": 32, "enc_heads": 4,
             "enc_mlp": 2.0, "dec_depth": 1, "dec_dim": 16, "dec_heads": 2,
             "dec_mlp": 2.0}
    shallow = write_cfg(tmp_path, model=model, out_dir=str(tmp_path / "shallow"))
    assert main(["gen-data", "--config", shallow]) == 0
    assert main(["pretrain", "--config", shallow]) == 0
    ckpt = tmp_path / "shallow" / "checkpoint_final.mmck"
    capsys.readouterr()
    assert main(["finetune", "--config", write_cfg(tmp_path), "--init",
                 str(ckpt)]) == 2
    assert "enc.block1." in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_finetune_classifies_each_val_clip_once(tmp_path, monkeypatch):
    import numpy as np

    from motionmae import model, training

    calls = []

    def counting(classify):
        def wrapped(clips, *args, **kwargs):
            calls.append(len(clips) if np.ndim(clips[0]) == 4 else 1)
            return classify(clips, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(training, "classify", counting(training.classify))
    monkeypatch.setattr(model, "classify", counting(model.classify))
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["finetune", "--config", cfg]) == 0
    # the 8 steps classify a batch of 2 clips each, then evaluation
    # classifies each of the 8 train and the 8 val clips once
    assert sum(calls) == 8 * 2 + 8 + 8


def test_finetune_reads_each_clip_once_without_val_dir(tmp_path, monkeypatch):
    """With no data.val_dir the val set is the train set, read once."""
    from motionmae import videodata

    reads = []
    real = videodata.load_raw_clip
    monkeypatch.setattr(videodata, "load_raw_clip",
                        lambda path: reads.append(path) or real(path))
    cfg = write_cfg(tmp_path, train={"finetune_steps": 1})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["finetune", "--config", cfg]) == 0
    assert len(reads) == 8  # data.num_clips


# ---- reconstruct ----


def test_reconstruct_writes_one_image_per_ratio(tmp_path):
    cfg = write_cfg(tmp_path, data={"dir": None})
    assert main(["reconstruct", "--config", cfg,
                 "--ratio", "0.5,0.75"]) == 0
    for tag in ("50", "75"):
        img = read_ppm(tmp_path / "run" / f"recon_{tag}.ppm")
        assert img.shape == (4 * 8, 4 * 8, 3)  # 4 rows of T=4 frames, W=8


def test_reconstruct_init_must_fit_the_decoder(tmp_path, capsys):
    """A shared-decoder checkpoint renders under a shared config and is
    rejected, exit 2 with nothing written, under a parallel one."""
    shared = write_cfg(tmp_path, model={"arch": "shared"})
    assert main(["gen-data", "--config", shared]) == 0
    assert main(["pretrain", "--config", shared]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint_final.mmck")
    assert main(["reconstruct", "--config", shared, "--init", ckpt,
                 "--ratio", "0.5"]) == 0
    assert (tmp_path / "run" / "recon_50.ppm").exists()
    capsys.readouterr()
    parallel = write_cfg(tmp_path, out_dir=str(tmp_path / "parallel"))
    assert main(["reconstruct", "--config", parallel, "--init", ckpt,
                 "--ratio", "0.5"]) == 2
    assert "dec.space.embed.w: checkpoint absent" in capsys.readouterr().err
    assert not (tmp_path / "parallel").exists()


def test_reconstruct_reads_only_the_first_clip(tmp_path, monkeypatch):
    """With data.dir set, reconstruct loads the one clip it renders, not
    the whole dataset."""
    from motionmae import videodata

    reads = []
    real = videodata.load_raw_clip
    monkeypatch.setattr(videodata, "load_raw_clip",
                        lambda path: reads.append(path) or real(path))
    cfg = write_cfg(tmp_path, data={"num_clips": 64})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["reconstruct", "--config", cfg, "--ratio", "0.5"]) == 0
    assert [p.name for p in reads] == ["00000.mmae"]


def test_reconstruct_from_dataset_clip(tmp_path):
    """With no data.dir, reconstruct renders the first clip gen-data writes."""
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["reconstruct", "--config", cfg, "--ratio", "0.5"]) == 0
    from_disk = (tmp_path / "run" / "recon_50.ppm").read_bytes()
    cfg = write_cfg(tmp_path, data={"dir": None})
    assert main(["reconstruct", "--config", cfg, "--ratio", "0.5"]) == 0
    assert (tmp_path / "run" / "recon_50.ppm").read_bytes() == from_disk


# ---- gradcheck ----


def test_primitive_check_suite_passes():
    for name, runner in _primitive_checks():
        assert runner() < 1e-4, name


def test_gradcheck_covers_every_op():
    names = {name for name, _ in _primitive_checks()}
    expected = {"add", "mul", "scale", "matmul", "linear", "softmax",
                "attention", "gelu", "mlp", "layer_norm", "masked_penalty_mse",
                "masked_penalty_l1", "masked_penalty_smooth_l1", "cross_entropy",
                "scatter_rows", "sum_all", "mean_axis"}
    assert expected <= names


# ---- ablate ----


def test_ablate_writes_setting_csv(tmp_path):
    cfg = write_cfg(tmp_path, train={"total_steps": 2, "warmup_steps": 0,
                                     "finetune_steps": 2},
                    ablate={"ratio": [0.5, 0.75]})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["ablate", "--config", cfg, "--axis", "ratio"]) == 0
    rows = (tmp_path / "run" / "ablate_ratio.csv").read_text().strip().splitlines()
    assert rows[0] == "setting,top1"
    assert [r.split(",")[0] for r in rows[1:]] == ["0.5", "0.75"]
    for row in rows[1:]:
        assert 0.0 <= float(row.split(",")[1]) <= 1.0


def test_ablate_gap_axis_sorted(tmp_path):
    cfg = write_cfg(tmp_path, train={"total_steps": 2, "warmup_steps": 0,
                                     "finetune_steps": 2},
                    ablate={"gap": [2, 1]})
    assert main(["gen-data", "--config", cfg]) == 0
    assert main(["ablate", "--config", cfg, "--axis", "gap"]) == 0
    rows = (tmp_path / "run" / "ablate_gap.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]


# ---- small configs ----


@st.composite
def _small_frames(draw):
    """(T, H, W, cube_t, cube_p): mostly whole cubes, sometimes one frame or
    pixel over."""
    cube_t, cube_p = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    T, H, W = (draw(st.integers(1, 3)) * cube + draw(st.sampled_from([0, 0, 0, 1]))
               for cube in (cube_t, cube_p, cube_p))
    return T, H, W, cube_t, cube_p


@settings(derandomize=True, max_examples=200, deadline=None)
@given(frames=_small_frames(), strategy=st.sampled_from(MASK_STRATEGIES))
def test_small_config_runs_or_is_rejected_at_load(tmp_path_factory, frames, strategy):
    """A config either fails to load, with a message that starts with the
    config path at fault, or runs every command to exit 0."""
    T, H, W, cube_t, cube_p = frames
    tmp_path = tmp_path_factory.mktemp("cfg")
    cfg = write_cfg(tmp_path, data={"num_clips": 4, "T": T, "H": H, "W": W},
                    model={"cube_t": cube_t, "cube_p": cube_p},
                    mask={"strategy": strategy},
                    train={"total_steps": 1, "warmup_steps": 0, "finetune_steps": 1})
    try:
        load_config(cfg)
    except ConfigError as e:
        assert re.match(r"(data|model|mask|targets|train)\.\w", str(e)), str(e)
        return
    ckpt = str(tmp_path / "run" / "checkpoint_final.mmck")
    for argv in (["gen-data"], ["pretrain"], ["reconstruct", "--ratio", "0.75"],
                 ["finetune", "--init", ckpt]):
        assert main([*argv, "--config", cfg]) == 0, argv


# ---- environment ----


def test_thread_cap_defaults_to_one(monkeypatch):
    for var in ("MOTIONMAE_THREADS", "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_thread_cap_honors_env_and_existing(monkeypatch):
    monkeypatch.setenv("MOTIONMAE_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"  # pre-set values win
    assert os.environ["MKL_NUM_THREADS"] == "4"


def test_main_runs_without_mallopt_and_starts_no_subprocess(tmp_path, monkeypatch):
    import ctypes
    import subprocess

    def no_subprocess(*args, **kwargs):
        raise AssertionError("main started a subprocess")

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no mallopt
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    cfg = write_cfg(tmp_path)
    assert main(["gen-data", "--config", cfg]) == 0
    assert (tmp_path / "ds").is_dir()
