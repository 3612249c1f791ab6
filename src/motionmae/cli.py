"""Command-line entry point.

Subcommands: gen-data, pretrain, finetune, reconstruct, gradcheck, ablate.
All behavior is driven by a strict JSON config (unknown keys are errors);
every default is visible in `motionmae --help`. One config seed feeds the
whole pipeline through a fixed fan-out (`training.SEED_DATA`, `SEED_MASKS`,
`SEED_INIT`): data uses seed+1, masks seed+2, parameter init seed+3.

Exit codes: 0 success, 1 check failure, 2 config error, 3 I/O error,
4 numerical error.

Heavy imports happen inside the handlers so the MOTIONMAE_THREADS cap
(default 1) is in place before the numerics stack loads.
"""

from __future__ import annotations

import argparse
import copy
import json
import operator
import os
import sys
from contextlib import contextmanager
from functools import reduce
from pathlib import Path

GRADCHECK_TOLERANCE = 1e-4


class ConfigError(Exception):
    """A run configuration is malformed; the message names the field."""


DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "run_out",
    "data": {
        "dir": None,
        "val_dir": None,
        "num_clips": 64,
        "T": 8,
        "H": 16,
        "W": 16,
        "channels": 1,
        "crop": False,
        "crop_scale": [0.5, 1.0],
        "flip": False,
    },
    "mask": {"ratio": 0.75, "strategy": "random"},
    "targets": {"kind": "both", "gap": 1, "normalize": False, "lambda": 1.0},
    "model": {
        "preset": "tiny",
        "arch": "parallel",
        "cube_t": 2,
        "cube_p": 4,
        "enc_depth": None,
        "enc_dim": None,
        "enc_heads": None,
        "enc_mlp": None,
        "dec_depth": None,
        "dec_dim": None,
        "dec_heads": None,
        "dec_mlp": None,
    },
    "train": {
        "lr": 1.5e-4,
        "beta1": 0.9,
        "beta2": 0.95,
        "eps": 1e-8,
        "weight_decay": 0.05,
        "warmup_steps": 10,
        "total_steps": 200,
        "batch_size": 8,
        "loss_kind": "mse",
        "log_interval": 10,
        "checkpoint_interval": 0,
        "finetune_steps": None,
        "finetune_lr": None,
    },
    "ablate": {
        "gap": [1, 2, 4],
        "ratio": [0.75, 0.9],
        "decoder": ["parallel", "shared"],
    },
}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


# the leaves that may be null, and the type each takes otherwise; every
# other leaf takes the type of its default and may not be null
_NULLABLE = {
    "data.dir": str, "data.val_dir": str, "model.preset": str,
    "model.enc_depth": int, "model.enc_dim": int, "model.enc_heads": int,
    "model.enc_mlp": float, "model.dec_depth": int, "model.dec_dim": int,
    "model.dec_heads": int, "model.dec_mlp": float,
    "train.finetune_steps": int, "train.finetune_lr": float,
}


# the type each item of a list leaf takes
_LIST_ITEMS = {"data.crop_scale": float, "ablate.gap": int, "ablate.ratio": float,
               "ablate.decoder": str}


def _check_leaf(path: str, default, value):
    if value is None:
        if path in _NULLABLE:
            return None
        raise ConfigError(f"{path} must not be null")
    return _check_type(path, _NULLABLE.get(path, type(default)), value)


def _check_type(path: str, kind: type, value):
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number")
        try:
            return float(value)
        except OverflowError as e:
            raise ConfigError(f"{path} is too large for a float") from e
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        return [_check_type(f"{path}[{i}]", _LIST_ITEMS[path], item)
                for i, item in enumerate(value)]
    raise ConfigError(f"{path} has unsupported type")


def _merge_strict(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be an object")
            out[key] = _merge_strict(defaults[key], value, f"{path}.")
        else:
            out[key] = _check_leaf(path, defaults[key], value)
    return out


def _validate(cfg: dict) -> None:
    """The rules no config type owns. Every other field is checked by the
    type or function that uses it, when `_resolve` builds it."""
    model, data = cfg["model"], cfg["data"]
    if cfg["seed"] < -1:  # numpy takes no negative seed
        raise ConfigError(f"seed {cfg['seed']} must be >= -1: the data draws "
                          f"from seed + 1")
    if cfg["train"]["total_steps"] < 1:  # finetune_steps may be 0
        raise ConfigError("train.total_steps must be >= 1")
    for key in ("enc_depth", "enc_dim", "enc_heads", "enc_mlp",
                "dec_depth", "dec_dim", "dec_heads", "dec_mlp"):
        if model["preset"] is None and model[key] is None:
            raise ConfigError(f"model.{key} is required when model.preset is null")
        if model["preset"] is not None and model[key] is not None:
            raise ConfigError(f"model.{key} must be null when model.preset is set "
                              f"(the preset fixes the model sizes)")
    if model["cube_t"] < 1 or model["cube_p"] < 1:
        raise ConfigError("model cube dims must be >= 1")
    for key in ("T", "H", "W", "channels", "num_clips"):
        if data[key] < 1:
            raise ConfigError(f"data.{key} must be >= 1")
    if len(data["crop_scale"]) != 2:
        raise ConfigError("data.crop_scale must be a list of two numbers")
    for key, values in cfg["ablate"].items():
        if not values:
            raise ConfigError(f"ablate.{key} must list at least one setting")


def load_config(path: str | None) -> tuple[dict, tuple]:
    """Parse and fully check a run config. Returns the config and what
    `_resolve` built from it, which the command runs: every object a command
    builds from the config has been built once, so no later step rejects
    it."""
    if path is None:
        cfg = copy.deepcopy(DEFAULT_CONFIG)
    else:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        try:
            user = json.loads(text)
        except ValueError as e:  # JSONDecodeError, or an integer past int's digit limit
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge_strict(DEFAULT_CONFIG, user)
    return cfg, _resolve(cfg)


# ---------------------------------------------------------------------------
# Config -> concrete objects
# ---------------------------------------------------------------------------


@contextmanager
def _field_errors(paths: dict[str, str]):
    """Re-raise a config type's ValueError as a ConfigError that names the
    config field; the types start each message with the attribute they
    reject, and `paths` maps that attribute to its config path."""
    try:
        yield
    except ValueError as e:
        name = str(e).split()[0]
        raise ConfigError(f"{paths.get(name, name)}: {e}") from e


# TrainConfig field -> the config path it is read from
_TRAIN_FIELDS = {
    "lr": "train.lr", "beta1": "train.beta1", "beta2": "train.beta2",
    "eps": "train.eps", "weight_decay": "train.weight_decay",
    "warmup_steps": "train.warmup_steps", "total_steps": "train.total_steps",
    "batch_size": "train.batch_size", "loss_kind": "train.loss_kind",
    "log_interval": "train.log_interval",
    "checkpoint_interval": "train.checkpoint_interval",
    "target_kind": "targets.kind", "lam": "targets.lambda",
    "gap": "targets.gap", "normalize_space": "targets.normalize",
    "mask_ratio": "mask.ratio", "mask_strategy": "mask.strategy", "seed": "seed",
}


def _build_model_cfgs(cfg: dict, grid):
    from .model import DecoderConfig, EncoderConfig, preset_configs

    model = cfg["model"]
    if model["preset"] is not None:
        with _field_errors({"preset": "model.preset", "arch": "model.arch"}):
            return preset_configs(model["preset"], grid, arch=model["arch"])
    with _field_errors({"depth": "model.enc_depth", "embed_dim": "model.enc_dim",
                        "heads": "model.enc_heads", "mlp_ratio": "model.enc_mlp"}):
        enc = EncoderConfig(depth=model["enc_depth"], embed_dim=model["enc_dim"],
                            heads=model["enc_heads"], mlp_ratio=model["enc_mlp"],
                            token_dim=grid.token_dim)
    with _field_errors({"depth": "model.dec_depth", "embed_dim": "model.dec_dim",
                        "heads": "model.dec_heads", "mlp_ratio": "model.dec_mlp",
                        "arch": "model.arch"}):
        dec = DecoderConfig(depth=model["dec_depth"], embed_dim=model["dec_dim"],
                            heads=model["dec_heads"], mlp_ratio=model["dec_mlp"],
                            space_dim=grid.token_dim, time_dim=grid.motion_dim,
                            arch=model["arch"])
    return enc, dec


def _build_train_cfg(cfg: dict, finetune: bool = False):
    from .training import TrainConfig

    paths = dict(_TRAIN_FIELDS)
    if finetune:
        for field, key in (("total_steps", "finetune_steps"), ("lr", "finetune_lr")):
            if cfg["train"][key] is not None:
                paths[field] = f"train.{key}"
    kwargs = {field: reduce(operator.getitem, path.split("."), cfg)
              for field, path in paths.items()}
    if finetune:
        kwargs["warmup_steps"] = min(kwargs["warmup_steps"], kwargs["total_steps"])
    with _field_errors(paths):
        return TrainConfig(**kwargs)


def _resolve(cfg: dict):
    """Build what the commands run from a parsed config: (grid, encoder
    config, decoder config, pretrain TrainConfig, finetune TrainConfig).

    Raises ConfigError, naming the field, for any config that could not
    pretrain to the end.
    """
    import numpy as np

    from .targets import make_targets
    from .tokenizer import patchify, sample_mask
    from .training import SEED_DATA
    from .videodata import dataset_clip, random_resized_crop

    _validate(cfg)
    data, model = cfg["data"], cfg["model"]
    try:
        blank = np.zeros([data[k] for k in ("T", "H", "W", "channels")], np.float32)
    except (MemoryError, ValueError) as e:  # numpy names the shape it cannot allocate
        raise ConfigError(f"data.T/H/W/channels: {e}") from e
    with _field_errors({"clip": "model.cube_t/cube_p"}):
        _, grid = patchify(blank, model["cube_t"], model["cube_p"])
    enc, dec = _build_model_cfgs(cfg, grid)
    pretrain = _build_train_cfg(cfg)
    finetune = _build_train_cfg(cfg, finetune=True)
    # One synthetic clip, one crop, one mask and one target draw check the
    # frame, crop, mask and target fields where they are used. Whether a
    # frame fits the square or a crop scale holds an integer crop does not
    # depend on the seed, and every mask of a strategy hides the same count
    # whatever its seed, so a draw that fails here would fail at every step.
    with _field_errors({"frame": "data.H/data.W", "scale": "data.crop_scale",
                        "ratio": "mask.ratio", "strategy": "mask.strategy",
                        "kind": "targets.kind", "gap": "targets.gap"}):
        dataset_clip(0, data["T"], data["H"], data["W"], cfg["seed"] + SEED_DATA,
                     data["channels"])
        random_resized_crop(blank, tuple(data["crop_scale"]), data["H"], data["W"],
                            seed=0)
        mask = sample_mask(grid, pretrain.mask_ratio, pretrain.mask_strategy, seed=0)
        make_targets(blank, mask, grid, pretrain.target_config())
    if mask.num_masked == 0:
        raise ConfigError(f"mask.ratio {pretrain.mask_ratio} hides no token of the "
                          f"{grid.num_tokens}-token grid with strategy "
                          f"{pretrain.mask_strategy!r}")
    return grid, enc, dec, pretrain, finetune


def _dataset_entries(root) -> list[tuple[str, str]]:
    """The (id, label) lines of a dataset directory's labels.tsv; a missing
    directory or an empty dataset is rejected."""
    from .videodata import read_labels

    if root is None:
        raise ConfigError("data.dir must point to a dataset directory")
    if not Path(root).is_dir():
        raise FileNotFoundError(f"dataset directory {root} does not exist")
    entries = read_labels(root)
    if not entries:
        raise ConfigError(f"dataset at {root} is empty")
    return entries


def _load_clip(root, clip_id: str, grid):
    """One dataset clip, which must have the grid's clip shape."""
    from .videodata import load_dataset_clip

    clip = load_dataset_clip(root, clip_id)
    if clip.shape != grid.clip_shape:
        raise ConfigError(f"dataset clip {clip_id} at {root} has shape "
                          f"{clip.shape}, config says {grid.clip_shape}")
    return clip


def _load_dataset(root, grid):
    """Read clips and integer labels from a dataset directory; every clip
    must have the grid's clip shape."""
    from .videodata import DIRECTIONS

    entries = _dataset_entries(root)
    return ([_load_clip(root, clip_id, grid) for clip_id, _ in entries],
            [DIRECTIONS.index(label) for _, label in entries])


def _make_augment(cfg: dict):
    data = cfg["data"]
    if not (data["crop"] or data["flip"]):
        return None
    import numpy as np

    from .training import SEED_DATA, derive_seed
    from .videodata import hflip, random_resized_crop

    scale = tuple(data["crop_scale"])
    h, w = data["H"], data["W"]
    base = cfg["seed"] + SEED_DATA

    def augment(clip, step, j):
        rng = np.random.default_rng(derive_seed(base, step, j))
        if data["crop"]:
            clip = random_resized_crop(clip, scale, h, w,
                                       seed=int(rng.integers(2 ** 31)))
        if data["flip"] and rng.uniform() < 0.5:
            clip = hflip(clip)
        return clip

    return augment


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg, _ = load_config(args.config)
    from .training import SEED_DATA
    from .videodata import generate_dataset

    out = args.out if args.out else cfg["data"]["dir"]
    if out is None:
        raise ConfigError("pass --out or set data.dir")
    count = args.count if args.count is not None else cfg["data"]["num_clips"]
    if count < 1:
        raise ConfigError("--count must be >= 1")
    data = cfg["data"]
    entries = generate_dataset(out, count, data["T"], data["H"], data["W"],
                               seed=cfg["seed"] + SEED_DATA, channels=data["channels"])
    print(f"wrote {len(entries)} clips to {out}")
    return 0


def _pretrain(cfg: dict, resolved: tuple, clips, out_dir: Path) -> Path:
    """Pretrain under a loaded config and what `_resolve` built from it;
    returns the final checkpoint path."""
    from .training import run_pretrain

    grid, enc, dec, train_cfg, _ = resolved
    _, _, final = run_pretrain(clips, grid, enc, dec, train_cfg, out_dir,
                               augment=_make_augment(cfg))
    return final


def _finetune_data(cfg: dict, grid) -> tuple:
    """(train clips, train labels, val clips, val labels); the val set
    defaults to the train set, read once."""
    train = _load_dataset(cfg["data"]["dir"], grid)
    val_dir = cfg["data"]["val_dir"]
    return (*train, *(train if val_dir is None else _load_dataset(val_dir, grid)))


def _finetune(resolved: tuple, data: tuple, init_from) -> dict:
    """Finetune under what `_resolve` built from a config, on
    `_finetune_data`; returns the run_finetune report."""
    from .training import run_finetune
    from .videodata import DIRECTIONS

    grid, enc, _, _, train_cfg = resolved
    report, _ = run_finetune(*data, grid, enc, train_cfg,
                             num_classes=len(DIRECTIONS), init_from=init_from)
    return report


def cmd_pretrain(args) -> int:
    cfg, resolved = load_config(args.config)
    clips, _ = _load_dataset(cfg["data"]["dir"], resolved[0])
    out_dir = Path(cfg["out_dir"])
    final = _pretrain(cfg, resolved, clips, out_dir)
    last = (out_dir / "loss.csv").read_text().strip().splitlines()[-1]
    print(f"final_loss={last.split(',')[1]}")
    print(f"checkpoint={final}")
    return 0


def cmd_finetune(args) -> int:
    cfg, resolved = load_config(args.config)
    from .evalviz import metrics_report
    from .videodata import write_atomic

    data = _finetune_data(cfg, resolved[0])
    init_from = None if args.init in (None, "none") else args.init
    report = _finetune(resolved, data, init_from)
    out = metrics_report(report["val_logits"], data[3])
    out["train_top1"] = report["train_top1"]
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(out, indent=2) + "\n"
    write_atomic(out_dir / "report.json", (text.encode(),))
    print(json.dumps(out))
    return 0


def cmd_reconstruct(args) -> int:
    cfg, (grid, enc, dec, _, _) = load_config(args.config)
    from .evalviz import render_reconstruction
    from .model import forward_pretrain, init_params
    from .tokenizer import sample_mask
    from .training import SEED_DATA, SEED_INIT, SEED_MASKS, load_params
    from .videodata import dataset_clip

    try:
        ratios = [float(r) for r in args.ratio.split(",") if r]
        masks = [sample_mask(grid, r, cfg["mask"]["strategy"],
                             seed=cfg["seed"] + SEED_MASKS) for r in ratios]
    except ValueError as e:
        raise ConfigError(f"--ratio: {e}") from e
    if not ratios:
        raise ConfigError("--ratio list is empty")
    names = {}  # image file name -> the ratio it renders
    for r in ratios:
        name = f"recon_{int(round(r * 100)):02d}.ppm"
        if name in names:
            raise ConfigError(f"--ratio: {names[name]} and {r} both render to {name}")
        names[name] = r

    data = cfg["data"]
    if data["dir"] is not None:  # the dataset's first clip
        clip = _load_clip(data["dir"], _dataset_entries(data["dir"])[0][0], grid)
    else:  # the first clip gen-data would write
        clip, _ = dataset_clip(0, data["T"], data["H"], data["W"],
                               cfg["seed"] + SEED_DATA, data["channels"])
    params = init_params(enc, dec, seed=cfg["seed"] + SEED_INIT,
                         target_kind=cfg["targets"]["kind"])
    if args.init not in (None, "none"):
        load_params(args.init, params)

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, mask in zip(names, masks):
        ps, pt = forward_pretrain(clip, mask, grid, enc, dec, params)
        path = out_dir / name
        render_reconstruction(clip, mask,
                              None if ps is None else ps.data,
                              None if pt is None else pt.data, grid, path)
        print(f"wrote {path}")
    return 0


def _primitive_checks():
    """Yield (name, runner) pairs; each runner returns a max relative error."""
    import numpy as np

    from . import numerics as nm

    rng = np.random.default_rng(7)

    def check(op_name, build, *shapes):
        xs = [nm.Tensor(rng.uniform(-0.9, 0.9, s)) for s in shapes]

        def runner():
            return nm.finite_diff_check(build, xs)

        return op_name, runner

    def unary(fn):
        return lambda t: nm.sum_all(fn(t[0]))

    yield check("add", lambda t: nm.sum_all(nm.add(t[0], t[1])), (3, 4), (3, 4))
    yield check("mul", lambda t: nm.sum_all(nm.mul(t[0], t[1])), (3, 4), (3, 4))
    yield check("scale", unary(lambda x: nm.scale(x, 1.7)), (3, 4))
    yield check("matmul", lambda t: nm.sum_all(nm.matmul(t[0], t[1])),
                (3, 4), (4, 5))
    yield check("matmul_broadcast", lambda t: nm.sum_all(nm.mul(
                nm.matmul(t[0], t[1]), nm.matmul(t[0], t[1]))), (2, 3, 4), (4, 5))
    yield check("linear", lambda t: nm.sum_all(nm.mul(
                t[3], nm.linear(t[0], t[1], t[2]))), (2, 3, 4), (4, 5), (5,), (2, 3, 5))
    yield check("softmax", unary(lambda x: nm.mul(x, nm.softmax(x))), (3, 5))
    yield check("attention", lambda t: nm.sum_all(nm.mul(
                t[10], nm.attention(*t[:10], 2))),
                (2, 3, 4), (4,), (4,), (4, 4), (4,), (4, 4), *[(4, 4), (4,)] * 2,
                (2, 3, 4))
    yield check("gelu", unary(nm.gelu), (3, 4))
    yield check("mlp", lambda t: nm.sum_all(nm.mul(t[7], nm.mlp(*t[:7]))),
                (2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,), (2, 3, 4))
    yield check("layer_norm",
                lambda t: nm.sum_all(nm.mul(t[0], nm.layer_norm(t[0], t[1], t[2]))),
                (3, 6), (6,), (6,))
    # (N,) bits, and (B, N) bits selecting a different set in each row
    one = np.array([1, 0, 1, 1], dtype=bool)
    two = np.array([[1, 0, 1, 1], [0, 1, 1, 1]], dtype=bool)
    # differences fall on both sides of the smooth-L1 penalty's |x| = 1
    targets = (rng.uniform(0.0, 1.8, (3, 3)), rng.uniform(-1.8, 0.0, (2, 3, 3)))
    for kind in nm.LOSS_KINDS:
        yield check(f"masked_penalty_{kind}", lambda t, kind=kind: nm.add(
                    nm.masked_penalty(t[0], targets[0], one, kind),
                    nm.masked_penalty(t[1], targets[1], two, kind)), (4, 3), (2, 4, 3))
    yield check("cross_entropy", lambda t: nm.cross_entropy(t[0], [2, 0, 4]), (3, 5))
    yield check("scatter_rows", lambda t: nm.add(
                nm.sum_all(nm.mul(t[1], nm.scatter_rows(t[0], one))),
                nm.sum_all(nm.mul(t[3], nm.scatter_rows(t[2], two)))),
                (3, 2), (4, 2), (2, 3, 2), (2, 4, 2))
    yield check("sum_all", unary(nm.sum_all), (3, 4))
    yield check("mean_axis", lambda t: nm.sum_all(nm.mul(
                nm.mean_axis(t[0], 0), nm.mean_axis(t[0], 0))), (4, 3))


def _end_to_end_check():
    """Full objective through a tiny two-head model, in float64, on a batch
    of two clips with different masks run as one graph."""
    import numpy as np

    from . import numerics as nm
    from .model import DecoderConfig, EncoderConfig, init_params
    from .tokenizer import TokenGrid, sample_mask
    from .training import TrainConfig, pretrain_loss

    grid = TokenGrid(2, 2, 2, 2, 4, 1)
    enc = EncoderConfig(depth=2, embed_dim=16, heads=2, mlp_ratio=2.0,
                        token_dim=grid.token_dim)
    dec = DecoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=2.0,
                        space_dim=grid.token_dim, time_dim=grid.motion_dim)
    params = init_params(enc, dec, seed=11, dtype=np.float64)
    names = sorted(params)
    rng = np.random.default_rng(3)
    clips = [rng.uniform(0.0, 1.0, grid.clip_shape).astype(np.float32)
             for _ in range(2)]
    masks = [sample_mask(grid, 0.5, "random", seed=s) for s in (4, 5)]
    cfg = TrainConfig(target_kind="both", loss_kind="mse", lam=1.0)

    def objective(tensors):
        p = dict(zip(names, tensors))
        return pretrain_loss(clips, masks, p, grid, enc, dec, cfg)[0]

    # eps balances two error floors: smaller steps drown near-zero-gradient
    # coordinates in roundoff (ulp(loss)/2eps), larger ones pay curvature
    # truncation. At 3e-4 the two-point difference alone reads 8.7e-5; the
    # coordinates above 1e-6 take the fourth-order reference, whose h^4
    # truncation brings the check to about 1e-6, 100x under the 1e-4 line.
    return nm.finite_diff_check(objective, [params[n] for n in names], eps=3e-4)


def cmd_gradcheck(args) -> int:
    import time

    checks = list(_primitive_checks())
    checks.append(("end_to_end_tiny_model", _end_to_end_check))
    failures = []
    for name, runner in checks:
        t0 = time.perf_counter()
        err = runner()
        dt = time.perf_counter() - t0
        ok = err < GRADCHECK_TOLERANCE
        print(f"{name}: max_rel_err={err:.3e} ({dt:.2f}s) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}")
        return 1
    print("all gradient checks passed")
    return 0


# ablation axis -> the config field it sweeps
_ABLATION_FIELDS = {"target_kind": ("targets", "kind"), "gap": ("targets", "gap"),
                    "loss_kind": ("train", "loss_kind"), "ratio": ("mask", "ratio"),
                    "decoder": ("model", "arch")}
_ABLATION_AXES = tuple(_ABLATION_FIELDS)


def _ablation_setting(cfg: dict, axis: str, value) -> tuple[dict, tuple]:
    out = copy.deepcopy(cfg)
    section, key = _ABLATION_FIELDS[axis]
    out[section][key] = value
    try:
        return out, _resolve(out)
    except ConfigError as e:
        raise ConfigError(f"ablate.{axis} value {value}: {e}") from e


def cmd_ablate(args) -> int:
    cfg, (grid, *_) = load_config(args.config)
    from .targets import TARGET_KINDS
    from .training import LOSS_KINDS
    from .videodata import write_atomic

    if args.axis not in _ABLATION_AXES:
        raise ConfigError(f"--axis must be one of {', '.join(_ABLATION_AXES)}")
    values = {
        "target_kind": TARGET_KINDS,
        "gap": sorted(cfg["ablate"]["gap"]),
        "loss_kind": LOSS_KINDS,
        "ratio": cfg["ablate"]["ratio"],
        "decoder": cfg["ablate"]["decoder"],
    }[args.axis]
    # reject any setting before the first run
    settings = [_ablation_setting(cfg, args.axis, value) for value in values]

    data = _finetune_data(cfg, grid)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, (sub, built) in zip(values, settings):
        ckpt = _pretrain(sub, built, data[0], out_dir / f"{args.axis}_{value}")
        top1 = _finetune(built, data, ckpt)["val_top1"]
        rows.append((value, top1))
        print(f"{args.axis}={value}: top1={top1:.4f}")

    csv_path = out_dir / f"ablate_{args.axis}.csv"
    lines = ["setting,top1\n"] + [f"{value},{top1:.6f}\n" for value, top1 in rows]
    write_atomic(csv_path, ("".join(lines).encode(),))
    print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionmae",
        description="Masked video autoencoder with joint frame and "
                    "temporal-difference motion reconstruction.",
        epilog="Config defaults (strict JSON; unknown keys are errors):\n"
               + json.dumps(DEFAULT_CONFIG, indent=2),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    p.add_argument("--config", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("pretrain", help="masked-reconstruction pretraining")
    p.add_argument("--config", default=None)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised finetuning + accuracy report")
    p.add_argument("--config", default=None)
    p.add_argument("--init", default="none",
                   help="pretraining checkpoint path, or 'none'")
    p.set_defaults(handler=cmd_finetune)

    p = sub.add_parser("reconstruct", help="render reconstruction grids")
    p.add_argument("--config", default=None)
    p.add_argument("--init", default="none",
                   help="pretraining checkpoint path, or 'none'")
    p.add_argument("--ratio", default="0.9,0.95",
                   help="comma-separated masking ratios, one image per ratio")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("ablate", help="sweep one axis, pretrain+finetune each value")
    p.add_argument("--config", default=None)
    p.add_argument("--axis", required=True,
                   help=f"one of {', '.join(_ABLATION_AXES)}")
    p.set_defaults(handler=cmd_ablate)
    return parser


def _cap_threads() -> None:
    n = os.environ.get("MOTIONMAE_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


# mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_mapped() -> None:
    """Have glibc serve blocks up to 32 MiB from the heap and keep up to
    256 MiB of freed heap mapped, so that the arrays a step or an evaluation
    chunk frees are reused rather than unmapped and faulted back in. Off
    glibc, or without `mallopt`, nothing changes."""
    import ctypes

    try:  # the process's own symbols: find_library would start a subprocess
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _cap_threads()
    _keep_heap_mapped()
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # map remaining failures onto the exit contract
        from .numerics import NonFiniteError
        from .training import CheckpointError
        from .videodata import ClipFileError

        if isinstance(e, NonFiniteError):
            print(f"numerical error: {e}", file=sys.stderr)
            return 4
        if isinstance(e, (CheckpointError, ClipFileError, OSError)):
            # no command pairs a checkpoint with a config digest, so a
            # checkpoint error means an unreadable file, as a clip error does
            print(f"i/o error: {e}", file=sys.stderr)
            return 3
        if isinstance(e, ValueError):
            print(f"config error: {e}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
