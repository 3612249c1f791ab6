"""Benchmark workloads: the run configs a user would write, built from a seed.

Every workload is a synthetic moving-square dataset that `gen-data` writes
from the config seed, a pretraining run and a finetuning run warm-started
from its final checkpoint. The program sees only these config files and the
files `gen-data` writes from them.
"""

from __future__ import annotations

import copy

# The validation set is generated from its own config seed so that it shares
# no clip with the training set.
VAL_SEED_OFFSET = 100

_BASE = {
    "out_dir": "run",
    "data": {"dir": "data", "val_dir": "val", "T": 8, "H": 16, "W": 16, "channels": 1},
    "mask": {"ratio": 0.75, "strategy": "random"},
    "targets": {"kind": "both", "gap": 1, "normalize": False, "lambda": 1.0},
    "model": {"preset": "tiny", "arch": "parallel", "cube_t": 2, "cube_p": 4},
    "train": {"lr": 3e-3, "warmup_steps": 5, "total_steps": 60, "batch_size": 8,
              "loss_kind": "mse", "log_interval": 1, "checkpoint_interval": 0,
              "finetune_steps": 30, "finetune_lr": 1e-3},
}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


# name -> (config overrides, train clips, val clips, one line of why)
WORKLOADS = {
    "tiny-pipeline": (
        {},
        64, 32,
        "64 tokens, ~1.2k tape ops a step on KB-sized arrays: Python dispatch "
        "in numerics, training and tokenizer dominates",
    ),
    "desk-pipeline": (
        {"data": {"H": 64, "W": 64},
         "model": {"preset": "desk", "cube_p": 8},
         "train": {"lr": 1e-3, "warmup_steps": 1, "total_steps": 6,
                   "batch_size": 4, "checkpoint_interval": 2, "finetune_steps": 2}},
        16, 8,
        "256 tokens at width 192-768 outgrow L2, so kernels, ~28 MB "
        "checkpoints and the all-token eval passes dominate",
    ),
    "tiny-variants": (
        {"data": {"crop": True, "flip": True},
         "mask": {"ratio": 0.9, "strategy": "tube"},
         "targets": {"gap": 2, "normalize": True},
         "model": {"arch": "shared"},
         "train": {"loss_kind": "smooth_l1", "checkpoint_interval": 10}},
        64, 32,
        "tiny layers used differently: tube mask 0.9, normalized targets, gap "
        "2, shared decoder, smooth-L1, crop+flip, checkpoint every 10 steps",
    ),
}


def configs(name: str, seed: int) -> tuple[dict, dict]:
    """(run config, validation gen-data config) of a workload at a seed."""
    over, n_train, n_val, _ = WORKLOADS[name]
    run = _merge(_BASE, over)
    run["seed"] = seed
    run["data"]["num_clips"] = n_train
    val = _merge(run, {"seed": seed + VAL_SEED_OFFSET,
                       "data": {"dir": run["data"]["val_dir"],
                                "num_clips": n_val}})
    return run, val
