"""Pipeline benchmark for motionmae.

    python3 perfbench/run.py --workload tiny-pipeline --seed 1 --seconds 36 --trace 0

Runs rounds of one workload in a closed loop, one client: each round is a
fresh worker process (`worker.py`) that runs gen-data, pretrain and
finetune through the CLI with one BLAS thread, and the next round starts
when it ends. Rounds stop once another would overrun `--seconds`; at least
two always run, so that same-seed outputs can be compared byte for byte.

With `--trace 0` every round is timed untraced and the end-to-end metrics
are medians over rounds. With `--trace 1` rounds alternate untraced and
traced; the per-layer metrics are medians over traced rounds, and the
tracing overhead compares the two kinds.

Every round's outputs are checked (see checks.py). The last line of
standard output is one JSON object: correct, attempted and failed
operations (one operation is one CLI command), and the metrics named in
BENCHMARK.json with their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import layer_metrics
from worker import COMMANDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # a whole run, rounds and checks, ends within 180 s
ONE_THREAD = {var: "1" for var in ("MOTIONMAE_THREADS", "OMP_NUM_THREADS",
                                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}
MB = 2 ** 20


def run_round(workload: str, seed: int, round_dir: Path, trace: bool,
              check_targets: bool, timeout: float = RUN_LIMIT_S) -> dict:
    """One worker process; returns its timings, exit codes and problems."""
    run_cfg, val_cfg = workloads.configs(workload, seed)
    round_dir.mkdir(parents=True)
    (round_dir / "run.json").write_text(json.dumps(run_cfg, indent=2))
    (round_dir / "val.json").write_text(json.dumps(val_cfg, indent=2))
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"),
            str(int(trace)), str(int(check_targets))]
    with open(round_dir / "worker.log", "wb") as log:
        spawned = time.time()
        try:
            proc = subprocess.run(argv, cwd=round_dir, stdout=log, stderr=log,
                                  env={**os.environ, **ONE_THREAD},
                                  timeout=timeout)
            status = proc.returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    result_path = round_dir / "result.json"
    if status != 0 or not result_path.exists():
        print(f"worker in {round_dir} exited with {status}", file=sys.stderr)
        return {"codes": [1] * len(COMMANDS), "problems": [], "trace": trace}
    result = json.loads(result_path.read_text())
    result["trace"] = trace
    if not any(result["codes"]):
        result["setup_s"] = result["first_step_wall"] - spawned
        result["problems"] += check_files(round_dir, run_cfg, val_cfg)
        result["digests"] = {name: hashlib.sha256((round_dir / "run" / name)
                                                  .read_bytes()).hexdigest()
                             for name in ("loss.csv", "checkpoint_final.mmck")}
        result["checkpoint_mb"] = (round_dir / "run" / "checkpoint_final.mmck") \
            .stat().st_size / MB
        result["pretrain_loss"] = checks.last_epoch_loss(
            (round_dir / "run" / "loss.csv").read_text(),
            run_cfg["data"]["num_clips"] // run_cfg["train"]["batch_size"])
        if trace:
            result["layers"] = layer_metrics(
                json.loads((round_dir / "trace.json").read_text()))
    # checkpoints and datasets are large; keep only the logs and reports
    for name in ("data", "val"):
        shutil.rmtree(round_dir / name, ignore_errors=True)
    for ckpt in (round_dir / "run").glob("*.mmck"):
        ckpt.unlink()
    return result


def check_files(round_dir: Path, run_cfg: dict, val_cfg: dict) -> list[str]:
    run = round_dir / "run"
    train = run_cfg["train"]
    problems = checks.check_loss_csv((run / "loss.csv").read_text(),
                                     train["total_steps"], train["log_interval"])
    every = train["checkpoint_interval"]
    periodic = range(every, train["total_steps"], every) if every else ()
    want = {f"checkpoint_{s:06d}.mmck" for s in periodic} | {"checkpoint_final.mmck"}
    have = {p.name for p in run.glob("*.mmck")}
    if have != want:
        problems.append(f"checkpoints {sorted(have)}, expected {sorted(want)}")
    for name in sorted(have):
        problems += checks.check_checkpoint((run / name).read_bytes(), name)
    problems += checks.check_report((run / "report.json").read_text(),
                                    val_cfg["data"]["num_clips"])
    return problems


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Medians over the given successful rounds.

    The host's speed drifts within a round, so the time of a pretrain or
    finetune command is put together from medians of finer samples: each
    kind of repeated work (pretraining steps, finetuning steps, clips
    classified in evaluate_top1) counts at its median time, and the rest of
    the command (loss.csv and checkpoint writes, reads, augmentation, the
    report pass) at the median over rounds of what the samples leave over.
    """
    if not rounds:
        return dict.fromkeys(("setup_s", "pretrain_clips_per_s", "finetune_s",
                              "eval_clips_per_s", "peak_rss_mb", "pretrain_loss"), 0.0)

    def at_median(total: str, *parts: str) -> float:
        time = _median(r[total] - sum(sum(r[p]) for p in parts) for r in rounds)
        for p in parts:
            time += _median(s for r in rounds for s in r[p]) * len(rounds[0][p])
        return time

    return {
        "setup_s": _median(r["setup_s"] for r in rounds),
        "pretrain_clips_per_s": rounds[0]["pretrain_clips"] / at_median("pretrain_s", "step_s"),
        "finetune_s": at_median("finetune_s", "finetune_step_s", "eval_clip_s"),
        "eval_clips_per_s": 1.0 / _median(s for r in rounds for s in r["eval_clip_s"]),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in rounds),
        "pretrain_loss": _median(r["pretrain_loss"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    """Medians over traced rounds, plus the cost of tracing itself."""
    traced = [r for r in rounds if r["trace"]]
    out = {name: _median(r["layers"][name] for r in traced) for name in layer_metrics([])}
    out["training.checkpoint_mb"] = _median(r["checkpoint_mb"] for r in traced)
    plain = end_to_end([r for r in rounds if not r["trace"]])
    slow = end_to_end(traced)
    out["trace.pretrain_overhead_pct"] = \
        100.0 * (plain["pretrain_clips_per_s"] / slow["pretrain_clips_per_s"] - 1.0) \
        if traced and plain["pretrain_clips_per_s"] else 0.0
    out["trace.finetune_overhead_pct"] = \
        100.0 * (slow["finetune_s"] / plain["finetune_s"] - 1.0) \
        if traced and plain["finetune_s"] else 0.0
    return out


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                declared: list[dict]) -> str:
    """The JSON result: every declared metric, by name, with its unit."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "motionmae" / "cli.py").is_file():
        print(f"perfbench: no motionmae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    rounds, durations = [], []
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args.workload, args.seed, out / f"round{len(rounds):02d}",
                                traced, check_targets=not rounds,
                                timeout=RUN_LIMIT_S - (t0 - start)))
        durations.append(time.perf_counter() - t0)
        ahead = time.perf_counter() - start + statistics.median(durations)
        if ahead > RUN_LIMIT_S or (len(rounds) >= 2 and ahead > args.seconds):
            break

    attempted = sum(len(r["codes"]) for r in rounds)
    failed = sum(1 for r in rounds for code in r["codes"] if code)
    ok = [r for r in rounds if not any(r["codes"])]
    problems = [f"round {i + 1}: {p}" for i, r in enumerate(rounds) for p in r["problems"]]
    problems += checks.check_identical([r["digests"] for r in ok])
    values = per_layer(ok) if args.trace else end_to_end(ok)

    for p in problems:
        print(f"CHECK FAILED {p}")
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds in "
          f"{time.perf_counter() - start:.1f} s, {failed}/{attempted} commands failed")
    for m in declared:
        print(f"  {m['name']:40s} {values[m['name']]:14.6g} {m['unit']}")
    print(result_line(not problems and bool(ok), attempted, failed, values, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
