"""Synthetic video generation, augmentations, raw clip files, and the atomic
file write every writer in the package goes through.

Clips are float32 arrays of shape (T, H, W, C) with values in [0, 1]. The
synthetic generator renders a translating square with integer per-frame
velocity and toroidal wrap-around, so the frame-to-frame difference has an
exact closed form we can test against.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"MMAE"
FORMAT_VERSION = 1

# direction classes for the synthetic task, in label-index order
DIRECTIONS = ("right", "left", "up", "down")
_VELOCITY_SIGNS = {"right": (1, 0), "left": (-1, 0), "up": (0, -1), "down": (0, 1)}


class ClipFileError(Exception):
    """Base class for raw clip file problems."""


class BadMagicError(ClipFileError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(ClipFileError):
    """File uses an unsupported format version."""


class TruncatedFileError(ClipFileError):
    """File is shorter (or longer) than its header promises."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one moving-square clip.

    velocity is (dx, dy) in pixels per frame: dx moves along width (positive =
    rightward), dy along height (positive = downward). label, when set, must
    agree with the velocity sign on its axis.
    """

    object_size: int
    velocity: tuple[int, int]
    background_level: float
    object_level: float
    label: str | None = None

    def __post_init__(self):
        dx, dy = self.velocity
        if int(dx) != dx or int(dy) != dy:
            raise ValueError("velocities must be integers")
        if self.object_level == self.background_level:
            raise ValueError("object and background levels must differ")
        for level in (self.background_level, self.object_level):
            if not 0.0 <= level <= 1.0:
                raise ValueError("levels must lie in [0, 1]")
        if self.label is not None:
            if self.label not in DIRECTIONS:
                raise ValueError(f"unknown label {self.label!r}")
            sx, sy = _VELOCITY_SIGNS[self.label]
            if (sx and np.sign(dx) != sx) or (sy and np.sign(dy) != sy):
                raise ValueError(f"label {self.label!r} inconsistent with velocity {self.velocity}")


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def generate_moving_square(
    spec: SyntheticSpec, T: int, H: int, W: int, seed: int, channels: int = 1
) -> tuple[np.ndarray, str | None]:
    """Render a square translating with toroidal wrap-around.

    The starting corner is drawn from the seed; frame t places the square at
    corner + t * velocity (mod frame size). Returns (clip, label).
    """
    s = spec.object_size
    if s <= 0 or s > H or s > W:
        raise ValueError(f"object size {s} does not fit a {H}x{W} frame")
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(0, W))
    y0 = int(rng.integers(0, H))
    dx, dy = int(spec.velocity[0]), int(spec.velocity[1])

    clip = np.full((T, H, W, channels), spec.background_level, dtype=np.float32)
    span = np.arange(s)
    for t in range(T):
        rows = (y0 + t * dy + span) % H
        cols = (x0 + t * dx + span) % W
        clip[t][np.ix_(rows, cols)] = spec.object_level
    return clip, spec.label


# ---------------------------------------------------------------------------
# Augmentations
# ---------------------------------------------------------------------------


def bilinear_resize(frames: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize every frame with bilinear interpolation (half-pixel centers)."""
    T, H, W, C = frames.shape
    ys = (np.arange(out_h) + 0.5) * (H / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (W / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, H - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, W - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :, None]

    f = frames.astype(np.float64, copy=False)
    top = f[:, y0][:, :, x0] * (1 - wx) + f[:, y0][:, :, x1] * wx
    bot = f[:, y1][:, :, x0] * (1 - wx) + f[:, y1][:, :, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def _draw_crop_dims(H: int, W: int, lo: float, hi: float, rng) -> tuple[int, int]:
    """Integer crop dims whose area ratio lies in [lo, hi]; aspect is jittered."""
    area = H * W
    for _ in range(100):
        ratio = rng.uniform(lo, hi)
        aspect = math.exp(rng.uniform(math.log(3 / 4), math.log(4 / 3)))
        ch = int(round(math.sqrt(ratio * area / aspect)))
        cw = int(round(math.sqrt(ratio * area * aspect)))
        if 1 <= ch <= H and 1 <= cw <= W and lo <= ch * cw / area <= hi:
            return ch, cw
    # deterministic fallback: widest feasible crop for each height
    for ch in range(H, 0, -1):
        cw_lo = max(1, math.ceil(lo * area / ch))
        cw_hi = min(W, math.floor(hi * area / ch))
        if cw_lo <= cw_hi:
            return ch, cw_hi
    raise ValueError(f"scale range [{lo}, {hi}] holds the area ratio of no "
                     f"integer crop of a {H}x{W} frame")


def random_resized_crop(
    clip: np.ndarray,
    scale_range: tuple[float, float],
    out_h: int,
    out_w: int,
    seed: int,
) -> np.ndarray:
    """Crop a random window (area ratio within scale_range, same window for
    every frame) and bilinearly resize it to (out_h, out_w)."""
    lo, hi = scale_range
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError(f"scale range must satisfy 0 < lo <= hi <= 1, got {scale_range}")
    T, H, W, C = clip.shape
    rng = np.random.default_rng(seed)
    ch, cw = _draw_crop_dims(H, W, lo, hi, rng)
    y0 = int(rng.integers(0, H - ch + 1))
    x0 = int(rng.integers(0, W - cw + 1))
    window = clip[:, y0 : y0 + ch, x0 : x0 + cw, :]
    if ch == out_h and cw == out_w:
        return np.ascontiguousarray(window, dtype=np.float32)
    return bilinear_resize(window, out_h, out_w)


def hflip(clip: np.ndarray) -> np.ndarray:
    """Reverse the width axis of every frame."""
    return np.ascontiguousarray(clip[:, :, ::-1, :])


# ---------------------------------------------------------------------------
# Raw clip files
# ---------------------------------------------------------------------------


def save_raw_clip(clip: np.ndarray, path) -> None:
    """Write a clip as magic, version byte, u32 dims, float32 LE payload."""
    if clip.ndim != 4:
        raise ValueError(f"expected a (T, H, W, C) array, got shape {clip.shape}")
    arr = np.ascontiguousarray(clip, dtype="<f4")
    header = MAGIC + struct.pack("<B4I", FORMAT_VERSION, *arr.shape)
    write_atomic(path, (header, arr))


def write_atomic(path, chunks) -> None:
    """Write a sequence of bytes-like chunks, one after another, to `path`
    through a temporary file in the same directory and `os.replace`: a write
    that fails or is interrupted leaves the old file as it was and removes
    its temporary file. A C-contiguous array is a chunk of its raw bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_raw_clip(path) -> np.ndarray:
    """Read a clip written by save_raw_clip; bit-exact roundtrip. A payload
    holding NaN or Inf is rejected, as no clip the package writes has one."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: missing {MAGIC!r} magic")
    if len(blob) < 21:
        raise TruncatedFileError(f"{path}: header cut short at {len(blob)} bytes")
    version, T, H, W, C = struct.unpack("<B4I", blob[4:21])
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {FORMAT_VERSION}")
    expected = 21 + 4 * T * H * W * C
    if len(blob) < expected:
        raise TruncatedFileError(f"{path}: {len(blob)} bytes, header promises {expected}")
    if len(blob) > expected:
        raise TruncatedFileError(f"{path}: {len(blob) - expected} trailing bytes")
    payload = np.frombuffer(blob, dtype="<f4", offset=21)
    if not np.isfinite(payload).all():
        raise ClipFileError(f"{path}: payload holds non-finite values")
    try:  # numpy caps the size even when a dim is 0
        return payload.reshape(T, H, W, C).copy()
    except ValueError as e:
        raise ClipFileError(f"{path}: dims {(T, H, W, C)} numpy cannot shape") from e


# ---------------------------------------------------------------------------
# Dataset directories: clips/<id>.mmae plus labels.tsv
# ---------------------------------------------------------------------------


def dataset_clip(
    index: int, T: int, H: int, W: int, seed: int, channels: int = 1
) -> tuple[np.ndarray, str]:
    """Clip `index` of the synthetic dataset drawn from `seed`: a square
    moving 1-3 px/frame in direction class `index` mod 4. Returns (clip,
    label)."""
    side = min(H, W)
    if side < 4:  # the square's side is drawn from [max(2, side // 4), side // 2]
        raise ValueError(f"frame {H}x{W} is under 4 px on a side, too small "
                         f"for the moving square")
    label = DIRECTIONS[index % len(DIRECTIONS)]
    rng = np.random.default_rng([seed, index])
    speed = int(rng.integers(1, 4))
    sx, sy = _VELOCITY_SIGNS[label]
    spec = SyntheticSpec(
        object_size=int(rng.integers(max(2, side // 4), side // 2 + 1)),
        velocity=(sx * speed, sy * speed),
        background_level=float(rng.uniform(0.0, 0.25)),
        object_level=float(rng.uniform(0.75, 1.0)),
        label=label,
    )
    return generate_moving_square(
        spec, T, H, W, seed=int(rng.integers(0, 2 ** 31)), channels=channels
    )


def generate_dataset(
    root, num_clips: int, T: int, H: int, W: int, seed: int, channels: int = 1
) -> list[tuple[str, str]]:
    """Write clips `dataset_clip(0..num_clips-1)`, which cycle through the
    four direction classes; returns the (id, label) pairs in file order."""
    root = Path(root)
    (root / "clips").mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(num_clips):
        clip, label = dataset_clip(i, T, H, W, seed, channels)
        clip_id = f"{i:05d}"
        save_raw_clip(clip, root / "clips" / f"{clip_id}.mmae")
        entries.append((clip_id, label))
    rows = "".join(f"{clip_id}\t{label}\n" for clip_id, label in entries)
    write_atomic(root / "labels.tsv", (rows.encode(),))
    return entries


def read_labels(root) -> list[tuple[str, str]]:
    """Parse labels.tsv into (id, label) pairs, preserving file order. A
    non-empty line that is not UTF-8, not `<id>\\t<label>`, whose id is not a
    plain file name (empty, `.`, `..`, or holding a path separator, which
    would name a file outside `clips/`), or whose label is not in
    DIRECTIONS raises a ClipFileError naming the file and the line."""
    path = Path(root) / "labels.tsv"
    entries = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ClipFileError(f"{path}:{lineno}: not UTF-8 ({e.reason} at "
                                f"byte {e.start})") from e
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ClipFileError(f"{path}:{lineno}: expected <id>\\t<label>, "
                                f"got {line!r}")
        if fields[0] in ("", ".", "..") or "/" in fields[0] or "\\" in fields[0]:
            raise ClipFileError(f"{path}:{lineno}: clip id {fields[0]!r} is not "
                                f"a file name inside clips/")
        if fields[1] not in DIRECTIONS:
            raise ClipFileError(f"{path}:{lineno}: label {fields[1]!r} is not one "
                                f"of {DIRECTIONS}")
        entries.append(tuple(fields))
    return entries


def load_dataset_clip(root, clip_id: str) -> np.ndarray:
    return load_raw_clip(Path(root) / "clips" / f"{clip_id}.mmae")
