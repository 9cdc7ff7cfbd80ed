"""Synthetic paired corpora and the on-disk formats that carry them.

A synthetic world fixes a ground-truth linear map from concept space to frame
space plus a per-position drift, so frame order carries signal. Paired samples
are (frame stack, target concept embedding, caption id) triples whose targets
come from a finite caption bank. Sequence corpora hold ordered embedding
sequences for the next-embedding model.

Embedding matrices are stored in a little-endian binary container: an 8-byte
magic, u32 dim, u64 count, u32 dtype code, then count*dim values row-major.
Datasets are directories of manifest.json plus those containers.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .numerics import stream_rng
from .records import from_dict

MAGIC = b"CEMB0001"
DTYPE_F32 = 1
DTYPE_F64 = 2
_HEADER = struct.Struct("<8sIQI")
_ITEM_DTYPES = {DTYPE_F32: "<f4", DTYPE_F64: "<f8"}

# Caption-bank norms stay inside this band so cosine decode is always defined
# and the bank spans a nontrivial range of magnitudes.
BANK_NORM_LOW = 0.5
BANK_NORM_HIGH = 2.0

SEQUENCE_FORMAT = "sequence-corpus-v2"

_STREAM_BANK = 11
_STREAM_WORLD_MAP = 12
_STREAM_DRIFT = 13


class EmbeddingFormatError(Exception):
    """Raised when an embedding container on disk is malformed."""


@contextmanager
def malformed_manifest(where: str | Path):
    """Report a manifest with bad JSON, a missing key or a wrong type as a format error."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise EmbeddingFormatError(
            f"{where}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc


def _count(key: str, value, low: int) -> int:
    """`value` if it is a JSON integer >= low, else a TypeError naming `key`."""
    if type(value) is not int or value < low:
        raise TypeError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def write_embeddings(path: str | Path, x: np.ndarray, dtype_code: int = DTYPE_F32) -> None:
    """Write a (count, dim) matrix to `path` in the binary container format."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("refusing to write non-finite values")
    if dtype_code == DTYPE_F32:
        with np.errstate(over="ignore"):
            narrow = x.astype("<f4")
        if not np.all(np.isfinite(narrow)):
            raise ValueError("refusing to write values that overflow float32")
        payload = narrow
    elif dtype_code == DTYPE_F64:
        payload = np.ascontiguousarray(x, dtype="<f8")
    else:
        raise ValueError(f"unknown dtype code {dtype_code}")
    with open(path, "wb") as fh:
        fh.write(container_header(x.shape[0], x.shape[1], dtype_code))
        fh.write(payload)  # the array's own buffer, not a bytes copy of it


def container_header(count: int, dim: int, dtype_code: int) -> bytes:
    """The header of a container holding a (count, dim) matrix; the values follow it."""
    return _HEADER.pack(MAGIC, dim, count, dtype_code)


def read_embeddings(path: str | Path) -> np.ndarray:
    """Read a binary embedding container back into a float64 (count, dim) matrix.

    The payload is read straight into one C-contiguous, writable array; a
    float64 payload is returned as that array, a float32 one widened.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise EmbeddingFormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, dim, count, dtype_code = _HEADER.unpack(head)
        if magic != MAGIC:
            raise EmbeddingFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if dtype_code not in _ITEM_DTYPES:
            raise EmbeddingFormatError(f"{path}: unknown dtype code {dtype_code}")
        item = np.dtype(_ITEM_DTYPES[dtype_code])
        expected = _HEADER.size + count * dim * item.itemsize
        # Size the array only once the file is known to hold it all.
        got = os.fstat(fh.fileno()).st_size
        if got == expected:
            flat = np.empty(count * dim, dtype=item)
            got = _HEADER.size + fh.readinto(flat)
    if got != expected:
        raise EmbeddingFormatError(
            f"{path}: payload size mismatch, expected {expected} bytes, got {got}"
        )
    return flat.astype(np.float64, copy=False).reshape(count, dim)


def read_finite_embeddings(path: str | Path) -> np.ndarray:
    """read_embeddings for a data file: a NaN or infinity is a format error
    that names the file and the first row holding one."""
    x = read_embeddings(path)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise EmbeddingFormatError(f"{path}: row {int(bad[0])} holds a non-finite value")
    return x


def write_ids(path: str | Path, ids: np.ndarray) -> None:
    ids = np.asarray(ids, dtype=np.uint64)
    Path(path).write_bytes(ids.astype("<u8").tobytes())


def read_ids(path: str | Path, count: int) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) != count * 8:
        raise EmbeddingFormatError(
            f"{path}: expected {count * 8} bytes of u64 ids, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<u8").astype(np.int64)


def make_caption_bank(rng: np.random.Generator, size: int, dim: int) -> np.ndarray:
    """Random directions scaled to norms uniform in the allowed band."""
    if size < 1 or dim < 1:
        raise ValueError(f"bank needs positive size and dim, got {(size, dim)}")
    directions = rng.standard_normal((size, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = rng.uniform(BANK_NORM_LOW, BANK_NORM_HIGH, (size, 1))
    return directions / norms * radii


@dataclass(frozen=True)
class SyntheticWorld:
    """Fixed generative state: concept->frame map, drift, and the caption bank.

    Frames for a sample with target z are W z + drift_t + noise, where drift_t
    is a deterministic ramp along a seeded direction: zero-mean over positions
    and identically zero when there is a single frame.
    """

    seed: int
    frame_dim: int
    concept_dim: int
    frames: int
    noise_sigma: float
    drift_scale: float
    w: np.ndarray  # (frame_dim, concept_dim)
    drift: np.ndarray  # (frames, frame_dim)
    caption_bank: np.ndarray  # (bank_size, concept_dim)

    @property
    def bank_size(self) -> int:
        return self.caption_bank.shape[0]


def make_world(
    seed: int,
    frame_dim: int,
    concept_dim: int,
    frames: int,
    bank_size: int,
    noise_sigma: float,
    drift_scale: float = 0.25,
) -> SyntheticWorld:
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if noise_sigma < 0 or drift_scale < 0:
        raise ValueError("noise_sigma and drift_scale must be >= 0")
    bank = make_caption_bank(stream_rng(seed, _STREAM_BANK), bank_size, concept_dim)
    w = stream_rng(seed, _STREAM_WORLD_MAP).standard_normal(
        (frame_dim, concept_dim)
    ) / math.sqrt(concept_dim)
    direction = stream_rng(seed, _STREAM_DRIFT).standard_normal(frame_dim)
    direction /= np.linalg.norm(direction)
    # Symmetric ramp over positions: mean zero, and exactly zero for frames == 1.
    offsets = (np.arange(frames) - (frames - 1) / 2.0) / max(frames - 1, 1)
    drift = drift_scale * offsets[:, None] * direction[None, :]
    return SyntheticWorld(
        seed=seed,
        frame_dim=frame_dim,
        concept_dim=concept_dim,
        frames=frames,
        noise_sigma=noise_sigma,
        drift_scale=drift_scale,
        w=w,
        drift=drift,
        caption_bank=bank,
    )


def world_config(world: SyntheticWorld) -> dict:
    return {
        "seed": world.seed,
        "frame_dim": world.frame_dim,
        "concept_dim": world.concept_dim,
        "frames": world.frames,
        "bank_size": world.bank_size,
        "noise_sigma": world.noise_sigma,
        "drift_scale": world.drift_scale,
    }


@dataclass(frozen=True)
class WorldConfig:
    """The world block of a dataset manifest: the arguments of make_world."""

    seed: int
    frame_dim: int
    concept_dim: int
    frames: int
    bank_size: int
    noise_sigma: float
    drift_scale: float


def world_from_config(cfg: dict) -> SyntheticWorld:
    return make_world(**asdict(from_dict(WorldConfig, cfg)))


@dataclass
class PairedDataset:
    """In-memory paired corpus: frame stacks, targets, and caption ids."""

    frames: np.ndarray  # (n, frames, frame_dim)
    targets: np.ndarray  # (n, concept_dim)
    caption_ids: np.ndarray  # (n,) int64
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        n, t, d_frame = self.frames.shape
        write_embeddings(out / "frames.bin", self.frames.reshape(n * t, d_frame))
        write_embeddings(out / "targets.bin", self.targets)
        write_ids(out / "ids.bin", self.caption_ids)
        manifest = {
            "format": "paired-dataset-v1",
            "n": n,
            "frames": t,
            "frame_dim": d_frame,
            "concept_dim": int(self.targets.shape[1]),
            "world": self.meta.get("world"),
            "sample_seed": self.meta.get("sample_seed"),
            "files": {
                "frames": "frames.bin",
                "targets": "targets.bin",
                "ids": "ids.bin",
            },
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    @classmethod
    def load(cls, in_dir: str | Path) -> "PairedDataset":
        root = Path(in_dir)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise EmbeddingFormatError(f"{root}: missing manifest.json")
        with malformed_manifest(manifest_path):
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("format") != "paired-dataset-v1":
                raise EmbeddingFormatError(
                    f"{root}: unexpected dataset format {manifest.get('format')!r}"
                )
            n = _count("n", manifest["n"], 1)
            t = _count("frames", manifest["frames"], 1)
            dims = {key: _count(key, manifest[key], 1) for key in ("frame_dim", "concept_dim")}
            files = {key: root / manifest["files"][key] for key in ("frames", "targets", "ids")}
            meta = {"world": manifest.get("world"), "sample_seed": manifest.get("sample_seed")}
        frames_flat = read_finite_embeddings(files["frames"])
        if frames_flat.shape[0] != n * t:
            raise EmbeddingFormatError(
                f"{root}: frames row count {frames_flat.shape[0]} != n*frames {n * t}"
            )
        targets = read_finite_embeddings(files["targets"])
        if targets.shape[0] != n:
            raise EmbeddingFormatError(
                f"{root}: target row count {targets.shape[0]} != n {n}"
            )
        for key, file_key, stored in (("frame_dim", "frames", frames_flat),
                                      ("concept_dim", "targets", targets)):
            if dims[key] != stored.shape[1]:
                raise EmbeddingFormatError(
                    f"{manifest_path}: {key} {dims[key]} does not match the "
                    f"{stored.shape[1]} columns of {files[file_key].name}"
                )
        caption_ids = read_ids(files["ids"], n)
        return cls(
            frames=frames_flat.reshape(n, t, frames_flat.shape[1]),
            targets=targets,
            caption_ids=caption_ids,
            meta=meta,
        )


def gen_synthetic_pairs(
    world: SyntheticWorld, n: int, rng: np.random.Generator
) -> PairedDataset:
    """Draw n paired samples from the world's generative rule."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    caption_ids = rng.integers(0, world.bank_size, size=n)
    targets = world.caption_bank[caption_ids]
    clean = targets @ world.w.T  # (n, frame_dim)
    if world.noise_sigma > 0:
        # The noise array becomes the frames in place; addition commutes, so
        # each frame holds the bits of (clean + drift) + noise.
        frames = rng.normal(0.0, world.noise_sigma, (n, world.frames, world.frame_dim))
        for t in range(world.frames):
            frames[:, t] += clean + world.drift[t]
    else:
        frames = clean[:, None, :] + world.drift[None, :, :]
    return PairedDataset(
        frames=np.ascontiguousarray(frames, dtype=np.float64),
        targets=np.ascontiguousarray(targets, dtype=np.float64),
        caption_ids=caption_ids.astype(np.int64),
        meta={"world": world_config(world)},
    )


@dataclass(frozen=True)
class CurriculumStage:
    """One coarse-to-fine stage: a dataset plus per-stage training overrides."""

    name: str
    dataset_path: str | Path | None = None
    epochs: int | None = None
    batch_size: int | None = None
    lr_overrides: dict = field(default_factory=dict)
    dataset: PairedDataset | None = None

    def load_dataset(self) -> PairedDataset:
        if self.dataset is not None:
            return self.dataset
        if self.dataset_path is None:
            raise ValueError(f"stage {self.name!r} has neither a dataset nor a path")
        return PairedDataset.load(self.dataset_path)


@dataclass(frozen=True)
class EmbeddingSequence:
    """Ordered embeddings of one sequence."""

    embeddings: np.ndarray  # (length, dim)

    def __post_init__(self):
        if self.embeddings.ndim != 2:
            raise ValueError(f"embeddings must be 2-d, got shape {self.embeddings.shape}")

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def gen_rule_sequences(
    bank: np.ndarray,
    rule_a: int,
    rule_b: int,
    n: int,
    min_len: int,
    max_len: int,
    rng: np.random.Generator,
) -> list[EmbeddingSequence]:
    """Sequences following the index rule next = (a*i + b) mod bank_size.

    `rule_a` must be coprime with the bank size so the rule is a permutation
    and every next step has a unique right answer.
    """
    size = bank.shape[0]
    if math.gcd(rule_a % size, size) != 1:
        raise ValueError(f"rule_a={rule_a} is not coprime with bank size {size}")
    if min_len < 2 or max_len < min_len:
        raise ValueError(f"need 2 <= min_len <= max_len, got {(min_len, max_len)}")
    sequences = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        idx = int(rng.integers(0, size))
        indices = []
        for _ in range(length):
            indices.append(idx)
            idx = (rule_a * idx + rule_b) % size
        sequences.append(EmbeddingSequence(embeddings=bank[np.asarray(indices)]))
    return sequences


def save_sequences(out_dir: str | Path, sequences: list[EmbeddingSequence], meta: dict | None = None) -> None:
    if not sequences:
        raise ValueError("refusing to save an empty sequence corpus")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = sequences[0].embeddings.shape[1]
    lengths = [len(s) for s in sequences]
    stacked = np.concatenate([s.embeddings for s in sequences], axis=0)
    write_embeddings(out / "embeddings.bin", stacked)
    manifest = {
        "format": SEQUENCE_FORMAT,
        "count": len(sequences),
        "dim": int(dim),
        "lengths": lengths,
        "files": {"embeddings": "embeddings.bin"},
        "meta": meta or {},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_sequences(in_dir: str | Path) -> tuple[list[EmbeddingSequence], dict]:
    root = Path(in_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise EmbeddingFormatError(f"{root}: missing manifest.json")
    with malformed_manifest(manifest_path):
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != SEQUENCE_FORMAT:
            raise EmbeddingFormatError(
                f"{root}: unexpected corpus format {manifest.get('format')!r}, "
                f"expected {SEQUENCE_FORMAT!r}"
            )
        embeddings_path = root / manifest["files"]["embeddings"]
        lengths = [_count(f"lengths[{i}]", x, 1) for i, x in enumerate(manifest["lengths"])]
        count = _count("count", manifest["count"], 1)
        if count != len(lengths):
            raise ValueError(f"count {count} does not match the {len(lengths)} lengths")
        dim = _count("dim", manifest["dim"], 1)
        meta = manifest.get("meta", {})
    stacked = read_finite_embeddings(embeddings_path)
    if dim != stacked.shape[1]:
        raise EmbeddingFormatError(f"{manifest_path}: dim {dim} does not match the "
                                   f"{stacked.shape[1]} columns of {embeddings_path.name}")
    if sum(lengths) != stacked.shape[0]:
        raise EmbeddingFormatError(f"{root}: lengths do not match stored rows")
    sequences = []
    pos = 0
    for length in lengths:
        sequences.append(EmbeddingSequence(embeddings=stacked[pos : pos + length].copy()))
        pos += length
    return sequences, meta
