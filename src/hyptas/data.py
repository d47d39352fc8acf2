"""Synthetic hierarchical-action data and every on-disk format.

Formats (all little-endian, written atomically via rename):

  features  magic ``HTFE``, version u16, L u32, D u32, then L*D float32
            row-major. Internal math is double; storage is float32.
  labels    one class name per line (frame-per-line).
  mapping   ``index name`` per line, indices contiguous from 0.
  config    UTF-8 ``key = value`` lines, ``#`` comments, unknown keys
            rejected; missing keys take the documented defaults; sizes
            above ``SIZE_CAPS`` rejected by key.
  checkpoint magic ``HTCK``, version u16, sectioned payload: each section is
            a name plus either a float64 tensor (kind 0: ndim u8, dims u32,
            raw values) or a UTF-8 string (kind 1). Which sections a model
            checkpoint holds, and what is derived from them, is the
            trainer's schema.
  dataset   ``mapping.txt``, ``features/<id>.htfe``, ``labels/<id>.txt`` and
            ``splits/{train,test}.txt``; a listed video whose files are
            missing is refused by the split file's path.

Generation is a pure function of the spec's seed: per video a coarse task is
drawn, a fine-action sequence walks that task's first-order transition
grammar (designated start action, no immediate self-transition), and frame
features are the class mean plus temporally smoothed Gaussian noise.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, OutputError, ShapeError

FEATURE_MAGIC = b"HTFE"
CHECKPOINT_MAGIC = b"HTCK"
FORMAT_VERSION = 1
_MAX_ELEMENTS = 1 << 31  # dimension-overflow guard for file payloads
_MAX_NDIM = 32           # tensor rank guard; numpy 1.x allows at most 32
TEST_FRACTION = 0.2      # the share of generated videos in the test split


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    num_tasks: int = 2
    actions_per_task: int = 2
    shared_actions: int = 2
    feature_dim: int = 32
    frames_per_segment: tuple[int, int] = (14, 24)
    segments_per_video: tuple[int, int] = (4, 7)
    feature_noise: float = 0.4
    videos: int = 50
    seed: int = 0
    smoothing_halfwidth: int = 2

    def __post_init__(self):
        if self.num_tasks < 1 or self.actions_per_task < 1 or self.shared_actions < 0:
            raise ShapeError("need at least one task with one action")
        if self.actions_per_task + self.shared_actions < 2:
            raise ShapeError("per-task vocabulary needs >= 2 actions for transitions")
        if self.num_classes < 1:
            raise ShapeError("zero classes")
        for name in ("frames_per_segment", "segments_per_video"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ShapeError(f"{name} range ({lo}, {hi}) is empty")
        if not (math.isfinite(self.feature_noise) and self.feature_noise >= 0.0):
            raise ShapeError(f"feature_noise must be finite and >= 0, got {self.feature_noise}")
        if self.videos < 1 or self.feature_dim < 1:
            raise ShapeError("need at least one video and one feature dimension")
        if self.smoothing_halfwidth < 0:
            raise ShapeError(f"smoothing_halfwidth must be >= 0, got {self.smoothing_halfwidth}")
        frames, segments = self.frames_per_segment[1], self.segments_per_video[1]
        sizes = {
            "num_classes": self.num_classes,
            "feature_dim": self.feature_dim,
            "videos": self.videos,
            "frames_per_segment": frames,
            "segments_per_video": segments,
            "smoothing_halfwidth": self.smoothing_halfwidth,
            _FEATURE_VALUES: self.videos * segments * frames * self.feature_dim,
        }
        for name, cap in SYNTHETIC_CAPS.items():
            if sizes[name] > cap:
                raise ShapeError(f"{name} = {sizes[name]} is above its cap of {cap}")

    @property
    def num_classes(self) -> int:
        return self.num_tasks * self.actions_per_task + self.shared_actions


@dataclass(frozen=True)
class VideoRecord:
    id: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"video {self.id}: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels"
            )


@dataclass(frozen=True)
class Dataset:
    train: list[VideoRecord]
    test: list[VideoRecord]
    class_names: list[str]
    feature_dim: int

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _class_names(spec: SyntheticSpec) -> list[str]:
    names = []
    for t in range(spec.num_tasks):
        names.extend(f"task{t}_act{a}" for a in range(spec.actions_per_task))
    names.extend(f"shared{s}" for s in range(spec.shared_actions))
    return names


def _smooth_columns(noise: np.ndarray, halfwidth: int) -> np.ndarray:
    if halfwidth == 0 or noise.shape[0] == 1:
        return noise
    window = 2 * halfwidth + 1
    kernel = np.ones(window) / window
    padded = np.pad(noise, ((halfwidth, halfwidth), (0, 0)), mode="edge")
    out = np.empty_like(noise)
    for col in range(noise.shape[1]):
        out[:, col] = np.convolve(padded[:, col], kernel, mode="valid")
    return out


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic dataset: same spec (same seed) -> byte-identical videos."""
    rng = np.random.default_rng(spec.seed)
    names = _class_names(spec)
    C = spec.num_classes
    means = rng.normal(size=(C, spec.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    # per-task vocabulary: the task's own actions plus every shared action
    task_vocab = [
        list(range(t * spec.actions_per_task, (t + 1) * spec.actions_per_task))
        + list(range(spec.num_tasks * spec.actions_per_task, C))
        for t in range(spec.num_tasks)
    ]
    # first-order grammar: random transition weights, no self-transition
    grammars = []
    for vocab in task_vocab:
        table = {}
        for a in vocab:
            others = [b for b in vocab if b != a]
            w = rng.uniform(0.5, 1.5, size=len(others))
            table[a] = (others, w / w.sum())
        grammars.append(table)

    videos = []
    for v in range(spec.videos):
        task = int(rng.integers(0, spec.num_tasks))
        table = grammars[task]
        n_segments = int(rng.integers(spec.segments_per_video[0], spec.segments_per_video[1] + 1))
        action = task_vocab[task][0]  # designated start action
        labels = []
        for _ in range(n_segments):
            length = int(
                rng.integers(spec.frames_per_segment[0], spec.frames_per_segment[1] + 1)
            )
            labels.extend([action] * length)
            nxt, weights = table[action]
            action = int(rng.choice(nxt, p=weights))
        labels = np.asarray(labels, dtype=np.int64)
        noise = _smooth_columns(
            rng.standard_normal((labels.shape[0], spec.feature_dim)), spec.smoothing_halfwidth
        )
        with np.errstate(over="ignore"):  # an overflow is refused below
            features = means[labels] + spec.feature_noise * noise
            # snap to storage precision so disk roundtrips reproduce training inputs
            features = features.astype(np.float32).astype(np.float64)
        if not np.all(np.isfinite(features)):
            raise ShapeError(
                f"feature_noise = {spec.feature_noise} overflows the float32 feature "
                f"storage in video_{v:04d}"
            )
        videos.append(VideoRecord(f"video_{v:04d}", features, labels))

    n_test = int(round(TEST_FRACTION * len(videos)))
    n_train = len(videos) - n_test
    return Dataset(videos[:n_train], videos[n_train:], names, spec.feature_dim)


# ---------------------------------------------------------------------------
# Atomic write helper
# ---------------------------------------------------------------------------

def prepare_output(path) -> Path:
    """Create the parent directories of an output file and refuse a target
    that is a directory, with an OutputError naming the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OutputError(f"{path}: cannot create directory {e.filename}: {e.strerror or e}") from e
    if path.is_dir():
        raise OutputError(f"{path}: cannot write: {os.strerror(errno.EISDIR)}")
    return path


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write to a temp file of its own in the target directory, then rename
    into place; concurrent writers never share a temp file, and a failed write
    leaves none behind. An OS failure (the target is a directory, a parent is
    a file, no permission, disk full) raises an OutputError naming the path."""
    path = prepare_output(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(payload)
            os.chmod(tmp, 0o666 & ~_umask())  # mkstemp creates 0600; keep the usual mode
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise OutputError(f"{path}: cannot write: {e.strerror or e}") from e


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror or e}") from e


def read_utf8(path: Path) -> str:
    """A UTF-8 file; OS and decode errors become a FormatError naming the path."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not valid UTF-8 ({e.reason} at byte {e.start})") from e


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

def write_features(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise FormatError(f"{path}: features must be a nonempty (L, D) matrix, got {matrix.shape}")
    L, D = matrix.shape
    header = FEATURE_MAGIC + struct.pack("<HII", FORMAT_VERSION, L, D)
    atomic_write_bytes(Path(path), header + matrix.astype("<f4").tobytes())


def read_features(path) -> np.ndarray:
    path = Path(path)
    blob = _read_bytes(path)
    if len(blob) < 14:
        raise FormatError(f"{path}: truncated header")
    if blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {FEATURE_MAGIC!r}")
    version, L, D = struct.unpack("<HII", blob[4:14])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if L == 0 or D == 0 or L * D > _MAX_ELEMENTS:
        raise FormatError(f"{path}: dimensions {L} x {D} out of range")
    expected = 14 + 4 * L * D
    if len(blob) != expected:
        raise FormatError(f"{path}: payload is {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=14).reshape(L, D)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite feature values")
    return data.astype(np.float64)


# ---------------------------------------------------------------------------
# Label and mapping files
# ---------------------------------------------------------------------------

def write_mapping(path, class_names: list[str]) -> None:
    lines = [f"{i} {name}" for i, name in enumerate(class_names)]
    atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


def ascii_number(text: str, kind: type[int] | type[float]) -> int | float | None:
    """`kind(text)` for kind int or float, or None where text is not ASCII or
    kind refuses it. Every number read from outside (config values, flags,
    mapping indices) goes through here: Python's int() and float() also take
    any Unicode decimal digit (int('٣') is 3) and Unicode spaces."""
    if not text.isascii():
        return None
    try:
        return kind(text)
    except ValueError:
        return None


def read_mapping(path) -> list[str]:
    path = Path(path)
    names: dict[int, str] = {}
    text = read_utf8(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(maxsplit=1)
        index = ascii_number(parts[0], int) if len(parts) == 2 and parts[0].isdigit() else None
        if index is None:
            raise FormatError(f"{path}:{lineno}: expected 'index name', got {line!r}")
        name = parts[1].strip()
        if index in names or name in names.values():
            what = f"index {index}" if index in names else f"class name {name!r}"
            raise FormatError(f"{path}:{lineno}: {what} is already mapped")
        names[index] = name
    if not names:
        raise FormatError(f"{path}: empty mapping")
    if sorted(names) != list(range(len(names))):
        raise FormatError(f"{path}: class indices must be contiguous from 0")
    return [names[i] for i in range(len(names))]


def write_labels(path, labels: np.ndarray, class_names: list[str]) -> None:
    labels = np.asarray(labels)
    if labels.size == 0:
        raise FormatError(f"{path}: refusing to write an empty label file")
    if np.any(labels < 0) or np.any(labels >= len(class_names)):
        raise FormatError(f"{path}: label outside the mapping's range")
    lines = [class_names[int(l)] for l in labels]
    atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))


def read_labels(path, class_names: list[str], mapping: str = "the mapping") -> np.ndarray:
    """Class indices of a label file; `mapping` names where `class_names` came
    from, for the message when a name is not among them."""
    path = Path(path)
    index = {name: i for i, name in enumerate(class_names)}
    out = []
    text = read_utf8(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        if name not in index:
            raise FormatError(f"{path}:{lineno}: unknown class name {name!r}, not in {mapping}")
        out.append(index[name])
    if not out:
        raise FormatError(f"{path}: empty label file")
    return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

DECAY_KINDS = ("exp", "linear", "cosine")  # push-pull timestep decays
# The largest norm of a starting prototype (`trainer.init_prototypes`), so a
# curvature c needs c * PROTOTYPE_INIT_RADIUS^2 < 1 to hold them in its ball.
PROTOTYPE_INIT_RADIUS = 0.1
_POSITIVE = ("lr", "proto_lr", "curvature", "cone_k", "margin")
_NONNEGATIVE = ("lambda_ce", "lambda_entail", "lambda_margin", "lambda_pp", "lambda_gg")
# Upper bounds on the sizes the model and schedule allocate from: the schedule
# holds timesteps + 1 values built in a Python loop, and each width w sizes
# (3, w, w) convolution weights. Far above any desk-scale run, far below
# what numpy refuses or what exhausts memory. The epoch count is rounded
# through a float for the phase split, which a float can hold only so far.
SIZE_CAPS = {"epochs": 1_000_000, "timesteps": 100_000, "embed_dim": 1024,
             "encoder_channels": 1024}
# Upper bounds on the sizes `generate_synthetic` allocates from, checked by
# `SyntheticSpec` (a range by its upper end). The transition grammars hold
# tasks * vocabulary^2 entries, at most about 2.5 million under the class
# cap, and the last cap bounds the feature values of all videos at the
# largest ranges (2^24 float64 values are 134 MB). Far above any desk-scale
# spec, far below what exhausts memory.
_FEATURE_VALUES = "videos*segments_per_video*frames_per_segment*feature_dim"
SYNTHETIC_CAPS = {
    "num_classes": 256,
    "feature_dim": 4096,
    "videos": 100_000,
    "frames_per_segment": 100_000,
    "segments_per_video": 10_000,
    "smoothing_halfwidth": 100,
    _FEATURE_VALUES: 1 << 24,
}


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 200
    e1: int | None = None  # defaults to round(0.4 * epochs)
    batch_size: int = 4
    lr: float = 5e-4
    proto_lr: float = 0.02  # prototypes get few optimizer steps at desk scale
    timesteps: int = 1000
    infer_steps: int = 25
    seed: int = 0
    lambda_ce: float = 0.5
    lambda_entail: float = 0.05
    lambda_margin: float = 0.1
    lambda_pp: float = 0.1
    lambda_gg: float = 0.1
    curvature: float = 1.0
    cone_k: float = 0.1
    margin: float = 2.0
    decay: str = "exp"
    aux_head: bool = True
    single_phase: bool = False
    embed_dim: int = 16
    encoder_channels: int = 32

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.e1 is not None and not 0 <= self.e1 <= self.epochs:
            raise ConfigError(f"e1 = {self.e1} outside [0, epochs = {self.epochs}]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.timesteps < 1:
            raise ConfigError("timesteps must be >= 1")
        if not 1 <= self.infer_steps <= self.timesteps:
            raise ConfigError(
                f"infer_steps = {self.infer_steps} outside [1, timesteps = {self.timesteps}]"
            )
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in _POSITIVE + _NONNEGATIVE:
            value, positive = getattr(self, name), name in _POSITIVE
            if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
                bound = "> 0" if positive else ">= 0"
                raise ConfigError(f"{name} must be finite and {bound}, got {value}")
        if self.curvature * PROTOTYPE_INIT_RADIUS**2 >= 1.0:
            raise ConfigError(
                f"curvature = {self.curvature} puts the starting prototypes outside the ball: "
                f"its radius 1/sqrt(curvature) must exceed {PROTOTYPE_INIT_RADIUS}"
            )
        if self.decay not in DECAY_KINDS:
            raise ConfigError(f"decay must be one of {DECAY_KINDS}, got {self.decay!r}")
        if self.embed_dim < 1 or self.encoder_channels < 1:
            raise ConfigError("model dimensions must be positive")
        for name, cap in SIZE_CAPS.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} = {getattr(self, name)} is above its cap of {cap}")

    @property
    def stabilization_epochs(self) -> int:
        return int(round(0.4 * self.epochs)) if self.e1 is None else self.e1

    @property
    def eval_every(self) -> int:
        return max(1, self.epochs // 20)

    def canonical_text(self) -> str:
        pairs = []
        for name in sorted(self.__dataclass_fields__):
            value = getattr(self, name)
            if name == "e1":
                value = self.stabilization_epochs
            pairs.append(f"{name} = {value}")
        return "\n".join(pairs) + "\n"


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# The parse type of every key, read from its `RunConfig` annotation (a
# string, with postponed evaluation); `e1: int | None` parses as an int.
_CONFIG_TYPES: dict[str, type] = {
    f.name: {"int": int, "float": float, "str": str, "bool": bool}[f.type.removesuffix(" | None")]
    for f in fields(RunConfig)
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        kind = _CONFIG_TYPES[key]
        if kind is bool:
            parsed = _BOOL_WORDS.get(value.lower())
        else:
            parsed = value if kind is str else ascii_number(value, kind)
        if parsed is None:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse {value!r} as {kind.__name__} for {key!r}"
            )
        values[key] = parsed
    return values


def read_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse a config file; missing keys take the documented defaults.

    `overrides` (already-typed values, e.g. from --set flags) win over the
    file. Range violations surface as ConfigError.
    """
    path = Path(path)
    values = parse_config_text(read_utf8(path), source=str(path))
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def parse_override(item: str) -> tuple[str, object]:
    """One --set key=value argument, typed through the config registry."""
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, _, value = (part.strip() for part in item.partition("="))
    parsed = parse_config_text(f"{key} = {value}", source="<override>")
    return key, parsed[key]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _pack_sections(sections: list[tuple[str, object]]) -> bytes:
    parts = [CHECKPOINT_MAGIC, struct.pack("<HI", FORMAT_VERSION, len(sections))]
    for name, payload in sections:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        if isinstance(payload, str):
            raw = payload.encode("utf-8")
            parts.append(struct.pack("<BI", 1, len(raw)))
            parts.append(raw)
        else:
            arr = np.asarray(payload, dtype=np.float64)
            parts.append(struct.pack("<BB", 0, arr.ndim))
            parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            parts.append(arr.astype("<f8").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated (wanted {n} bytes at {self.pos})")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def text(self, n: int) -> str:
        at = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.path}: string at byte {at} is not valid UTF-8") from e


def _unpack_sections(blob: bytes, path: str) -> dict[str, object]:
    r = _Reader(blob, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {CHECKPOINT_MAGIC!r}")
    version, count = struct.unpack("<HI", r.take(6))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    sections: dict[str, object] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2))
        name = r.text(name_len)
        (kind,) = struct.unpack("<B", r.take(1))
        if kind == 1:
            (raw_len,) = struct.unpack("<I", r.take(4))
            sections[name] = r.text(raw_len)
        elif kind == 0:
            (ndim,) = struct.unpack("<B", r.take(1))
            if ndim > _MAX_NDIM:
                raise FormatError(
                    f"{path}: tensor {name!r} has {ndim} dimensions, at most {_MAX_NDIM} allowed"
                )
            shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
            n = math.prod(shape)  # Python ints, so a huge product cannot wrap
            # numpy refuses a zero-size shape whose other dims overflow its
            # byte count too, so the cap bounds the product of nonzero dims.
            if math.prod(filter(None, shape)) > _MAX_ELEMENTS:
                raise FormatError(f"{path}: tensor {name!r} dimensions out of range")
            arr = np.frombuffer(r.take(8 * n), dtype="<f8").reshape(shape)
            sections[name] = arr.astype(np.float64)
        else:
            raise FormatError(f"{path}: unknown section kind {kind}")
    if r.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.pos} trailing bytes")
    return sections


def write_checkpoint(path, sections: list[tuple[str, object]]) -> None:
    atomic_write_bytes(Path(path), _pack_sections(sections))


def read_checkpoint(path) -> dict[str, object]:
    path = Path(path)
    return _unpack_sections(_read_bytes(path), str(path))


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def write_dataset(dataset: Dataset, root) -> None:
    root = Path(root)
    write_mapping(root / "mapping.txt", dataset.class_names)
    for record in dataset.train + dataset.test:
        write_features(feature_path(root, record.id), record.features)
        write_labels(root / "labels" / f"{record.id}.txt", record.labels, dataset.class_names)
    for name, records in (("train", dataset.train), ("test", dataset.test)):
        ids = "\n".join(r.id for r in records) + "\n"
        atomic_write_bytes(split_path(root, name), ids.encode("utf-8"))


def split_path(root, name: str) -> Path:
    return Path(root) / "splits" / f"{name}.txt"


def feature_path(root, vid: str) -> Path:
    return Path(root) / "features" / f"{vid}.htfe"


def read_dataset(root) -> Dataset:
    root = Path(root)
    mapping_path = root / "mapping.txt"
    class_names = read_mapping(mapping_path)
    width = 0  # feature columns of the first video read; every video must match

    def read_split(name: str) -> list[VideoRecord]:
        nonlocal width
        path = split_path(root, name)
        if not path.exists():
            raise FormatError(f"{path}: missing split file")
        records = []
        seen = set()
        for vid in read_utf8(path).split():
            if vid in seen:
                raise FormatError(f"{path}: video {vid!r} is listed twice")
            seen.add(vid)
            features_file = feature_path(root, vid)
            label_path = root / "labels" / f"{vid}.txt"
            # os.path.exists is False for a name the OS refuses (a NUL byte,
            # too long), where Path.exists raises.
            if not (os.path.exists(features_file) and os.path.exists(label_path)):
                raise FormatError(f"{path}: video {vid!r} needs {features_file} and {label_path}")
            features = read_features(features_file)
            width = width or features.shape[1]
            if features.shape[1] != width:
                raise FormatError(
                    f"{features_file}: {features.shape[1]} feature columns, but the videos "
                    f"read before it have {width}"
                )
            labels = read_labels(label_path, class_names, mapping=str(mapping_path))
            if features.shape[0] != labels.shape[0]:
                raise FormatError(
                    f"{label_path}: {labels.shape[0]} labels for the "
                    f"{features.shape[0]} feature rows of {features_file}"
                )
            records.append(VideoRecord(vid, features, labels))
        return records

    train = read_split("train")
    test = read_split("test")
    return Dataset(train, test, class_names, width)
