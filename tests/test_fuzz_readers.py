"""Seeded fuzzing of every reader: checkpoints (.htck), feature files
(.htfe), the mapping, label and split text files, and config text.

Every damaged file goes through the CLI, which must succeed (exit 0) or
reject it as malformed input (exit 1, naming the file); exit 2 means a bug
in a reader. The checkpoint mutations truncate, flip bits, cut a byte
range, drop a whole section, or swap a section's kind between tensor and
string; the feature-file mutations truncate, flip bits, cut bytes and
rewrite header fields; the text mutations truncate, flip bits, cut bytes,
repeat a line, or (config text only) give a key a random value. Config
text is damaged both as a `train --config` file, parsed before the missing
`--data` directory is read, and as the checkpoint's `config_text` section.
Fixed cases pin three tensor headers that once escaped as exit 2, a NaN
feature value that once exited 1 without naming its file, a parameter of
4.8e307 that once exited 0 with garbage, and sizes of 10**30 that once
exited 2 from inside numpy.
"""

import shutil
import struct

import numpy as np
import pytest

from hyptas.cli import run
from hyptas.data import read_checkpoint

GEN_ARGS = [
    "--videos", "5", "--tasks", "2", "--actions-per-task", "1", "--shared-actions", "1",
    "--feature-dim", "4", "--noise", "0.3", "--frames", "3", "4", "--segments", "2", "2",
    "--seed", "3",
]
TRAIN_SETS = [
    "--set", "epochs=2", "--set", "timesteps=20", "--set", "infer_steps=1",
    "--set", "encoder_channels=4", "--set", "embed_dim=4",
]
CASES_PER_MUTATION = 150


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, ckpt = root / "data", root / "model.htck"
    assert run(["gen-data", "--out", str(data)] + GEN_ARGS) == 0
    assert run(["train", "--data", str(data), "--out", str(ckpt), "--seed", "1"] + TRAIN_SETS) == 0
    return root, data, ckpt


def _sections(blob: bytes) -> list[tuple[int, int, int]]:
    """(start, kind offset, end) of every section of a well-formed checkpoint."""
    (count,) = struct.unpack_from("<I", blob, 6)
    spans, pos = [], 10
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        kind_at = pos + 2 + name_len
        if blob[kind_at] == 1:
            (raw_len,) = struct.unpack_from("<I", blob, kind_at + 1)
            end = kind_at + 5 + raw_len
        else:
            ndim = blob[kind_at + 1]
            dims = struct.unpack_from(f"<{ndim}I", blob, kind_at + 2)
            end = kind_at + 2 + 4 * ndim + 8 * int(np.prod(dims))
        spans.append((pos, kind_at, end))
        pos = end
    assert pos == len(blob)
    return spans


def _with_count(blob: bytes, count: int) -> bytes:
    return blob[:6] + struct.pack("<I", count) + blob[10:]


def _truncate(blob, rng):
    return blob[: rng.integers(0, len(blob))]


def _flip_bits(blob, rng):
    out = bytearray(blob)
    for at in rng.integers(0, len(blob), size=rng.integers(1, 4)):
        out[at] ^= 1 << int(rng.integers(0, 8))
    return bytes(out)


def _cut(blob, rng):
    start = int(rng.integers(0, len(blob)))
    stop = min(len(blob), start + int(rng.integers(1, 64)))
    return blob[:start] + blob[stop:]


def _drop_section(blob, rng):
    spans = _sections(blob)
    start, _, end = spans[rng.integers(0, len(spans))]
    return _with_count(blob[:start] + blob[end:], len(spans) - 1)


def _swap_kind(blob, rng):
    spans = _sections(blob)
    _, kind_at, _ = spans[rng.integers(0, len(spans))]
    out = bytearray(blob)
    out[kind_at] ^= 1
    return bytes(out)


def _feature_header(blob, rng):
    """Rewrite version, L or D with a random u16/u32."""
    field = rng.integers(0, 3)
    if field == 0:
        return blob[:4] + struct.pack("<H", int(rng.integers(0, 1 << 16))) + blob[6:]
    at = 6 if field == 1 else 10
    return blob[:at] + struct.pack("<I", int(rng.integers(0, 1 << 32))) + blob[at + 4:]


def _repeat_line(blob, rng):
    lines = blob.splitlines(keepends=True) or [b""]
    at = int(rng.integers(0, len(lines)))
    return b"".join(lines[: at + 1] + lines[at:])


HUGE = str(10**30)
CONFIG_VALUES = ["", "0", "-1", "2", "1.5", "1e309", "nan", "-inf", HUGE, "true", "cosine", "x"]


def _config_value(blob, rng):
    """One `key = value` line gets a random value from CONFIG_VALUES."""
    lines = blob.splitlines(keepends=True)
    at = int(rng.integers(0, len(lines)))
    key = lines[at].split(b"=")[0]
    lines[at] = key + b"= " + CONFIG_VALUES[rng.integers(0, len(CONFIG_VALUES))].encode() + b"\n"
    return b"".join(lines)


CHECKPOINT_MUTATIONS = [_truncate, _flip_bits, _cut, _drop_section, _swap_kind]
FEATURE_MUTATIONS = [_truncate, _flip_bits, _cut, _feature_header]
TEXT_MUTATIONS = [_truncate, _flip_bits, _cut, _repeat_line]
CONFIG_MUTATIONS = TEXT_MUTATIONS + [_config_value]
TEXT_CASES_PER_MUTATION = 60


def _infer(ckpt, data, out) -> int:
    return run(["infer", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out),
                "--steps", "1"])


def _assert_handled(code, capsys, damaged, label):
    """Exit 0, or exit 1 with a message that names the damaged file."""
    err = capsys.readouterr().err
    assert code in (0, 1), f"{label}: {err}"
    assert code == 0 or str(damaged) in err, f"{label}: {err}"


def test_damaged_checkpoints_exit_zero_or_one(trained, tmp_path, capsys):
    _, data, ckpt = trained
    blob = ckpt.read_bytes()
    bad = tmp_path / "bad.htck"
    rng = np.random.default_rng(0)
    for mutate in CHECKPOINT_MUTATIONS:
        for case in range(CASES_PER_MUTATION):
            bad.write_bytes(mutate(blob, rng))
            code = _infer(bad, data, tmp_path / "p")
            _assert_handled(code, capsys, bad, f"{mutate.__name__} case {case}")


def test_damaged_feature_files_exit_zero_or_one(trained, tmp_path, capsys):
    _, data, ckpt = trained
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    first = (copy / "splits" / "test.txt").read_text().split()[0]
    features = copy / "features" / f"{first}.htfe"
    blob = features.read_bytes()
    rng = np.random.default_rng(1)
    for mutate in FEATURE_MUTATIONS:
        for case in range(CASES_PER_MUTATION):
            features.write_bytes(mutate(blob, rng))
            code = _infer(ckpt, copy, tmp_path / "p")
            _assert_handled(code, capsys, features, f"{mutate.__name__} case {case}")


def _extra_tensor(ndim: int, dims: tuple[int, ...], payload: bytes) -> bytes:
    name = b"extra"
    return (struct.pack("<H", len(name)) + name + struct.pack("<BB", 0, ndim)
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


@pytest.mark.parametrize("section", [
    _extra_tensor(65, (1,) * 65, bytes(8)),               # more dimensions than numpy allows
    _extra_tensor(4, (1 << 16,) * 4, b""),                # product 2**64 wraps to 0 in int64
    _extra_tensor(3, (0, 1 << 31, 1 << 31), b""),         # zero size, 2**65 bytes to numpy
], ids=["ndim_65", "dims_product_wraps", "zero_size_overflows"])
def test_pinned_tensor_headers_exit_one(trained, tmp_path, capsys, section):
    _, data, ckpt = trained
    blob = ckpt.read_bytes()
    bad = tmp_path / "bad.htck"
    bad.write_bytes(_with_count(blob, len(_sections(blob)) + 1) + section)
    code = _infer(bad, data, tmp_path / "p")
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(bad) in err and "'extra'" in err


def test_pinned_non_finite_feature_exits_one(trained, tmp_path, capsys):
    _, data, ckpt = trained
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    first = (copy / "splits" / "test.txt").read_text().split()[0]
    features = copy / "features" / f"{first}.htfe"
    blob = bytearray(features.read_bytes())
    blob[14:18] = struct.pack("<f", float("nan"))
    features.write_bytes(bytes(blob))
    code = _infer(ckpt, copy, tmp_path / "p")
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(features) in err and "non-finite" in err


def test_pinned_huge_parameter_exits_one(trained, tmp_path, capsys):
    """`_flip_bits` case 48 of the checkpoint fuzz: the top exponent bit of
    entry 34 of `param/dec.step3.w` turns it into 4.8e307. Such a checkpoint
    once loaded, overflowed the embedding norm, and exited 0 with every ball
    coordinate 0."""
    _, data, ckpt = trained
    blob = bytearray(ckpt.read_bytes())
    _, kind_at, _ = next(span for span in _sections(bytes(blob))
                         if blob[span[0] + 2 : span[1]] == b"param/dec.step3.w")
    payload = kind_at + 2 + 4 * blob[kind_at + 1]
    blob[payload + 8 * 34 + 7] ^= 0x40
    bad = tmp_path / "bad.htck"
    bad.write_bytes(bytes(blob))
    code = _infer(bad, data, tmp_path / "p")
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(bad) in err and "'param/dec.step3.w'" in err and "magnitude cap" in err


def _with_config_text(blob: bytes, text: bytes) -> bytes:
    """The checkpoint with the payload of its `config_text` section replaced."""
    for start, kind_at, end in _sections(blob):
        if blob[start + 2 : kind_at] == b"config_text":
            return blob[: kind_at + 1] + struct.pack("<I", len(text)) + text + blob[end:]
    raise AssertionError("no config_text section")


@pytest.mark.parametrize("target", ["mapping.txt", "labels", "splits/test.txt", "splits/train.txt"])
def test_damaged_dataset_text_files_exit_zero_or_one(trained, tmp_path, capsys, target):
    _, data, ckpt = trained
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    if target == "labels":
        target = f"labels/{(copy / 'splits' / 'test.txt').read_text().split()[0]}.txt"
    damaged = copy / target
    blob = damaged.read_bytes()
    rng = np.random.default_rng(2)
    for mutate in TEXT_MUTATIONS:
        for case in range(TEXT_CASES_PER_MUTATION):
            damaged.write_bytes(mutate(blob, rng))
            code = _infer(ckpt, copy, tmp_path / "p")
            _assert_handled(code, capsys, damaged, f"{mutate.__name__} case {case}")


@pytest.mark.parametrize("text, line, message", [
    ("0 a\n\u00b2 b\n", 2, "expected 'index name'"),  # '\u00b2'.isdigit(), but int() refuses it
    ("0 a\n1 b\n0 c\n", 3, "index 0 is already mapped"),
    ("0 a\n1 a\n", 2, "class name 'a' is already mapped"),
], ids=["superscript_index", "repeated_index", "repeated_name"])
def test_pinned_mappings_exit_one(trained, tmp_path, capsys, text, line, message):
    """A superscript index once escaped `read_mapping` as a ValueError (exit
    2); a repeated index once let the later line win, and a repeated name
    once mapped every label of that name to the later index."""
    _, data, _ = trained
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    mapping = copy / "mapping.txt"
    mapping.write_text(text, encoding="utf-8")
    code = run(["train", "--data", str(copy), "--out", str(tmp_path / "m.htck")] + TRAIN_SETS)
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"{mapping}:{line}: " in err and message in err


def test_damaged_config_files_exit_one_before_reading_data(trained, tmp_path, capsys):
    """A config that parses reaches the missing --data directory, which is
    refused by its own path; one that does not is refused by the config's."""
    _, _, ckpt = trained
    blob = read_checkpoint(ckpt)["config_text"].encode()
    config, missing = tmp_path / "run.cfg", tmp_path / "no-data"
    rng = np.random.default_rng(3)
    for mutate in CONFIG_MUTATIONS:
        for case in range(TEXT_CASES_PER_MUTATION):
            config.write_bytes(mutate(blob, rng))
            code = run(["train", "--config", str(config), "--data", str(missing),
                        "--out", str(tmp_path / "m.htck")])
            err = capsys.readouterr().err
            assert code == 1, f"{mutate.__name__} case {case}: {err}"
            assert str(config) in err or str(missing) in err, f"{mutate.__name__} case {case}: {err}"


def test_damaged_config_text_sections_exit_zero_or_one(trained, tmp_path, capsys):
    _, data, ckpt = trained
    blob = ckpt.read_bytes()
    text = read_checkpoint(ckpt)["config_text"].encode()
    bad = tmp_path / "bad.htck"
    rng = np.random.default_rng(4)
    for mutate in CONFIG_MUTATIONS:
        for case in range(TEXT_CASES_PER_MUTATION):
            bad.write_bytes(_with_config_text(blob, mutate(text, rng)))
            code = _infer(bad, data, tmp_path / "p")
            _assert_handled(code, capsys, bad, f"{mutate.__name__} case {case}")


@pytest.mark.parametrize("key", ["timesteps", "embed_dim", "encoder_channels"])
def test_pinned_huge_sizes_exit_one(trained, tmp_path, capsys, key):
    """10**30 is refused by key from --set before any data is read, and by
    path from a checkpoint's config_text."""
    _, data, ckpt = trained
    missing = tmp_path / "no-data"
    code = run(["train", "--data", str(missing), "--out", str(tmp_path / "m.htck"),
                "--set", f"{key}={HUGE}"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert key in err and str(missing) not in err

    text = read_checkpoint(ckpt)["config_text"]
    line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    bad = tmp_path / "bad.htck"
    bad.write_bytes(_with_config_text(ckpt.read_bytes(),
                                      text.replace(line, f"{key} = {HUGE}").encode()))
    code = _infer(bad, data, tmp_path / "p")
    err = capsys.readouterr().err
    assert code == 1, err
    assert str(bad) in err and key in err
