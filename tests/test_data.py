import math
import re
from pathlib import Path

import numpy as np
import pytest

from hyptas.data import (
    SIZE_CAPS,
    Dataset,
    RunConfig,
    SyntheticSpec,
    atomic_write_bytes,
    generate_synthetic,
    parse_override,
    read_checkpoint,
    read_config,
    read_dataset,
    read_features,
    read_labels,
    read_mapping,
    write_checkpoint,
    write_dataset,
    write_features,
    write_labels,
    write_mapping,
)
from hyptas.errors import ConfigError, FormatError, OutputError, ShapeError
from hyptas.metrics import segments_from_labels


class TestSyntheticGeneration:
    def test_noise_free_features_are_class_means(self):
        spec = SyntheticSpec(feature_noise=0.0, videos=8, seed=3)
        data = generate_synthetic(spec)
        means = {}
        for rec in data.train + data.test:
            for label, row in zip(rec.labels, rec.features):
                key = int(label)
                if key in means:
                    assert np.array_equal(means[key], row)
                else:
                    means[key] = row

    def test_nearest_mean_classifier_is_perfect_without_noise(self):
        spec = SyntheticSpec(feature_noise=0.0, videos=6, seed=5)
        data = generate_synthetic(spec)
        mean_rows = {}
        for rec in data.train:
            for label, row in zip(rec.labels, rec.features):
                mean_rows.setdefault(int(label), row)
        classes = sorted(mean_rows)
        table = np.stack([mean_rows[c] for c in classes])
        for rec in data.test:
            d = np.linalg.norm(rec.features[:, None, :] - table[None], axis=2)
            pred = np.array([classes[i] for i in np.argmin(d, axis=1)])
            assert np.array_equal(pred, rec.labels)

    def test_same_seed_byte_identical(self):
        spec = SyntheticSpec(videos=5, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for ra, rb in zip(a.train + a.test, b.train + b.test):
            assert ra.id == rb.id
            assert ra.features.tobytes() == rb.features.tobytes()
            assert ra.labels.tobytes() == rb.labels.tobytes()

    def test_fixed_segment_count(self):
        spec = SyntheticSpec(segments_per_video=(3, 3), videos=10, seed=7)
        data = generate_synthetic(spec)
        for rec in data.train + data.test:
            assert len(segments_from_labels(rec.labels)) == 3

    def test_segments_are_contiguous_runs(self):
        spec = SyntheticSpec(videos=10, seed=9)
        data = generate_synthetic(spec)
        lo, hi = spec.frames_per_segment
        for rec in data.train + data.test:
            for seg in segments_from_labels(rec.labels):
                assert lo <= seg.end - seg.start + 1 <= hi

    def test_split_sizes(self):
        data = generate_synthetic(SyntheticSpec(videos=50, seed=1))
        assert len(data.train) == 40 and len(data.test) == 10

    def test_class_count(self):
        spec = SyntheticSpec(num_tasks=2, actions_per_task=2, shared_actions=2)
        assert spec.num_classes == 6
        data = generate_synthetic(spec)
        assert len(data.class_names) == 6

    def test_infeasible_specs_rejected(self):
        with pytest.raises(ShapeError):
            SyntheticSpec(num_tasks=0)
        with pytest.raises(ShapeError):
            SyntheticSpec(actions_per_task=1, shared_actions=0)
        with pytest.raises(ShapeError):
            SyntheticSpec(frames_per_segment=(5, 4))
        for noise in (-0.1, math.nan, math.inf):
            with pytest.raises(ShapeError, match="feature_noise"):
                SyntheticSpec(feature_noise=noise)


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(17, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "a.htfe"
        write_features(path, m)
        back = read_features(path)
        assert back.tobytes() == m.tobytes()

    def test_storage_is_float32(self, tmp_path):
        m = np.array([[0.1, 0.2]])  # not f32-representable
        path = tmp_path / "b.htfe"
        write_features(path, m)
        back = read_features(path)
        assert np.array_equal(back, m.astype(np.float32).astype(np.float64))

    def test_bad_magic_names_path(self, tmp_path):
        path = tmp_path / "bad.htfe"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="bad.htfe"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.htfe"
        write_features(path, np.ones((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="expected"):
            read_features(path)

    def test_empty_rejected_at_write(self, tmp_path):
        with pytest.raises(FormatError):
            write_features(tmp_path / "d.htfe", np.empty((0, 4)))

    def test_dimension_overflow_rejected(self, tmp_path):
        import struct

        path = tmp_path / "e.htfe"
        path.write_bytes(b"HTFE" + struct.pack("<HII", 1, 2**30, 2**30))
        with pytest.raises(FormatError, match="out of range"):
            read_features(path)


class TestLabelFiles:
    NAMES = ["pour", "take", "stir"]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "l.txt"
        labels = np.array([0, 0, 2, 1])
        write_labels(path, labels, self.NAMES)
        assert path.read_text() == "pour\npour\nstir\ntake\n"
        assert np.array_equal(read_labels(path, self.NAMES), labels)

    def test_unknown_name_cites_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("pour\nchop\ntake\n")
        with pytest.raises(FormatError, match=r":2: unknown class name 'chop'"):
            read_labels(path, self.NAMES)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            read_labels(path, self.NAMES)

    def test_mapping_roundtrip(self, tmp_path):
        path = tmp_path / "m.txt"
        write_mapping(path, self.NAMES)
        assert read_mapping(path) == self.NAMES

    def test_mapping_gap_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 pour\n2 stir\n")
        with pytest.raises(FormatError, match="contiguous"):
            read_mapping(path)

    def test_mapping_with_spaces_in_name(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 pour water\n1 take cup\n")
        assert read_mapping(path) == ["pour water", "take cup"]


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("")
        cfg = read_config(path)
        assert cfg.epochs == 200
        assert cfg.stabilization_epochs == 80  # 0.4 * epochs
        assert (cfg.lambda_ce, cfg.lambda_entail, cfg.lambda_margin, cfg.lambda_pp, cfg.lambda_gg) \
            == (0.5, 0.05, 0.1, 0.1, 0.1)
        assert cfg.curvature == 1.0
        assert cfg.timesteps == 1000
        assert cfg.infer_steps == 25
        assert cfg.cone_k == 0.1
        assert cfg.margin == 2.0
        assert cfg.decay == "exp"
        assert cfg.batch_size == 4
        assert cfg.lr == 5e-4

    def test_e1_ratio_tracks_epochs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1000\n")
        assert read_config(path).stabilization_epochs == 400

    @pytest.mark.parametrize("value", ["0", "150"])
    def test_curvature_out_of_range(self, tmp_path, value):
        # 150 puts the starting prototypes (norm up to 0.1) outside the ball.
        path = tmp_path / "run.cfg"
        path.write_text(f"curvature = {value}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: curvature"):
            read_config(path)

    def test_cosine_decay_selected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("decay = cosine\n")
        assert read_config(path).decay == "cosine"

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 10\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match=r":2: unknown key"):
            read_config(path)

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# fine\nepochs ten\n")
        with pytest.raises(ConfigError, match=r":2:"):
            read_config(path)

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("  epochs = 50   # short run\n\n# done\n")
        assert read_config(path).epochs == 50

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 50\n")
        cfg = read_config(path, overrides={"epochs": 75})
        assert cfg.epochs == 75

    def test_parse_override(self):
        assert parse_override("curvature=0.5") == ("curvature", 0.5)
        assert parse_override("aux_head = false") == ("aux_head", False)
        with pytest.raises(ConfigError):
            parse_override("curvature")
        with pytest.raises(ConfigError):
            parse_override("nope=1")

    def test_apply_overrides_validates(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 50\n")
        with pytest.raises(ConfigError, match="infer_steps"):
            read_config(path, overrides={"infer_steps": 5000})

    def test_range_error_names_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 0\n")
        with pytest.raises(ConfigError, match=f"^{path}: epochs"):
            read_config(path)

    @pytest.mark.parametrize("key", sorted(SIZE_CAPS))
    def test_sizes_above_their_cap_rejected_by_key(self, key):
        assert getattr(RunConfig(**{key: SIZE_CAPS[key]}), key) == SIZE_CAPS[key]
        with pytest.raises(ConfigError, match=f"^{key} = "):
            RunConfig(**{key: SIZE_CAPS[key] + 1})


class TestCheckpoint:
    SECTIONS = [
        ("config_text", "abc123"),
        ("weights/w", np.arange(12.0).reshape(3, 4)),
        ("scalar", np.array(2.5)),
    ]

    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "model.htck"
        write_checkpoint(path, self.SECTIONS)
        back = read_checkpoint(path)
        assert back["config_text"] == "abc123"
        assert back["weights/w"].tobytes() == self.SECTIONS[1][1].tobytes()
        assert float(back["scalar"]) == 2.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.htck"
        path.write_bytes(b"XXXX" + b"\x00" * 10)
        with pytest.raises(FormatError, match="bad magic"):
            read_checkpoint(path)

    def test_truncation_no_partial_result(self, tmp_path):
        path = tmp_path / "model.htck"
        write_checkpoint(path, self.SECTIONS)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)

    def test_tampered_length_header(self, tmp_path):
        path = tmp_path / "model.htck"
        write_checkpoint(path, [("w", np.ones(4))])
        blob = bytearray(path.read_bytes())
        # section name length lives right after magic+version+count
        blob[10] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.htck"
        write_checkpoint(path, self.SECTIONS)
        path.write_bytes(path.read_bytes() + b"!!")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(path)


class TestDatasetDirectory:
    def test_write_read_roundtrip(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(videos=6, seed=13))
        write_dataset(data, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back.class_names == data.class_names
        assert [r.id for r in back.train] == [r.id for r in data.train]
        assert [r.id for r in back.test] == [r.id for r in data.test]
        for a, b in zip(data.train + data.test, back.train + back.test):
            assert a.features.tobytes() == b.features.tobytes()
            assert np.array_equal(a.labels, b.labels)

    def test_missing_split_file(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(videos=4, seed=1))
        write_dataset(data, tmp_path / "ds")
        (tmp_path / "ds" / "splits" / "test.txt").unlink()
        with pytest.raises(FormatError, match="missing split"):
            read_dataset(tmp_path / "ds")


class TestAtomicWrite:
    def test_each_write_gets_its_own_temp_file(self, tmp_path, monkeypatch):
        import os

        temps = []
        real_replace = os.replace

        def spy(src, dst):
            temps.append(Path(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert len(set(temps)) == 2 and all(t.parent == tmp_path for t in temps)
        assert sorted(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_target_and_no_temp(self, tmp_path, monkeypatch):
        import os

        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OutputError, match=f"{re.escape(str(target))}: cannot write: disk full"):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_mode_follows_umask(self, tmp_path):
        import os

        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"x")
        mask = os.umask(0)
        os.umask(mask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~mask
