import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyptas.cli
from hyptas.cli import run
from hyptas.data import SyntheticSpec, read_features, write_features
from hyptas.errors import ShapeError

GEN_ARGS = [
    "--videos", "8", "--tasks", "2", "--actions-per-task", "1", "--shared-actions", "2",
    "--feature-dim", "6", "--noise", "0.3", "--frames", "6", "9", "--segments", "3", "3",
    "--seed", "4",
]
# Subprocesses import the package this run tests, with or without PYTHONPATH.
SRC = str(Path(hyptas.cli.__file__).resolve().parents[1])
SUBPROCESS_ENV = dict(os.environ,
                      PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
TRAIN_SETS = [
    "--set", "epochs=3", "--set", "timesteps=50", "--set", "infer_steps=2",
    "--set", "encoder_channels=8", "--set", "embed_dim=8",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    ckpt = root / "model.htck"
    assert run(["gen-data", "--out", str(data)] + GEN_ARGS) == 0
    assert run(["train", "--data", str(data), "--out", str(ckpt), "--seed", "1"] + TRAIN_SETS) == 0
    return root, data, ckpt


class TestGenData:
    def test_layout(self, workspace):
        _, data, _ = workspace
        assert (data / "mapping.txt").exists()
        assert sorted(p.name for p in (data / "splits").iterdir()) == ["test.txt", "train.txt"]
        feature_files = list((data / "features").glob("*.htfe"))
        label_files = list((data / "labels").glob("*.txt"))
        assert len(feature_files) == len(label_files) == 8

    def test_deterministic_regeneration(self, tmp_path):
        for name in ("a", "b"):
            assert run(["gen-data", "--out", str(tmp_path / name)] + GEN_ARGS) == 0
        for rel in ["mapping.txt", "splits/train.txt", "labels/video_0000.txt",
                    "features/video_0000.htfe"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_invalid_spec_is_validation_error(self, tmp_path, capsys):
        code = run(["gen-data", "--out", str(tmp_path / "x"), "--videos", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_validation_error(self, tmp_path, capsys, noise):
        code = run(["gen-data", "--out", str(tmp_path / "x"), "--noise", noise])
        assert code == 1
        assert "feature_noise must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_smoothing_is_validation_error(self, tmp_path, capsys):
        code = run(["gen-data", "--out", str(tmp_path / "x"), "--smoothing", "-1"])
        assert code == 1
        assert "error: smoothing_halfwidth must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_float32_overflow_is_validation_error(self, tmp_path, capsys):
        code = run(["gen-data", "--out", str(tmp_path / "x"), "--noise", "1e39", "--videos", "5"])
        assert code == 1
        assert "error: feature_noise = 1e+39 overflows" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spec, flags, field", [
        (dict(num_tasks=10**8), ["--tasks", "100000000"], "num_classes"),
        (dict(feature_dim=10**5), ["--feature-dim", "100000"], "feature_dim"),
        (dict(videos=10**6), ["--videos", "1000000"], "videos"),
        (dict(frames_per_segment=(1, 10**6)), ["--frames", "1", "1000000"],
         "frames_per_segment"),
        (dict(segments_per_video=(1, 10**5)), ["--segments", "1", "100000"],
         "segments_per_video"),
        (dict(smoothing_halfwidth=10**11), ["--smoothing", "100000000000"],
         "smoothing_halfwidth"),
        (dict(videos=100, frames_per_segment=(1000, 1000), segments_per_video=(100, 100)),
         ["--videos", "100", "--frames", "1000", "1000", "--segments", "100", "100"],
         "videos*segments_per_video*frames_per_segment*feature_dim"),
    ])
    def test_size_above_its_cap_is_validation_error(self, tmp_path, capsys, spec, flags, field):
        # The spec refuses the size before the command runs with it.
        with pytest.raises(ShapeError, match=re.escape(f"{field} = ")):
            SyntheticSpec(**spec)
        code = run(["gen-data", "--out", str(tmp_path / "x")] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {field} = " in err and "above its cap" in err
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, workspace):
        root, _, ckpt = workspace
        assert ckpt.exists()
        log = Path(str(ckpt) + ".log")
        assert log.exists()
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("epoch=") for line in lines)

    def test_bad_config_file(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("curvature = 0\n")
        code = run(["train", "--data", str(data), "--out", str(tmp_path / "m.htck"),
                    "--config", str(cfg)])
        assert code == 1
        assert "curvature" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "lr", "proto_lr", "lambda_ce", "lambda_entail", "lambda_margin", "lambda_pp",
        "lambda_gg", "curvature", "cone_k", "margin",
    ])
    def test_non_finite_setting_rejected_before_reading_data(self, tmp_path, capsys, key, value):
        out = tmp_path / "m.htck"
        code = run(["train", "--data", str(tmp_path / "no-such-dir"), "--out", str(out),
                    "--set", f"{key}={value}"])
        assert code == 1
        assert f"error: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["set", "file"])
    def test_curvature_too_large_for_the_starting_prototypes(self, workspace, tmp_path, capsys,
                                                             monkeypatch, source):
        # Starting prototypes reach norm 0.1, outside the ball of radius
        # 1/sqrt(150); the run is refused as a config error before training.
        _, data, _ = workspace

        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(hyptas.cli, "train", no_training)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curvature = 150\n")
        setting = ["--set", "curvature=150"] if source == "set" else ["--config", str(cfg)]
        code = run(["train", "--data", str(data), "--out", str(tmp_path / "m.htck")] + setting)
        err = capsys.readouterr().err
        assert code == 1, err
        prefix = "error: " if source == "set" else f"error: {cfg}: "
        assert err.startswith(prefix + "curvature = 150.0 puts the starting prototypes outside")
        assert not (tmp_path / "m.htck").exists()

    def test_epochs_above_its_cap_rejected_before_training(self, workspace, tmp_path, capsys,
                                                           monkeypatch):
        # 0.4 * epochs is rounded through a float for the phase split; a
        # 401-digit count would overflow it.
        _, data, _ = workspace

        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(hyptas.cli, "train", no_training)
        epochs = "1" + "0" * 400
        out = tmp_path / "m.htck"
        code = run(["train", "--data", str(data), "--out", str(out), "--set", f"epochs={epochs}"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: epochs = {epochs} is above its cap of 1000000")
        assert not out.exists()

    def test_config_file_plus_set_overrides(self, workspace, tmp_path):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\ntimesteps = 50\ninfer_steps = 2\n# comment\n")
        out = tmp_path / "m.htck"
        code = run(["train", "--data", str(data), "--out", str(out), "--config", str(cfg),
                    "--set", "encoder_channels=8", "--set", "embed_dim=8"])
        assert code == 0 and out.exists()


class TestInferAndEval:
    def test_infer_writes_predictions(self, workspace, tmp_path):
        _, data, ckpt = workspace
        pred = tmp_path / "pred"
        assert run(["infer", "--ckpt", str(ckpt), "--data", str(data), "--out", str(pred),
                    "--steps", "2", "--seed", "0"]) == 0
        names = sorted(p.name for p in pred.glob("*.txt"))
        split = (data / "splits" / "test.txt").read_text().split()
        assert names == sorted(f"{v}.txt" for v in split)

    def test_infer_deterministic(self, workspace, tmp_path):
        _, data, ckpt = workspace
        outs = []
        for name in ("p1", "p2"):
            pred = tmp_path / name
            assert run(["infer", "--ckpt", str(ckpt), "--data", str(data), "--out", str(pred),
                        "--steps", "2", "--seed", "7"]) == 0
            outs.append({p.name: p.read_bytes() for p in pred.glob("*.txt")})
        assert outs[0] == outs[1]

    def test_zero_steps_is_validation_error(self, workspace, tmp_path, capsys):
        _, data, ckpt = workspace
        code = run(["infer", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(tmp_path / "p"), "--steps", "0"])
        assert code == 1
        assert "--steps" in capsys.readouterr().err

    def test_eval_identical_dirs_all_hundred(self, workspace, capsys):
        _, data, _ = workspace
        labels = data / "labels"
        assert run(["eval", "--pred", str(labels), "--gt", str(labels)]) == 0
        out = capsys.readouterr().out
        for key in ("F1@10", "F1@25", "F1@50", "Edit", "Acc", "Avg"):
            assert f"{key} = 100.0000" in out

    def test_eval_on_predictions_against_full_label_dir(self, workspace, tmp_path, capsys):
        # predictions cover only the test split; extra train labels are ignored
        _, data, ckpt = workspace
        pred = tmp_path / "pred"
        run(["infer", "--ckpt", str(ckpt), "--data", str(data), "--out", str(pred),
             "--steps", "2"])
        assert run(["eval", "--pred", str(pred), "--gt", str(data / "labels")]) == 0
        out = capsys.readouterr().out
        assert "Avg = " in out

    def test_eval_length_mismatch_names_both_files(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        (pred / "v.txt").write_text("a\nb\n")
        (gt / "v.txt").write_text("a\nb\nb\n")
        assert run(["eval", "--pred", str(pred), "--gt", str(gt)]) == 1
        err = capsys.readouterr().err
        assert f"{pred / 'v.txt'}: 2 labels, but ground truth {gt / 'v.txt'} has 3" in err

    def test_eval_missing_ground_truth(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        pred = tmp_path / "pred_orphan"
        pred.mkdir()
        shutil.copy(data / "labels" / "video_0000.txt", pred / "not_a_video.txt")
        code = run(["eval", "--pred", str(pred), "--gt", str(data / "labels")])
        assert code == 1
        assert "missing ground truth" in capsys.readouterr().err


class TestExportEmbeddings:
    def test_csv_shape_and_ball_membership(self, workspace, tmp_path):
        _, data, ckpt = workspace
        out = tmp_path / "emb.csv"
        assert run(["export-embeddings", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(out), "--steps", "2"]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["video", "frame", "pred_label", "gt_label"]
        dim = len(header) - 4
        coords = np.array([[float(x) for x in line.split(",")[4:]] for line in lines[1:]])
        assert coords.shape[1] == dim
        assert np.all(np.sum(coords**2, axis=1) < 1.0)

    def test_rows_cover_split(self, workspace, tmp_path):
        _, data, ckpt = workspace
        out = tmp_path / "emb.csv"
        run(["export-embeddings", "--ckpt", str(ckpt), "--data", str(data),
             "--out", str(out), "--steps", "2"])
        lines = out.read_text().strip().splitlines()[1:]
        videos = {line.split(",")[0] for line in lines}
        assert videos == set((data / "splits" / "test.txt").read_text().split())


class TestCheckCommand:
    def test_all_suites_pass(self, capsys):
        assert run(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "suites passed" in out


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["train", "--nonsense"]) == 1

    def test_missing_file(self, tmp_path, capsys):
        code = run(["infer", "--ckpt", str(tmp_path / "none.htck"),
                    "--data", str(tmp_path), "--out", str(tmp_path / "p")])
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["gen-data", "--out", "{tmp}/d"],
        ["train", "--data", "{tmp}", "--out", "{tmp}/m.htck"],
        ["infer", "--ckpt", "{tmp}/m.htck", "--data", "{tmp}", "--out", "{tmp}/p"],
        ["export-embeddings", "--ckpt", "{tmp}/m.htck", "--data", "{tmp}", "--out", "{tmp}/e.csv"],
        ["check"],
    ], ids=lambda c: c[0])
    def test_negative_seed_rejected_when_parsed(self, tmp_path, capsys, command):
        argv = [arg.format(tmp=tmp_path) for arg in command] + ["--seed", "-1"]
        assert run(argv) == 1
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,value", [
        (["gen-data", "--out", "{tmp}/d", "--videos", "٣"], "٣"),
        (["gen-data", "--out", "{tmp}/d", "--noise", "٠.٥"], "٠.٥"),
        (["gen-data", "--out", "{tmp}/d", "--frames", "٢", "٣"], "٢"),
        (["check", "--seed", "٣"], "٣"),
        (["train", "--data", "{tmp}", "--out", "{tmp}/m.htck", "--set", "epochs=٣"], "٣"),
        (["infer", "--ckpt", "{tmp}/m.htck", "--data", "{tmp}", "--out", "{tmp}/p",
          "--steps", "٢"], "٢"),
    ], ids=["videos", "noise", "frames", "seed", "set", "steps"])
    def test_non_ascii_number_rejected(self, tmp_path, capsys, command, value):
        assert run([arg.format(tmp=tmp_path) for arg in command]) == 1
        assert repr(value) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_console_script_wired(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from hyptas.cli import main; main()"],
            input="", capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 1  # no subcommand is a usage error

    def test_import_loads_numpy_random(self):
        """numpy loads `numpy.random` lazily; the package loads it on import, so
        no later call (such as one a signal handler interrupts) runs that import."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyptas.cli; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_module_entry_point_runs_the_command(self, tmp_path):
        pred, gt = tmp_path / "no_pred", tmp_path / "no_gt"
        proc = subprocess.run(
            [sys.executable, "-m", "hyptas.cli", "eval", "--pred", str(pred), "--gt", str(gt)],
            input="", capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 1, proc.stderr
        assert str(pred) in proc.stderr or str(gt) in proc.stderr


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("section,value", [
        ("prototypes/points", None),
        ("prototypes/frozen", None),
        ("config_text", None),
        ("param/enc.in.w", None),
        ("param/enc.in.w", "not a tensor"),
        ("param/dec.head.w", "not a tensor"),
        ("config_text", np.zeros(3)),
        ("prototypes/points", np.zeros((2, 2))),
        ("prototypes/points", lambda points: points * 1e3),  # outside the ball
        ("prototypes/points", lambda points: points[:1]),  # one class
        ("param/enc.in.w", lambda w: w[:, :0]),  # no feature columns
    ])
    def test_exit_one_naming_path_and_section(self, workspace, tmp_path, capsys, section, value):
        """`value` None drops the section, a function maps the stored value,
        anything else replaces it."""
        from hyptas.data import read_checkpoint, write_checkpoint

        _, data, ckpt = workspace
        sections = read_checkpoint(ckpt)
        if value is None:
            del sections[section]
        else:
            sections[section] = value(sections[section]) if callable(value) else value
        bad = tmp_path / "bad.htck"
        write_checkpoint(bad, list(sections.items()))
        code = run(["infer", "--ckpt", str(bad), "--data", str(data), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(bad) in err and section in err

    def test_curvature_that_puts_prototypes_outside_the_ball(self, workspace, tmp_path, capsys):
        # Rows of norm 0.2 lie inside the ball at curvature 1 but outside the
        # ball of radius 1/sqrt(99): the points are checked at the stored curvature.
        from hyptas.data import read_checkpoint, write_checkpoint

        _, data, ckpt = workspace
        sections = read_checkpoint(ckpt)
        sections["config_text"] = sections["config_text"].replace(
            "curvature = 1.0", "curvature = 99.0"
        )
        points = sections["prototypes/points"]
        sections["prototypes/points"] = 0.2 * points / np.linalg.norm(points, axis=1, keepdims=True)
        bad = tmp_path / "bad.htck"
        write_checkpoint(bad, list(sections.items()))
        code = run(["infer", "--ckpt", str(bad), "--data", str(data), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(bad) in err and "prototypes/points" in err and "ball" in err

    def test_stored_curvature_too_large_for_the_starting_prototypes(self, workspace, tmp_path,
                                                                     capsys):
        from hyptas.data import read_checkpoint, write_checkpoint

        _, data, ckpt = workspace
        sections = read_checkpoint(ckpt)
        sections["config_text"] = sections["config_text"].replace(
            "curvature = 1.0", "curvature = 10000.0"
        )
        bad = tmp_path / "bad.htck"
        write_checkpoint(bad, list(sections.items()))
        code = run(["infer", "--ckpt", str(bad), "--data", str(data), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: {bad}: stored config invalid: curvature = 10000.0 puts")

    def test_non_utf8_section_name(self, workspace, tmp_path, capsys):
        _, data, ckpt = workspace
        blob = ckpt.read_bytes()
        bad = tmp_path / "bad.htck"
        bad.write_bytes(blob.replace(b"config_text", b"\xffonfig_text", 1))
        code = run(["infer", "--ckpt", str(bad), "--data", str(data), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1 and str(bad) in err and "UTF-8" in err


class TestConfigAgainstTensors:
    @pytest.mark.parametrize("line,edited,section", [
        ("embed_dim = 8", "embed_dim = 4", "prototypes/points"),
        ("encoder_channels = 8", "encoder_channels = 16", "param/enc.in.w"),
    ])
    def test_disagreeing_config_text_is_exit_one(self, workspace, tmp_path, capsys,
                                                 line, edited, section):
        """A stored config whose widths contradict the tensors refuses to load;
        `export-embeddings` would otherwise label 8-wide rows with the
        config's column count."""
        from hyptas.data import read_checkpoint, write_checkpoint

        _, data, ckpt = workspace
        sections = read_checkpoint(ckpt)
        assert line in sections["config_text"].splitlines()
        sections["config_text"] = sections["config_text"].replace(line, edited)
        bad = tmp_path / "bad.htck"
        write_checkpoint(bad, list(sections.items()))
        out = tmp_path / "emb.csv"
        code = run(["export-embeddings", "--ckpt", str(bad), "--data", str(data),
                    "--out", str(out), "--steps", "2"])
        err = capsys.readouterr().err
        assert code == 1, err
        field = line.split(" = ")[0]
        assert str(bad) in err and field in err and section in err
        assert not out.exists()

    def test_export_columns_follow_the_model(self, workspace, tmp_path):
        _, data, ckpt = workspace
        out = tmp_path / "emb.csv"
        assert run(["export-embeddings", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(out), "--steps", "2"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines[0].split(",")) == 4 + 8  # embed_dim = 8 in TRAIN_SETS
        assert {len(row.split(",")) for row in lines[1:]} == {4 + 8}


def _break_dataset(data, kind):
    """Damage one file of a dataset copy; returns the damaged path."""
    first = (data / "splits" / "test.txt").read_text().split()[0]
    if kind == "missing_dir":
        shutil.rmtree(data)
        return data / "mapping.txt"
    if kind == "labels_not_utf8":
        path = data / "labels" / f"{first}.txt"
        path.write_bytes(b"\xff\xfe\n")
        return path
    if kind == "mapping_not_utf8":
        path = data / "mapping.txt"
        path.write_bytes(b"0 caf\xe9\n")
        return path
    if kind == "mapping_extra_class":  # one class more than the checkpoint knows
        path = data / "mapping.txt"
        path.write_text(path.read_text() + "4 extra\n")
        return path
    if kind == "split_unreadable":
        path = data / "splits" / "test.txt"
        path.unlink()
        path.mkdir()
        return path
    path = data / "features" / f"{first}.htfe"  # features_unreadable
    path.unlink()
    path.mkdir()
    return path


class TestMalformedDataset:
    @pytest.mark.parametrize("kind", [
        "missing_dir", "labels_not_utf8", "mapping_not_utf8", "mapping_extra_class",
        "split_unreadable", "features_unreadable",
    ])
    def test_exit_one_naming_path(self, workspace, tmp_path, capsys, kind):
        _, data, ckpt = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        broken = _break_dataset(copy, kind)
        code = run(["infer", "--ckpt", str(ckpt), "--data", str(copy), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(broken) in err

    def test_empty_train_split(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        split = copy / "splits" / "train.txt"
        split.write_text("")
        code = run(["train", "--data", str(copy), "--out", str(tmp_path / "m.htck")] + TRAIN_SETS)
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(split) in err

    def test_video_listed_twice_in_a_split(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        split = copy / "splits" / "train.txt"
        first = split.read_text().split()[0]
        split.write_text(split.read_text() + first + "\n")
        out = tmp_path / "m.htck"
        code = run(["train", "--data", str(copy), "--out", str(out)] + TRAIN_SETS)
        err = capsys.readouterr().err
        assert code == 1, err
        assert f"{split}: video {first!r} is listed twice" in err
        assert not out.exists()

    def test_video_wider_than_the_others(self, workspace, tmp_path, capsys):
        _, data, ckpt = workspace
        copy = tmp_path / "data"
        shutil.copytree(data, copy)
        first = (copy / "splits" / "test.txt").read_text().split()[0]
        path = copy / "features" / f"{first}.htfe"
        features = read_features(path)
        write_features(path, np.hstack([features, features[:, :1]]))
        code = run(["infer", "--ckpt", str(ckpt), "--data", str(copy), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(path) in err and "7 feature columns" in err

    @pytest.mark.parametrize("command", ["infer", "export-embeddings"])
    def test_dataset_width_differs_from_checkpoint(self, workspace, tmp_path, capsys, command):
        _, _, ckpt = workspace
        data = tmp_path / "data"
        args = list(GEN_ARGS)
        args[args.index("--feature-dim") + 1] = "5"
        assert run(["gen-data", "--out", str(data)] + args) == 0
        capsys.readouterr()
        first = (data / "splits" / "test.txt").read_text().split()[0]
        out = tmp_path / ("p" if command == "infer" else "e.csv")
        code = run([command, "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert str(data / "features" / f"{first}.htfe") in err and str(ckpt) in err
        assert "param/enc.in.w" in err

    def test_eval_label_file_not_utf8(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        gt = tmp_path / "gt"
        shutil.copytree(data / "labels", gt)
        broken = sorted(gt.glob("*.txt"))[0]
        broken.write_bytes(b"\xff\n")
        code = run(["eval", "--pred", str(data / "labels"), "--gt", str(gt)])
        err = capsys.readouterr().err
        assert code == 1 and str(broken) in err


class TestUnwritableOutput:
    """An output path that cannot be written is a validation error (exit 1)
    naming the path that failed and the reason, not an internal error."""

    @pytest.mark.parametrize("command,target,reason", [
        ("train --out", "dir", "Is a directory"),
        ("train --out", "file/m.htck", "File exists"),
        ("train --log", "dir", "Is a directory"),
        ("gen-data --out", "file", "File exists"),
        ("gen-data --out", "file/sub", "Not a directory"),
        ("infer --out", "file", "File exists"),
        ("export-embeddings --out", "dir", "Is a directory"),
    ])
    def test_exit_one_naming_path(self, workspace, tmp_path, capsys, monkeypatch, command,
                                  target, reason):
        _, data, ckpt = workspace
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("keep")
        name, flag = command.split()
        if name == "train":  # the output is refused before training starts

            def no_training(*args):
                raise AssertionError("training started")

            monkeypatch.setattr(hyptas.cli, "train", no_training)
        args = {
            "train": ["--data", str(data), "--out", str(tmp_path / "m.htck")] + TRAIN_SETS,
            "gen-data": GEN_ARGS,
            "infer": ["--ckpt", str(ckpt), "--data", str(data)],
            "export-embeddings": ["--ckpt", str(ckpt), "--data", str(data)],
        }[name]
        if flag in args:
            args = args[: args.index(flag)] + args[args.index(flag) + 2 :]
        code = run([name, flag, str(tmp_path / target)] + args)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: {tmp_path / target}") and reason in err
        assert (tmp_path / "file").read_text() == "keep"
        assert not list(tmp_path.rglob("*.tmp"))
