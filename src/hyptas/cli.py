"""Command-line entry point.

Subcommands: gen-data, train, infer, eval, check, export-embeddings.
Exit codes: 0 success, 1 validation error (bad flags, malformed files,
failed checks), 2 internal error. Outputs are written atomically; `--seed`
touches only stochastic stages, `eval` is seed-free.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import checks
from .data import (
    RunConfig,
    SyntheticSpec,
    ascii_number,
    atomic_write_bytes,
    feature_path,
    generate_synthetic,
    parse_override,
    prepare_output,
    read_config,
    read_dataset,
    read_utf8,
    split_path,
    write_dataset,
    write_labels,
)
from .errors import ConfigError, FormatError, HyptasError
from .metrics import evaluate_videos
from .trainer import infer_videos, load_checkpoint, save_checkpoint, train

logger = logging.getLogger(__name__)


def _seed(text: str) -> int:
    """`--seed` value: a non-negative integer, refused while the flags are parsed."""
    value = ascii_number(text, int) if text.isdecimal() else None
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _ascii(kind: type[int] | type[float]):
    """The argparse type of an int or float flag, which refuses a value
    `ascii_number` refuses."""
    def parse(text: str):
        value = ascii_number(text, kind)
        if value is None:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        return value

    return parse


def _add_set_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def _resolve_config(args) -> RunConfig:
    overrides = dict(parse_override(item) for item in args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        return read_config(args.config, overrides=overrides)
    return RunConfig(**overrides)


def _add_inference_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `infer` and `export-embeddings` share."""
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--data", required=True, help="dataset directory")
    parser.add_argument("--split", choices=("train", "test"), default="test")
    parser.add_argument("--steps", type=_ascii(int))
    parser.add_argument("--seed", type=_seed, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyptas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    gen.add_argument("--out", required=True, help="target dataset directory")
    integer = _ascii(int)
    gen.add_argument("--videos", type=integer, default=SyntheticSpec.videos)
    gen.add_argument("--tasks", type=integer, default=SyntheticSpec.num_tasks)
    gen.add_argument("--actions-per-task", type=integer, default=SyntheticSpec.actions_per_task)
    gen.add_argument("--shared-actions", type=integer, default=SyntheticSpec.shared_actions)
    gen.add_argument("--feature-dim", type=integer, default=SyntheticSpec.feature_dim)
    gen.add_argument("--noise", type=_ascii(float), default=SyntheticSpec.feature_noise)
    gen.add_argument("--smoothing", type=integer, default=SyntheticSpec.smoothing_halfwidth)
    gen.add_argument("--frames", type=integer, nargs=2,
                     default=list(SyntheticSpec.frames_per_segment), metavar=("LO", "HI"))
    gen.add_argument("--segments", type=integer, nargs=2,
                     default=list(SyntheticSpec.segments_per_video), metavar=("LO", "HI"))
    gen.add_argument("--seed", type=_seed, default=0)

    tr = sub.add_parser("train", help="train on a dataset directory, write a checkpoint")
    tr.add_argument("--config", help="key = value config file")
    tr.add_argument("--data", required=True, help="dataset directory from gen-data")
    tr.add_argument("--out", required=True, help="checkpoint path to write")
    tr.add_argument("--log", help="training log path (default: <out>.log)")
    tr.add_argument("--seed", type=_seed)
    _add_set_flag(tr)

    inf = sub.add_parser("infer", help="write predicted label files for a split")
    _add_inference_flags(inf)
    inf.add_argument("--out", required=True, help="directory for predicted label files")

    ev = sub.add_parser("eval", help="compare prediction and ground-truth label directories")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--gt", required=True)

    chk = sub.add_parser("check", help="run the geometry/gradient/sampler/metric property suites")
    chk.add_argument("--seed", type=_seed, default=0)

    exp = sub.add_parser("export-embeddings", help="write ball coordinates + labels as CSV")
    _add_inference_flags(exp)
    exp.add_argument("--out", required=True, help="CSV path")
    return parser


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        num_tasks=args.tasks,
        actions_per_task=args.actions_per_task,
        shared_actions=args.shared_actions,
        feature_dim=args.feature_dim,
        frames_per_segment=tuple(args.frames),
        segments_per_video=tuple(args.segments),
        feature_noise=args.noise,
        smoothing_halfwidth=args.smoothing,
        videos=args.videos,
        seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    write_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.train)} train / {len(dataset.test)} test videos, "
        f"{dataset.num_classes} classes -> {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    dataset = read_dataset(args.data)
    if not dataset.train:
        raise FormatError(f"{split_path(args.data, 'train')}: holds no videos")
    log_path = args.log or (args.out + ".log")
    for path in (args.out, log_path):  # before training, which the writes follow
        prepare_output(path)
    state, log = train(dataset, config)
    save_checkpoint(state, args.out)
    atomic_write_bytes(Path(log_path), ("\n".join(log.format_lines()) + "\n").encode("utf-8"))
    final = log.records[-1]
    print(f"checkpoint -> {args.out}")
    print(f"log -> {log_path}")
    print(final.format_line())
    return 0


def _validate_steps(steps: int | None, timesteps: int) -> None:
    if steps is not None and not 1 <= steps <= timesteps:
        raise ConfigError(f"--steps must lie in [1, {timesteps}], got {steps}")


def _inference_inputs(args):
    """The checkpoint, the dataset and its chosen split, checked against each
    other before any inference runs."""
    state = load_checkpoint(args.ckpt)
    _validate_steps(args.steps, state.schedule.T)
    dataset = read_dataset(args.data)
    if dataset.num_classes != state.model.config.classes:
        raise FormatError(
            f"{Path(args.data) / 'mapping.txt'}: {dataset.num_classes} classes, but "
            f"{args.ckpt} was trained on {state.model.config.classes}"
        )
    records = dataset.train if args.split == "train" else dataset.test
    if not records:
        raise FormatError(f"{split_path(args.data, args.split)}: holds no videos")
    if dataset.feature_dim != state.model.config.feature_dim:
        raise FormatError(
            f"{feature_path(args.data, records[0].id)}: "
            f"{dataset.feature_dim} feature columns, but {args.ckpt} (param/enc.in.w) "
            f"expects {state.model.config.feature_dim}"
        )
    return state, dataset, records


def _infer_split(state, records: list, args) -> list:
    """One packed inference pass over a split; video i is seeded with
    seed * 100003 + i."""
    seeds = [args.seed * 100003 + i for i in range(len(records))]
    return infer_videos(state, [record.features for record in records], args.steps, seeds)


def _cmd_infer(args) -> int:
    state, dataset, records = _inference_inputs(args)
    out_dir = Path(args.out)
    for record, (labels, _, _) in zip(records, _infer_split(state, records, args)):
        write_labels(out_dir / f"{record.id}.txt", labels, dataset.class_names)
    print(f"wrote {len(records)} prediction files -> {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    # Predictions drive the comparison: every prediction file needs matching
    # ground truth; extra ground-truth files (e.g. the train split) are ignored.
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    pred_files = sorted(pred_dir.glob("*.txt"))
    if not pred_files:
        raise FormatError(f"{pred_dir}: no prediction label files")
    names: dict[str, int] = {}

    def load_names(path: Path) -> np.ndarray:
        out = []
        for line in read_utf8(path).splitlines():
            token = line.strip()
            if token:
                out.append(names.setdefault(token, len(names)))
        if not out:
            raise FormatError(f"{path}: empty label file")
        return np.asarray(out)

    pairs = []
    for pred_file in pred_files:
        gt_file = gt_dir / pred_file.name
        if not gt_file.exists():
            raise FormatError(f"{gt_file}: missing ground truth for {pred_file.name}")
        pred, gt = load_names(pred_file), load_names(gt_file)
        if pred.size != gt.size:
            raise FormatError(
                f"{pred_file}: {pred.size} labels, but ground truth {gt_file} has {gt.size}"
            )
        pairs.append((pred, gt))
    report = evaluate_videos(pairs)
    for key in ("F1@10", "F1@25", "F1@50", "Edit", "Acc", "Avg"):
        print(f"{key} = {report[key]:.4f}")
    return 0


def _cmd_check(args) -> int:
    results = checks.run_all(seed=args.seed)
    failed = 0
    for result in results:
        status = "ok" if result.passed else "FAIL"
        print(f"{status:4s} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def _cmd_export(args) -> int:
    state, dataset, records = _inference_inputs(args)
    dim = state.model.config.embed_dim
    lines = ["video,frame,pred_label,gt_label," + ",".join(f"x{k}" for k in range(dim))]
    for record, (labels, _, ball) in zip(records, _infer_split(state, records, args)):
        for frame in range(labels.shape[0]):
            coords = ",".join(f"{v:.10g}" for v in ball[frame])
            pred = dataset.class_names[int(labels[frame])]
            gt = dataset.class_names[int(record.labels[frame])]
            lines.append(f"{record.id},{frame},{pred},{gt},{coords}")
    atomic_write_bytes(Path(args.out), ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {len(lines) - 1} frames -> {args.out}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "check": _cmd_check,
    "export-embeddings": _cmd_export,
}


def run(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad flags; 0 for --help
        return 0 if (e.code or 0) == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except HyptasError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - the contract is exit code 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
