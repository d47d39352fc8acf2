"""Workload inputs and the three operations a benchmark run times.

Every run cycles through all three operations until its deadline: one
training run (`train`), per-video inference calls at 25 and at 1 sampler
step (`infer`, in two slices around the check), and the `hyptas check`
suites (`check`). Each end-to-end metric is taken from its own
operation's samples, and cycling spreads those samples over the whole run,
so a short change in the host's speed moves a median little. The workload
decides the data shape.

Video lengths are fixed (5 segments of equal length) so per-video latency
does not change with the seed; the seed changes labels, grammar and
features. Each operation checks its own outputs and counts one attempt per
training run, per inference call and per check suite. Each timed
operation is kept as a span (start, end, raw seconds). With a
`hostspeed.Sampler`, a chunk is timed before every video of an `infer`
slice and every 0.1 s during `train` and `check` (whose raw seconds leave
out the sampler's time); the chunks around a span scale it afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass

import numpy as np

import hyptas.cli
import hyptas.data
import hyptas.metrics
import hyptas.trainer
from catalog import CHECK_CHUNK_ROWS, CHUNK_ROWS

TRAIN_EPOCHS = 10        # default config otherwise: e1 = 4, eval every epoch
CHECKPOINT_EPOCHS = 2    # the set-up checkpoint: one epoch per phase
INFER_STEPS = (25, 1)
INFER_CALLS = 100        # per step count and run, so the p90 has 10 samples beyond it
PROB_TOLERANCE = 1e-9
CHECK_SUITES = 7         # `hyptas check` prints these plus a runtime line


@dataclass(frozen=True)
class Workload:
    name: str
    videos: int           # 80/20 train/test split
    segment_frames: int   # every video has 5 segments of this many frames
    train_epochs: int = TRAIN_EPOCHS
    infer_slice: int = 20   # inference calls per step count in one slice, 2 slices a cycle
    infer_calls: int = INFER_CALLS

    @property
    def min_cycles(self) -> int:
        return -(-self.infer_calls // (2 * self.infer_slice))

    def spec(self, seed: int) -> hyptas.data.SyntheticSpec:
        # The acceptance criterion 5 setup: C = 6, 32-d features, noise 0.8.
        return hyptas.data.SyntheticSpec(
            num_tasks=2, actions_per_task=2, shared_actions=2, feature_dim=32,
            feature_noise=0.8, smoothing_halfwidth=1, videos=self.videos,
            frames_per_segment=(self.segment_frames, self.segment_frames),
            segments_per_video=(5, 5), seed=seed,
        )


WORKLOADS = {
    w.name: w for w in (
        Workload("desk", videos=50, segment_frames=20),
        Workload("long", videos=5, segment_frames=200),
        # Tiny sizes for the harness self-test; not part of BENCHMARK.json.
        Workload("selftest", videos=5, segment_frames=4, train_epochs=2, infer_slice=1,
                 infer_calls=2),
    )
}


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def train_log_problems(log, config) -> list[str]:
    """Phase schedule and prototype freeze, read from the training log."""
    e1 = config.stabilization_epochs
    expected = ["stabilization"] * e1 + ["guidance"] * (config.epochs - e1)
    problems = []
    if log.phases() != expected:
        problems.append(f"phases {log.phases()} differ from the e1 = {e1} schedule")
    # The checksum at the end of epoch e1 - 1 is the frozen one.
    after_freeze = {r.prototype_checksum for r in log.records[max(e1 - 1, 0):]}
    if e1 < config.epochs and len(after_freeze) > 1:
        problems.append("prototype checksum moved after e1")
    return problems


def setup(workload: Workload, seed: int, workdir) -> tuple:
    """Generate the data, round-trip it through files, and train, save and load
    the checkpoint the inference operation uses."""
    dataset = hyptas.data.generate_synthetic(workload.spec(seed))
    hyptas.data.write_dataset(dataset, workdir / "data")
    loaded = hyptas.data.read_dataset(workdir / "data")
    problems = []
    same = [a.features.tobytes() == b.features.tobytes() and np.array_equal(a.labels, b.labels)
            for a, b in zip(dataset.train + dataset.test, loaded.train + loaded.test)]
    if not all(same) or len(same) != workload.videos:
        problems.append("dataset files do not reproduce the generated videos")
    config = hyptas.data.RunConfig(epochs=CHECKPOINT_EPOCHS, seed=seed)
    state, log = hyptas.trainer.train(loaded, config)
    problems += train_log_problems(log, config)
    path = workdir / "checkpoint.htck"
    hyptas.trainer.save_checkpoint(state, path)
    state = hyptas.trainer.load_checkpoint(path)
    return loaded, state, {"checkpoint_sha256": sha256_file(path), "problems": problems}


class Session:
    """Runs the operations of one workload, checks their outputs, and keeps
    the samples and failure counts of a run."""

    def __init__(self, workload: Workload, seed: int, dataset, state, workdir, sampler=None):
        self.workload = workload
        self.sampler = sampler
        self.rows = CHUNK_ROWS[workload.name]
        self.seed = seed
        self.dataset = dataset
        self.state = state
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.train_frames = workload.train_epochs * sum(v.labels.shape[0] for v in dataset.train)
        self.train_spans: list[tuple[float, float, float]] = []
        self.train_quality: dict | None = None
        self.checkpoint_digest: str | None = None
        self.call_spans = {s: [] for s in INFER_STEPS}
        # Per slice and step count: (frames, spans of its calls).
        self.slices: dict[int, list[tuple[int, list]]] = {s: [] for s in INFER_STEPS}
        self.quality: dict[int, dict] = {}
        self.next_video = 0
        self.first_labels: dict[int, dict[int, np.ndarray]] = {s: {} for s in INFER_STEPS}
        self.predictions: dict[tuple[int, int], str] = {}
        self.pred_segments: list[int] = []
        self.check_spans: list[tuple[float, float, float]] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def _during(self, rows: int):
        """The sampler's interval timer, on chunks of `rows` rows."""
        return contextlib.nullcontext() if self.sampler is None else self.sampler.during(rows)

    def _start(self) -> tuple[float, float]:
        overhead = 0.0 if self.sampler is None else self.sampler.overhead_s
        return time.perf_counter(), overhead

    def _span(self, start: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, raw seconds without the sampler's time)."""
        t1 = time.perf_counter()
        t0, overhead = start
        if self.sampler is not None:
            overhead = self.sampler.overhead_s - overhead
        return t0, t1, t1 - t0 - overhead

    def cycle(self) -> None:
        self.train_op()
        self.infer_slice()
        self.check_op()
        self.infer_slice()

    def train_op(self) -> None:
        config = hyptas.data.RunConfig(epochs=self.workload.train_epochs, seed=self.seed)
        path = self.workdir / "trained.htck"
        self.attempted += 1
        try:
            with self._during(self.rows):
                start = self._start()
                state, log = hyptas.trainer.train(self.dataset, config)
                span = self._span(start)
            hyptas.trainer.save_checkpoint(state, path)
        except Exception as e:  # noqa: BLE001 - any exception fails this operation only
            self._fail(f"train: {type(e).__name__}: {e}")
            return
        problems = train_log_problems(log, config)
        digest = sha256_file(path)
        if self.checkpoint_digest is None:
            self.checkpoint_digest = digest
        elif digest != self.checkpoint_digest:
            problems.append("checkpoint differs from an earlier run with the same config and seed")
        if problems:
            self._fail("train: " + "; ".join(problems))
            return
        self.train_spans.append(span)
        self.train_quality = log.records[-1].metrics

    def infer_slice(self) -> None:
        """`infer_slice` videos, continuing round the test split, each at every
        step count in turn, so both step counts sample the same stretch of time."""
        calls = {s: [] for s in INFER_STEPS}
        for _ in range(self.workload.infer_slice):
            i = self.next_video
            self.next_video = (i + 1) % len(self.dataset.test)
            if self.sampler is not None:
                self.sampler.sample(self.rows)
            for steps in INFER_STEPS:
                call = self._infer_call(i, steps)
                if call is not None:
                    calls[steps].append(call)
        for steps, done in calls.items():
            self.call_spans[steps] += [span for span, _ in done]
            if done:
                self.slices[steps].append((sum(n for _, n in done), [span for span, _ in done]))

    def _infer_call(self, i: int, steps: int) -> tuple[tuple, int] | None:
        """One checked call; its span and frame count, or None if it failed."""
        video = self.dataset.test[i]
        self.attempted += 1
        try:
            start = self._start()
            labels, probs, _ = hyptas.trainer.infer_video(
                self.state, video.features, steps, seed=self.seed * 1000 + i)
            span = self._span(start)
        except Exception as e:  # noqa: BLE001 - fails this call only
            self._fail(f"infer: {type(e).__name__}: {e}")
            return None
        problem = self._prediction_problem(i, steps, labels, probs, self.dataset.num_classes)
        if problem:
            self._fail(f"infer {video.id} at {steps} steps: {problem}")
            return None
        self.pred_segments.append(1 + int(np.count_nonzero(np.diff(labels))))
        self.first_labels[steps].setdefault(i, labels)
        return span, labels.shape[0]

    def evaluate(self) -> None:
        """Quality of the first prediction of every test video (information only)."""
        for steps, first in self.first_labels.items():
            pairs = [(labels, self.dataset.test[i].labels) for i, labels in sorted(first.items())]
            if pairs:
                self.quality[steps] = hyptas.metrics.evaluate_videos(pairs)

    def _prediction_problem(self, i, steps, labels, probs, classes) -> str | None:
        if labels.shape != (probs.shape[0],) or probs.shape[1] != classes:
            return f"shapes {labels.shape} / {probs.shape}"
        if not np.all(np.isfinite(probs)):
            return "non-finite probabilities"
        worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if worst > PROB_TOLERANCE:
            return f"probability rows sum to 1 only within {worst:.3g}"
        if labels.min() < 0 or labels.max() >= classes:
            return "labels out of range"
        digest = hashlib.sha256(labels.tobytes() + probs.tobytes()).hexdigest()
        if self.predictions.setdefault((i, steps), digest) != digest:
            return "prediction differs from an earlier call with the same seed"
        return None

    def check_op(self) -> None:
        out = io.StringIO()
        with self._during(CHECK_CHUNK_ROWS), contextlib.redirect_stdout(out):
            start = self._start()
            code = hyptas.cli.run(["check"])
            span = self._span(start)
        lines = [line for line in out.getvalue().splitlines()
                 if line[:4] in ("ok  ", "FAIL") and not line[5:].startswith("runtime")]
        self.attempted += CHECK_SUITES
        failed = [line for line in lines if line.startswith("FAIL")]
        for line in failed:
            self._fail(f"check: {line}")
        missing = CHECK_SUITES - len(lines)
        if code != 0 and not failed:
            missing = CHECK_SUITES
        for _ in range(max(missing, 0)):
            self._fail(f"check: exit code {code}, {len(lines)} suite lines")
        if code == 0 and not failed and missing == 0:
            self.check_spans.append(span)

    def prediction_digest(self) -> str:
        return hashlib.sha256(
            "".join(f"{k}:{v}" for k, v in sorted(self.predictions.items())).encode()
        ).hexdigest()
