"""One fresh benchmark process; `run.py` starts it and reads the JSON object it
prints as its last line.

    worker.py setup   <workload> <seed> <workdir>
    worker.py measure <workload> <seed> <workdir> <seconds>
    worker.py pass    <workload> <seed> <workdir> <traced 0|1>

`setup` builds the inputs of a run in `workdir` (its wall time, measured by
the caller, is one sample of `setup_s`). `measure` loads them and cycles
through the workload's operations for `seconds`, and for at least
`min_cycles` cycles. `pass` does the set-up and one cycle in one process,
with or without tracing, for the per-layer numbers.
"""

from __future__ import annotations

import json
import logging
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _percentile_ms(samples, q) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e3 if samples else 0.0


def _session_report(session) -> dict:
    return {
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "checkpoint_sha256": session.checkpoint_digest,
        "prediction_sha256": session.prediction_digest(),
        "quality": {
            "train_final": session.train_quality,
            **{f"infer_s{s}": q for s, q in session.quality.items()},
        },
    }


def timing_metrics(session, scaled: bool) -> dict:
    """The timed end-to-end metrics of a session, from its spans scaled to the
    reference host speed by the session's sampler (`hostspeed`), or raw."""
    from catalog import CHECK_CHUNK_ROWS
    from workloads import INFER_STEPS

    def times(spans, rows):
        if not scaled:
            return [raw for _, _, raw in spans]
        return [raw * session.sampler.factor(rows, t0, t1) for t0, t1, raw in spans]

    metrics = {}
    train = times(session.train_spans, session.rows)
    if train:
        metrics["train_frames_per_s"] = session.train_frames / statistics.median(train)
    for steps in INFER_STEPS:
        lat = times(session.call_spans[steps], session.rows)
        if lat:
            metrics[f"infer_s{steps}_frames_per_s"] = statistics.median(
                frames / sum(times(spans, session.rows)) for frames, spans in session.slices[steps])
            metrics[f"infer_s{steps}_video_ms_p50"] = _percentile_ms(lat, 50)
            metrics[f"infer_s{steps}_video_ms_p90"] = _percentile_ms(lat, 90)
    check = times(session.check_spans, CHECK_CHUNK_ROWS)
    if check:
        metrics["check_s"] = statistics.median(check)
    return metrics


def cmd_setup(workload, seed, workdir) -> dict:
    import hostspeed
    from catalog import CHUNK_ROWS
    from workloads import setup

    rows = CHUNK_ROWS[workload.name]
    sampler = hostspeed.Sampler()
    with sampler.during(rows):
        _, _, report = setup(workload, seed, workdir)
    while sampler.count() < hostspeed.MIN_CHUNKS:
        sampler.sample(rows)
    report["chunks_s"] = sampler.overhead_s
    report["scale"] = sampler.factor(rows, 0.0, math.inf)
    return report


def cmd_measure(workload, seed, workdir, seconds) -> dict:
    import hostspeed
    import hyptas.data
    import hyptas.trainer
    from catalog import CHECK_CHUNK_ROWS
    from workloads import INFER_STEPS, Session

    dataset = hyptas.data.read_dataset(workdir / "data")
    state = hyptas.trainer.load_checkpoint(workdir / "checkpoint.htck")
    sampler = hostspeed.Sampler()
    session = Session(workload, seed, dataset, state, workdir, sampler)
    cycles = 0
    t0 = time.perf_counter()
    while cycles < workload.min_cycles or time.perf_counter() < t0 + seconds:
        session.cycle()
        cycles += 1
    wall = time.perf_counter() - t0
    session.evaluate()

    metrics = timing_metrics(session, scaled=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = _session_report(session)
    report["metrics"] = metrics
    report["raw_metrics"] = timing_metrics(session, scaled=False)
    report["samples"] = {
        "cycles": cycles,
        "train_runs": len(session.train_spans),
        "check_runs": len(session.check_spans),
        **{f"infer_s{s}_calls": len(session.call_spans[s]) for s in INFER_STEPS},
        "chunks": sampler.count(),
        "sampler_share": sampler.overhead_s / wall,
        "train_factors": [sampler.factor(session.rows, t0, t1)
                          for t0, t1, _ in session.train_spans],
        "check_factors": [sampler.factor(CHECK_CHUNK_ROWS, t0, t1)
                          for t0, t1, _ in session.check_spans],
    }
    return report


def cmd_pass(workload, seed, workdir, traced) -> dict:
    from workloads import Session, setup

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    dataset, state, setup_report = setup(workload, seed, workdir)
    session = Session(workload, seed, dataset, state, workdir)
    session.cycle()
    session.evaluate()
    wall = time.perf_counter() - t0
    report = _session_report(session)
    report["problems"] = setup_report["problems"] + report["problems"]
    report["setup_checkpoint_sha256"] = setup_report["checkpoint_sha256"]
    report["wall_s"] = wall
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(wall, session.pred_segments)
    return report


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    logging.basicConfig(level=logging.WARNING)
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    if mode == "setup":
        report = cmd_setup(workload, seed, workdir)
    elif mode == "measure":
        report = cmd_measure(workload, seed, workdir, float(argv[4]))
    elif mode == "pass":
        report = cmd_pass(workload, seed, workdir, argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
