"""Every workload and metric the benchmark reports: name, unit, direction,
and for the end-to-end metrics the regression bound.

`BENCHMARK.json` at the repository root is rendered from this module
(`benchmark_json()`); the harness self-test asserts the two agree.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 45

# Seed a claim is written against (the default); re-check it on seed 2.
CLAIM_SEED = 1

WORKLOAD_WHY = {
    "desk": "40 train / 10 test videos of 100 frames: cost per tape node dominates train, "
            "infer and check; the workload for packed videos, non-recording and fused ops",
    "long": "4 train / 1 test videos of 1000 frames: numpy arithmetic dominates each node; "
            "node-count cuts should gain little here, an im2col conv1d shows",
}

# Array length of the host-speed chunk (`hostspeed.py`) that scales each
# workload's `train` and `infer` times and its set-up: its video length.
# `check` always uses 100 rows, the size of the arrays the check suites use.
CHUNK_ROWS = {"desk": 100, "long": 1000, "selftest": 100}
CHECK_CHUNK_ROWS = 100

# (name, unit, better, bound). The host this was tuned on changes speed by
# up to a third for seconds to minutes at a time, so timing bounds are wide.
END_TO_END = [
    ("train_frames_per_s", "frames/s", "higher", 0.25),
    ("infer_s25_frames_per_s", "frames/s", "higher", 0.25),
    ("infer_s25_video_ms_p50", "ms", "lower", 0.25),
    ("infer_s25_video_ms_p90", "ms", "lower", 0.25),
    ("infer_s1_frames_per_s", "frames/s", "higher", 0.25),
    ("infer_s1_video_ms_p50", "ms", "lower", 0.25),
    ("infer_s1_video_ms_p90", "ms", "lower", 0.25),
    ("check_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("op_success_ratio", "ratio", "higher", 0.001),
]

OP_KINDS = ("conv1d", "add", "mul", "relu", "matmul", "softmax", "row_norm",
            "rows_dot", "clamp", "scale_rows", "concat_cols", "other")
LOSS_KINDS = {
    "ce": "cross_entropy",
    "entail": "temporal_entailment",
    "margin": "prototype_margin",
    "pp": "push_pull",
    "gg": "geodesic_guidance",
}
CHECK_SUITES = ("geometry_roundtrip", "geometry_metric_axioms", "geometry_radial_additivity",
                "geometry_cone_axis", "gradient_composites", "sampler_oracle_recovery",
                "metrics_reference_agreement")

def _per_layer():
    ms = [f"data.{name}_ms" for name in ("generate", "write_dataset", "read_dataset",
                                         "checkpoint_write", "checkpoint_read")]
    rows = [(name, "ms", "lower") for name in ms]
    rows += [
        ("model.bind_us", "us", "lower"),
        ("model.bind_calls", "count", "lower"),
        ("model.encode_ms", "ms", "lower"),
        ("model.decode_ms", "ms", "lower"),
        ("model.decode_calls", "count", "lower"),
        ("model.apply_masking_us", "us", "lower"),
        ("diffusion.sample_self_ms", "ms", "lower"),
        ("diffusion.denoiser_calls", "count", "lower"),
        ("diffusion.forward_corrupt_us", "us", "lower"),
        ("autodiff.nodes_per_train_step", "count", "lower"),
        ("autodiff.backward_self_ms", "ms", "lower"),
        ("autodiff.backward_useful_ratio", "ratio", "higher"),
        ("autodiff.nodes_per_denoiser_call", "count", "lower"),
        ("autodiff.const_nodes", "count", "lower"),
        ("autodiff.finite_diff_evals", "count", "lower"),
    ]
    for kind in OP_KINDS:
        rows += [(f"autodiff.op.{kind}.nodes", "count", "lower"),
                 (f"autodiff.op.{kind}.fwd_us", "us", "lower"),
                 (f"autodiff.op.{kind}.bwd_us", "us", "lower")]
    rows.append(("ballops.exp_map_origin_us", "us", "lower"))
    for kind in LOSS_KINDS:
        rows += [(f"losses.{kind}.fwd_us", "us", "lower"), (f"losses.{kind}.nodes", "count", "lower")]
    rows += [
        ("optim.adam_step_us", "us", "lower"),
        ("optim.radam_step_us", "us", "lower"),
        ("optim.steps", "count", "lower"),
        ("trainer.step_ms_p50", "ms", "lower"),
        ("trainer.self_ms", "ms", "lower"),
        ("trainer.eval_share", "ratio", "lower"),
        ("metrics.evaluate_ms", "ms", "lower"),
        ("metrics.segments_us", "us", "lower"),
        ("metrics.pred_segments_per_video", "count", "lower"),
    ]
    rows += [(f"checks.{suite}_s", "s", "lower") for suite in CHECK_SUITES]
    rows += [("trace.overhead_ratio", "ratio", "lower"), ("trace.coverage", "ratio", "higher")]
    return rows


# (name, unit, better); README.md maps each to the end-to-end metric it should move.
PER_LAYER = _per_layer()


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    print(benchmark_json(), end="")
