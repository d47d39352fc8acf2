"""Harness self-test at tiny sizes (about half a minute):

    python3 -m pytest perfbench -q

It runs the launcher on the `selftest` workload, untraced and traced, and
checks that every metric of the catalog is printed with its unit, that the
traced pass reproduces the untraced checkpoint and prediction bytes, and
that `BENCHMARK.json` is the catalog's rendering. It also checks which
host-speed chunks scale an operation.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import hostspeed  # noqa: E402


def _run(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "selftest", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_catalog(result: dict, expected) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [row[0] for row in expected]
    for name, unit, *_ in expected:
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_benchmark_json_is_the_catalog():
    assert (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8") == catalog.benchmark_json()


def test_untraced_run_prints_every_end_to_end_metric():
    lines, result = _run(trace=0)
    _assert_catalog(result, catalog.END_TO_END)
    assert all(result["metrics"][name]["value"] > 0 for name, *_ in catalog.END_TO_END)
    provenance = json.loads(next(x for x in lines if x.startswith("provenance: "))[12:])
    assert {"python", "numpy", "blas", "nproc", "cpu", "src_lines"} <= set(provenance)


def test_traced_run_is_transparent_and_prints_every_layer_metric():
    lines, result = _run(trace=1)
    # correct is false unless the traced pass reproduced the untraced
    # checkpoint and prediction bytes.
    _assert_catalog(result, catalog.PER_LAYER)
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert coverage == pytest.approx(1.0, abs=0.05)
    assert not any(line.startswith("problem: ") for line in lines)


def test_sampler_scales_by_the_chunks_around_an_operation():
    sampler = hostspeed.Sampler()
    sampler._times[100] = [float(t) for t in range(20)]
    sampler._chunks[100] = [0.001] * 10 + [0.004] * 10
    ref = hostspeed.CHUNK_REF_S[100]
    # Chunks timed during a long operation.
    assert sampler.factor(100, 9.5, 19.0) == pytest.approx(ref / 0.004)
    # A short operation takes the MIN_CHUNKS nearest chunks.
    assert sampler.factor(100, 2.5, 2.6) == pytest.approx(ref / 0.001)
    assert sampler.factor(100, 19.5, 19.6) == pytest.approx(ref / 0.004)
