"""hyptas benchmark launcher.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Every run starts fresh worker processes
with BLAS and OpenMP pinned to one thread and `src/` as the only package
path. With `--trace 0` it times the set-up `SETUP_REPEATS` times, each in a
fresh process, runs the workload for `--seconds` in one more fresh process
between them, and prints every end-to-end metric, its times scaled to a
reference host speed (`hostspeed.py`; the raw values are printed too).
With `--trace 1` it runs the
set-up plus one cycle of the workload twice, untraced and traced, each
in a fresh process, checks that both produce the same checkpoint and
prediction bytes, and prints every per-layer metric. The last line of
standard output is the JSON result; the lines before it give provenance,
each metric with its unit, and the model quality (information, not gated).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalog import CLAIM_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_BEFORE = 3  # of SETUP_REPEATS; the rest run after the measuring process
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = list(WORKLOAD_WHY) + ["selftest"]


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_worker(args: list, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; its report and its wall time."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left to start worker {args[0]}")
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args[0]} ran past the time limit") from e
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1]), wall


def measured_run(workload: str, seed: int, seconds: float, tmp: Path, deadline: float) -> dict:
    attempted = failed = 0
    problems: list[str] = []
    walls, scaled, digests = [], [], []

    def setup(k: int) -> None:
        nonlocal attempted, failed
        report, wall = _run_worker(["setup", workload, seed, tmp / f"setup{k}"], deadline)
        # The process's wall time without its host-speed chunks, scaled by them.
        walls.append(wall - report["chunks_s"])
        scaled.append(walls[-1] * report["scale"])
        digests.append(report["checkpoint_sha256"])
        attempted += 1
        if digests[-1] != digests[0]:
            report["problems"].append("set-up checkpoint differs between fresh processes")
        if report["problems"]:
            failed += 1
            problems.extend(report["problems"])

    # Set-up samples on both sides of the measuring process sample the
    # host's speed over the whole run, not one moment of it.
    for k in range(SETUP_BEFORE):
        setup(k)
    report, _ = _run_worker(["measure", workload, seed, tmp / "setup0", seconds], deadline)
    for k in range(SETUP_BEFORE, SETUP_REPEATS):
        setup(k)
    attempted += report["attempted"]
    failed += report["failed"]
    problems += report["problems"]
    metrics = dict(report["metrics"])
    metrics["setup_s"] = statistics.median(scaled)
    metrics["op_success_ratio"] = (attempted - failed) / attempted
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "catalog": END_TO_END,
        "info": {"quality": report["quality"], "samples": report["samples"],
                 "raw_metrics": {**report["raw_metrics"], "setup_s": statistics.median(walls)},
                 "setup_s_samples": walls},
    }


def traced_run(workload: str, seed: int, tmp: Path, deadline: float) -> dict:
    plain, _ = _run_worker(["pass", workload, seed, tmp / "untraced", 0], deadline)
    traced, _ = _run_worker(["pass", workload, seed, tmp / "traced", 1], deadline)
    problems = plain["problems"] + traced["problems"]
    for key in ("setup_checkpoint_sha256", "checkpoint_sha256", "prediction_sha256"):
        if plain[key] != traced[key]:
            problems.append(f"traced run changed {key}")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems, "metrics": metrics, "catalog": PER_LAYER,
        "info": {"quality": traced["quality"], "untraced_wall_s": plain["wall_s"],
                 "traced_wall_s": traced["wall_s"]},
    }


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=CLAIM_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "hyptas" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'hyptas'} not found; run from a hyptas checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, tmp, deadline)
        else:
            result = measured_run(args.workload, args.seed, args.seconds, tmp, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics = {}
    correct = result["failed"] == 0 and not result["problems"]
    for name, unit, *_ in result["catalog"]:
        value = result["metrics"].get(name)
        if value is None:
            correct = False
            result["problems"].append(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    print("provenance: " + json.dumps(provenance()))
    print("info: " + json.dumps(result["info"]))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
