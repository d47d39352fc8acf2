"""Host-speed calibration: a fixed chunk of work, independent of hyptas, timed
all through a run so that operation times can be scaled to a reference host
speed.

On a shared host the speed of one core drifts by up to half for seconds to
minutes at a time, and a run's medians cannot remove drift that outlasts the
run. The chunk is a small reverse-mode tape on `rows` x 32 numpy arrays plus
interpreter work, the same mix as the hyptas autodiff layer. How much a
slow spell slows numpy depends on the array size, so an operation is scaled
by the chunk on arrays of its own size: over 3-second windows, the 100-row
chunk tracked `infer_video` on 100-frame videos and the 1000-row chunk on
1000-frame videos with a slope of 1.04-1.12 in log time, while the raw
times moved by up to 1.8x. A scaled time is

    raw_s * CHUNK_REF_S[rows] / median(chunk times during the operation)

so it reads as the time the operation would take on a host where the chunk
takes `CHUNK_REF_S[rows]`. Each timed chunk follows an untimed pass over the
same arrays with the garbage collector off, so its time does not depend on
what hyptas left in the caches or on the heap; a change to hyptas moves
scaled times by the same ratio as raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import gc
import signal
import statistics
import time

import numpy as np

# Median chunk time per array length on the host the benchmark was tuned on
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread). Only a unit:
# any constant gives the same ratios between commits.
CHUNK_REF_S = {100: 0.0016, 1000: 0.0025}
TAPE_PASSES = {100: 4, 1000: 1}
PERIOD_S = 0.1        # a Sampler times one chunk this often during a long operation
MIN_CHUNKS = 10       # an operation's factor comes from at least this many


@functools.cache
def _inputs(rows: int):
    rng = np.random.default_rng(0)
    return rng.standard_normal((rows, 32)), [rng.standard_normal((32, 32)) * 0.2 for _ in range(4)]


class _Node:
    __slots__ = ("value", "parents", "grad_fn")

    def __init__(self, value, parents, grad_fn):
        self.value, self.parents, self.grad_fn = value, parents, grad_fn


def _tape_pass(x0, weights) -> None:
    tape = [x := _Node(x0, (), None)]
    for w in weights:
        h = _Node(x.value @ w, (x,), lambda g, w=w: (g @ w.T,))
        r = _Node(np.maximum(h.value, 0.0), (h,), lambda g, m=h.value > 0: (g * m,))
        pad = np.concatenate([r.value[:1], r.value, r.value[-1:]])
        c = _Node(pad[:-2] + pad[1:-1] + pad[2:], (r,), lambda g: (g * 3.0,))
        n = np.sqrt((c.value ** 2).sum(axis=1, keepdims=True)) + 1.0
        x = _Node(c.value / n, (c,), lambda g, n=n: (g / n,))
        tape += [h, r, c, x]
    e = np.exp(x.value - x.value.max(axis=1, keepdims=True))
    grads = {id(x): e / e.sum(axis=1, keepdims=True) - 1.0 / 32}
    for node in reversed(tape):
        g = grads.pop(id(node), None)
        if g is None or node.grad_fn is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            grads[id(parent)] = grads.get(id(parent), 0.0) + pg


def _interpreter_pass() -> None:
    counts: dict[int, int] = {}
    for i in range(60):
        for j in range(40):
            counts[j] = counts.get(j, 0) + i * j


def chunk_s(rows: int) -> float:
    """Wall time of one calibration chunk on `rows` x 32 arrays."""
    x0, weights = _inputs(rows)
    collecting = gc.isenabled()
    gc.disable()  # the chunk makes no reference cycles
    try:
        _tape_pass(x0, weights)
        t0 = time.perf_counter()
        for _ in range(TAPE_PASSES[rows]):
            _tape_pass(x0, weights)
        _interpreter_pass()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def scale(rows: int, chunks: list[float]) -> float:
    """Factor that turns a raw time measured among `chunks` into a scaled one."""
    return CHUNK_REF_S[rows] / statistics.median(chunks)


class Sampler:
    """Chunk times of a run on one timeline: timed between short operations
    (`sample`), and every `PERIOD_S` seconds during a long one (`during`,
    from a SIGALRM interval timer, between the bytecodes of whatever runs).

    `overhead_s` is the total time spent timing chunks; an operation timed
    inside `during` subtracts what it grew by.
    """

    def __init__(self):
        self.overhead_s = 0.0
        self._times: dict[int, list[float]] = {}
        self._chunks: dict[int, list[float]] = {}

    def sample(self, rows: int) -> None:
        t0 = time.perf_counter()
        self._times.setdefault(rows, []).append(t0)
        self._chunks.setdefault(rows, []).append(chunk_s(rows))
        self.overhead_s += time.perf_counter() - t0

    def count(self) -> int:
        return sum(len(c) for c in self._chunks.values())

    @contextlib.contextmanager
    def during(self, rows: int):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample(rows))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, rows: int, t0: float, t1: float) -> float:
        """Scale factor for an operation that ran from `t0` to `t1`: from the
        `rows` chunks timed in that interval, or, if there are fewer than
        `MIN_CHUNKS`, from the `MIN_CHUNKS` nearest to it."""
        times, chunks = self._times[rows], self._chunks[rows]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < min(MIN_CHUNKS, len(times)):
            if lo > 0 and (hi == len(times) or t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return scale(rows, chunks[lo:hi])
