"""Tracing for the traced benchmark pass, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules (and
the handful of methods listed in `METHODS`) with a wrapper that records a
span. Names bound with `from .x import f` are patched in every `hyptas`
module namespace that holds them, and `autodiff` ops are patched in the
module dict, so nested op calls (`sub` -> `add`) open spans of their own.
Node creation and the gradient closures that `Tape.backward` runs are
counted and timed per op kind through `Tape._register`.

Spans are aggregated in memory as they close and are only read out when the
pass has ended. Times are self times: a span's duration minus its child
spans. A layer's time for one call additionally includes the self time of
same-module spans it called (its helpers), so `data.write_dataset` includes
`data.write_features`; autodiff ops are the exception and are reported one
op at a time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

from catalog import CHECK_SUITES, LOSS_KINDS, OP_KINDS

LAYERS = ("data", "model", "diffusion", "autodiff", "ballops", "losses", "optim",
          "trainer", "metrics", "checks")
METHODS = (
    ("autodiff", "Tape", "backward"),
    ("model", "Denoiser", "bind"),
    ("model", "BoundDenoiser", "encode"),
    ("model", "BoundDenoiser", "decode"),
    ("optim", "Adam", "step"),
    ("optim", "RiemannianAdam", "step"),
)
TRAIN = "trainer.train"

# Frame fields: layer, time in child spans, layer self time of same-layer
# children, key, and for tape ops the op's row in `Tracer.ops`.
_LAYER, _CHILD, _INLAYER, _KEY, _OP = range(5)
# Stats fields: calls, self seconds, layer self seconds, total seconds, nodes created inside.
_CALLS, _SELF, _LAYER_SELF, _TOTAL, _NODES = range(5)
# Op row fields: calls, forward self seconds, nodes, gradient closures run, their seconds.
_OP_CALLS, _OP_SELF, _OP_NODES, _PUSH_CALLS, _PUSH_S = range(5)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.ops: dict[str, list] = {"autodiff.?": [0, 0.0, 0, 0, 0.0]}
        self.nodes = 0
        self.const_nodes = 0
        self.pushes = 0
        self.train_step_nodes: list[int] = []
        self.train_step_pushes = 0
        self.train_step_s: list[float] = []
        self.step_start: float | None = None
        self.finite_diff_evals = 0

    # -- wrappers ---------------------------------------------------------

    def span(self, layer: str, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0.0, 0])
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0, 0.0, key, None]
            parent = stack[-1] if stack else None
            stack.append(frame)
            nodes = tracer.nodes
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[_CHILD]
                stats[_CALLS] += 1
                stats[_SELF] += own
                stats[_LAYER_SELF] += own + frame[_INLAYER]
                stats[_TOTAL] += dt
                stats[_NODES] += tracer.nodes - nodes
                if parent is not None:
                    parent[_CHILD] += dt
                    if parent[_LAYER] == layer and layer != "autodiff":
                        parent[_INLAYER] += own + frame[_INLAYER]
                    edges[(parent[_KEY], key)] += dt

        return wrapper

    def in_train(self) -> bool:
        return any(frame[_KEY] == TRAIN for frame in self.stack)

    def install(self) -> None:
        """Patch the loaded `hyptas` modules in place; there is no uninstall."""
        import hyptas.cli  # noqa: F401 - loads every layer module

        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"hyptas.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                replaced[id(fn)] = self._wrap_function(layer, name, fn)
        for module in [m for n, m in sys.modules.items() if n.startswith("hyptas")]:
            for name, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(module, name, replaced[id(value)])

        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"hyptas.{layer}"], cls_name)
            wrapped = self.span(layer, f"{layer}.{cls_name}.{method}", getattr(cls, method))
            if (cls_name, method) == ("Tape", "backward"):
                wrapped = self._backward_hook(wrapped)
            elif (cls_name, method) == ("Denoiser", "bind"):
                wrapped = self._bind_hook(wrapped)
            setattr(cls, method, wrapped)
        self._count_nodes(sys.modules["hyptas.autodiff"].Tape)

    def _wrap_function(self, layer, name, fn):
        key = f"{layer}.{name}"
        if key == "diffusion.sample":
            # The denoiser closure of `infer_video` is a span of its own.
            denoiser_span = functools.partial(self.span, "denoiser", "diffusion.denoiser")

            def sample(denoiser, *args, **kwargs):
                return fn(denoiser_span(denoiser), *args, **kwargs)

            return self.span(layer, key, functools.wraps(fn)(sample))
        if key == "autodiff.finite_diff_check":
            def finite_diff_check(f, *args, **kwargs):
                def counted(*a, **k):
                    self.finite_diff_evals += 1
                    return f(*a, **k)
                return fn(counted, *args, **kwargs)

            return self.span(layer, key, functools.wraps(fn)(finite_diff_check))
        if layer == "autodiff":
            return self._op_span(key, fn)
        return self.span(layer, key, fn)

    def _op_span(self, key: str, fn):
        """`span` cut down for tape ops, the most frequent calls: the op's
        counters live in one row of `ops`, and no edges are kept."""
        row = self.ops.setdefault(key, [0, 0.0, 0, 0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = ["autodiff", 0.0, 0.0, key, row]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                row[_OP_CALLS] += 1
                row[_OP_SELF] += dt - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += dt

        return wrapper

    def _backward_hook(self, backward):
        def hooked(tape, output):
            if not self.in_train():
                return backward(tape, output)
            pushes = self.pushes
            nodes = len(tape.nodes)
            try:
                return backward(tape, output)
            finally:
                self.train_step_nodes.append(nodes)
                self.train_step_pushes += self.pushes - pushes
                if self.step_start is not None:
                    self.train_step_s.append(time.perf_counter() - self.step_start)
                    self.step_start = None

        return functools.wraps(backward)(hooked)

    def _bind_hook(self, bind):
        def hooked(model, tape, trainable=True):
            if trainable and self.in_train():
                self.step_start = time.perf_counter()
            return bind(model, tape, trainable=trainable)

        return functools.wraps(bind)(hooked)

    def _count_nodes(self, tape_cls) -> None:
        register, leaf, const = tape_cls._register, tape_cls.leaf, tape_cls.const
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        unknown = self.ops["autodiff.?"]

        def counted_register(tape, value, parents, push):
            node = register(tape, value, parents, push)
            row = (stack[-1][_OP] if stack else None) or unknown
            row[_OP_NODES] += 1
            tracer.nodes += 1

            def timed_push(g):
                t0 = clock()
                push(g)
                dt = clock() - t0
                row[_PUSH_CALLS] += 1
                row[_PUSH_S] += dt
                tracer.pushes += 1
                stack[-1][_CHILD] += dt  # Tape.backward's frame

            node._push = timed_push
            return node

        def counted_leaf(tape, *args, **kwargs):
            tracer.nodes += 1
            return leaf(tape, *args, **kwargs)

        def counted_const(tape, *args, **kwargs):
            tracer.nodes += 1
            tracer.const_nodes += 1
            return const(tape, *args, **kwargs)

        tape_cls._register = counted_register
        tape_cls.leaf = functools.wraps(leaf)(counted_leaf)
        tape_cls.const = functools.wraps(const)(counted_const)

    # -- read-out ---------------------------------------------------------

    def span_seconds(self) -> float:
        """Self time of every span plus every timed gradient closure."""
        return (sum(s[_SELF] for s in self.stats.values())
                + sum(r[_OP_SELF] + r[_PUSH_S] for r in self.ops.values()))

    def _per_call(self, key: str, field: int, scale: float) -> float:
        s = self.stats.get(key)
        return s[field] / s[_CALLS] * scale if s and s[_CALLS] else 0.0

    def _calls(self, key: str) -> int:
        s = self.stats.get(key)
        return s[_CALLS] if s else 0

    def layer_metrics(self, wall_s: float, pred_segments: list[int]) -> dict[str, float]:
        """Every per-layer metric except `trace.overhead_ratio`, which needs the
        untraced pass."""
        ms, us = 1e3, 1e6

        def layer(key, scale):
            return self._per_call(key, _LAYER_SELF, scale)

        m = {
            "data.generate_ms": layer("data.generate_synthetic", ms),
            "data.write_dataset_ms": layer("data.write_dataset", ms),
            "data.read_dataset_ms": layer("data.read_dataset", ms),
            "data.checkpoint_write_ms": layer("data.write_checkpoint", ms),
            "data.checkpoint_read_ms": layer("data.read_checkpoint", ms),
            "model.bind_us": layer("model.Denoiser.bind", us),
            "model.bind_calls": self._calls("model.Denoiser.bind"),
            "model.encode_ms": layer("model.BoundDenoiser.encode", ms),
            "model.decode_ms": layer("model.BoundDenoiser.decode", ms),
            "model.decode_calls": self._calls("model.BoundDenoiser.decode"),
            "model.apply_masking_us": layer("model.apply_masking", us),
            "diffusion.sample_self_ms": layer("diffusion.sample", ms),
            "diffusion.denoiser_calls": self._calls("diffusion.denoiser"),
            "diffusion.forward_corrupt_us": layer("diffusion.forward_corrupt", us),
            "autodiff.nodes_per_train_step": _mean(self.train_step_nodes),
            "autodiff.backward_self_ms": self._per_call("autodiff.Tape.backward", _SELF, ms),
            "autodiff.backward_useful_ratio": (
                self.train_step_pushes / sum(self.train_step_nodes) if self.train_step_nodes else 0.0
            ),
            "autodiff.nodes_per_denoiser_call": self._per_call("diffusion.denoiser", _NODES, 1.0),
            "autodiff.const_nodes": self.const_nodes,
            "autodiff.finite_diff_evals": self.finite_diff_evals,
        }
        for kind, (nodes, calls, fwd_s, push_calls, bwd_s) in self._op_kinds().items():
            m[f"autodiff.op.{kind}.nodes"] = nodes
            m[f"autodiff.op.{kind}.fwd_us"] = fwd_s / calls * us if calls else 0.0
            m[f"autodiff.op.{kind}.bwd_us"] = bwd_s / push_calls * us if push_calls else 0.0
        m["ballops.exp_map_origin_us"] = layer("ballops.exp_map_origin_rows", us)
        for kind, fn in LOSS_KINDS.items():
            m[f"losses.{kind}.fwd_us"] = layer(f"losses.{fn}", us)
            m[f"losses.{kind}.nodes"] = self._per_call(f"losses.{fn}", _NODES, 1.0)
        train_total = self.stats.get(TRAIN, [0, 0.0, 0.0, 0.0, 0])[_TOTAL]
        m.update({
            "optim.adam_step_us": layer("optim.Adam.step", us),
            "optim.radam_step_us": layer("optim.RiemannianAdam.step", us),
            "optim.steps": self._calls("optim.Adam.step"),
            "trainer.step_ms_p50": statistics.median(self.train_step_s) * ms if self.train_step_s else 0.0,
            "trainer.self_ms": layer(TRAIN, ms),
            "trainer.eval_share": (
                self.edges.get((TRAIN, "trainer.infer_video"), 0.0) / train_total if train_total else 0.0
            ),
            "metrics.evaluate_ms": layer("metrics.evaluate_videos", ms),
            "metrics.segments_us": layer("metrics.segments_from_labels", us),
            "metrics.pred_segments_per_video": _mean(pred_segments),
        })
        for suite in CHECK_SUITES:
            m[f"checks.{suite}_s"] = layer(f"checks.{suite}", 1.0)
        m["trace.coverage"] = self.span_seconds() / wall_s
        return m

    def _op_kinds(self) -> dict[str, tuple]:
        """Per op kind: nodes, forward calls, forward self seconds, gradient
        closures run, and their seconds."""
        out = {kind: [0, 0, 0.0, 0, 0.0] for kind in OP_KINDS}
        for key, row in self.ops.items():
            name = key.partition(".")[2]
            total = out[name if name in OP_KINDS else "other"]
            total[0] += row[_OP_NODES]
            total[1] += row[_OP_CALLS]
            total[2] += row[_OP_SELF]
            total[3] += row[_PUSH_CALLS]
            total[4] += row[_PUSH_S]
        return {k: tuple(v) for k, v in out.items()}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
