"""Scalar loss surfaces over raw leaves, shared by the gradient test suites.

Each builder returns f(tape, leaves) -> scalar tensor, one video's loss
summed by `autodiff.total`, where the leaves are Euclidean quantities:
pre-projection frame embeddings, prototype tangent coordinates at the
origin, and classifier logits. `draw_safe_config` samples random inputs and
rejects anything near a kink (hinge boundaries, acos clamp ends, coincident
rows) so central differences stay meaningful.
"""

import numpy as np

import hyptas.autodiff as td
import hyptas.ballops as bo
from hyptas import losses
from hyptas.data import RunConfig
from layer_oracles import softmax


def rows_in_annulus(rng, n, d, lo=0.05, hi=0.9):
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(lo, hi, size=(n, 1))


def draw_safe_config(rng, frames=6, classes=4, dim=3, c=1.0, cone_k=0.1, margin=2.0):
    """(emb, proto_tangent, logits, labels) away from every singular set."""
    for _ in range(200):
        emb = rows_in_annulus(rng, frames, dim, 0.1, 0.85)
        proto_tan = rows_in_annulus(rng, classes, dim, 0.1, 0.85)
        logits = rng.normal(size=(frames, classes))
        labels = rng.integers(0, classes, size=frames)

        ball = bo.evaluate(bo.exp_map_origin_rows, emb, c)
        protos = bo.evaluate(bo.exp_map_origin_rows, proto_tan, c)
        unit = ball * np.sqrt(c)  # the cone term's rows, on the unit ball
        theta = bo.evaluate(bo.exterior_angle_rows, unit[:-1], unit[1:])
        alpha = bo.evaluate(bo.aperture_rows, unit[:-1], cone_k)
        if np.any(np.abs(theta - alpha) < 1e-3):
            continue
        if np.any(theta < 1e-3) or np.any(theta > np.pi - 1e-3):
            continue
        i, j = np.triu_indices(classes, k=1)
        pair_d = bo.evaluate(bo.distance_rows, protos[i], protos[j], c)
        if np.any(np.abs(pair_d - margin) < 1e-3) or np.any(pair_d < 1e-2):
            continue
        if np.any(bo.evaluate(bo.distance_rows, ball, protos[labels], c) < 1e-2):
            continue
        return emb, proto_tan, logits, labels
    raise RuntimeError("could not sample a kink-free configuration")


def ce_surface(labels, classes):
    y = np.eye(classes)[labels]

    def f(tape, leaves):
        return td.total(losses.cross_entropy(softmax(leaves[0]), y, (len(labels),)))

    return f


def entail_surface(c=1.0, cone_k=0.1):
    def f(tape, leaves):
        ball = bo.exp_map_origin_rows(leaves[0], c)
        return td.total(losses.temporal_entailment(ball, cone_k, c, (ball.value.shape[0],)))

    return f


def margin_surface(c=1.0, margin=2.0):
    def f(tape, leaves):
        protos = bo.exp_map_origin_rows(leaves[0], c)
        return td.total(losses.prototype_margin(protos, margin, c, 1))

    return f


def pp_surface(labels, t=300, total=1000, decay="exp", c=1.0):
    def f(tape, leaves):
        ball = bo.exp_map_origin_rows(leaves[0], c)
        protos = bo.exp_map_origin_rows(leaves[1], c)
        assigned = td.gather_rows(protos, labels)
        return td.total(losses.push_pull(ball, assigned, [t], total, decay, c, (len(labels),)))

    return f


def gg_surface(labels, c=1.0):
    def f(tape, leaves):
        ball = bo.exp_map_origin_rows(leaves[0], c)
        protos = bo.exp_map_origin_rows(leaves[1], c)
        assigned = td.gather_rows(protos, labels)
        return td.total(losses.geodesic_guidance(ball, assigned, c, (len(labels),)))

    return f


def phase_surface(phase, labels, classes, t=300, c=1.0):
    """The phase's weighted total under the default weights, T = 1000."""
    config = RunConfig(curvature=c)
    y = np.eye(classes)[labels]

    def f(tape, leaves):
        emb, proto_tan, logits = leaves
        ball = bo.exp_map_origin_rows(emb, c)
        protos = bo.exp_map_origin_rows(proto_tan, c)
        rows = (len(labels),)
        ce = losses.cross_entropy(softmax(logits), y, rows)
        total, _ = losses.phase_loss(phase, config, ce, ball, protos, labels, [t], True, rows)
        return td.total(total)

    return f


def all_surfaces(rng, c=1.0):
    """(name, f, leaves) triples for one safe random configuration."""
    emb, proto_tan, logits, labels = draw_safe_config(rng, c=c)
    classes = proto_tan.shape[0]
    return [
        ("cross_entropy", ce_surface(labels, classes), [logits]),
        ("temporal_entailment", entail_surface(c), [emb]),
        ("prototype_margin", margin_surface(c), [proto_tan]),
        ("push_pull", pp_surface(labels, c=c), [emb, proto_tan]),
        ("geodesic_guidance", gg_surface(labels, c=c), [emb, proto_tan]),
        ("stabilization_total", phase_surface("stabilization", labels, classes, c=c),
         [emb, proto_tan, logits]),
        ("guidance_total", phase_surface("guidance", labels, classes, c=c), [emb, proto_tan, logits]),
    ]
