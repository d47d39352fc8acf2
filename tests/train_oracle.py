"""The training loop with one tape per video: the reference for `trainer.train`.

`train` below is the loop `trainer.train` ran before it packed a chunk of
videos onto one tape. It draws from the rng in the same order (per video:
timestep, mask kind, label noise, relation segment), builds one tape per
video, a stack of one (rows = (L,), one step, one prototype copy, so every
loss value is a (1,) array), adds each video's leaf gradients into a
zeroed flat gradient sum in chunk order, and takes the same optimizer steps
and in-training evaluations. The packed trainer must give the same bytes:
checkpoints, log lines and the gradient of every optimizer step.
"""

from __future__ import annotations

import math

import numpy as np

from hyptas import autodiff as td
from hyptas import ballops as bo
from hyptas.autodiff import Tape
from hyptas.data import Dataset, RunConfig
from hyptas.diffusion import forward_corrupt, label_encode, make_schedule
from hyptas.errors import NonFiniteLossError
from hyptas.losses import PHASES, cross_entropy, phase_for_epoch, phase_loss
from hyptas.metrics import evaluate_videos, segments_from_labels
from hyptas.model import Denoiser, apply_masking, mask_vector, sample_mask_kind
from hyptas.optim import Adam, RiemannianAdam
from hyptas.trainer import (
    EpochRecord,
    TrainedState,
    TrainLog,
    _checksum,
    _denoiser_config,
    infer_videos,
    init_prototypes,
)


def video_step(model, prototypes, schedule, config, phase, video, segments, rng):
    """One video's tape, drawing its randomness from `rng`: the leaf gradients
    by parameter name, the prototype gradient (None while frozen), the total
    and the components."""
    t = int(rng.integers(1, config.timesteps + 1))
    mask_kind = sample_mask_kind(rng)
    classes = prototypes.count
    noise = rng.standard_normal((video.labels.shape[0], classes))

    rows = (video.labels.shape[0],)
    tape = Tape()
    bound = model.bind(tape, trainable=True)
    condition, p_enc = bound.encode(video.features, rows)
    masked = apply_masking(condition, mask_vector(mask_kind, segments, video.labels.shape[0], rng))
    y_t = tape.const(forward_corrupt(label_encode(video.labels, classes), t, schedule, noise))
    emb, probs = bound.decode(y_t, masked, [t], rows)
    ball = bo.exp_map_origin_rows(emb, config.curvature)
    trains_prototypes = PHASES[phase].trains_prototypes
    proto_tensor = (tape.leaf if trains_prototypes else tape.const)(prototypes.points)
    y_onehot = np.eye(classes)[video.labels]
    ce = cross_entropy(probs, y_onehot, rows)
    if config.aux_head:
        ce = ce + cross_entropy(p_enc, y_onehot, rows)
    total, components = phase_loss(
        phase, config, ce, ball, proto_tensor, video.labels, [t], prototypes.frozen, rows
    )
    components = {name: value.item() for name, value in components.items()}
    for name, value in components.items():
        if not math.isfinite(value):
            raise NonFiniteLossError(f"loss component {name!r} is non-finite at t={t}")
    if not math.isfinite(total.value.item()):
        raise NonFiniteLossError(f"total {phase} loss is non-finite at t={t}")
    grads = tape.backward(td.total(total))
    params = {name: grads[tensor] for name, tensor in bound.bound.items()}
    proto_grad = grads[proto_tensor] if trains_prototypes else None
    return params, proto_grad, total.value.item(), components


def train(dataset: Dataset, config: RunConfig, step=video_step):
    """`trainer.train` with one tape per video; `step` runs one video."""
    model = Denoiser(_denoiser_config(dataset, config), seed=config.seed)
    prototypes = init_prototypes(
        dataset.num_classes, config.embed_dim, config.curvature, config.seed + 1
    )
    schedule = make_schedule(config.timesteps)
    net_opt = Adam(model.flat, config.lr, model.views)
    proto_opt = RiemannianAdam(prototypes, config.proto_lr)
    grad_sum = np.zeros_like(model.flat)
    grad_views = model.views(grad_sum)
    rng = np.random.default_rng(config.seed + 2)
    log = TrainLog()
    segments = [segments_from_labels(video.labels) for video in dataset.train]

    for epoch in range(config.epochs):
        phase = "single" if config.single_phase else phase_for_epoch(
            epoch, config.stabilization_epochs
        )
        trains_prototypes = PHASES[phase].trains_prototypes
        if not trains_prototypes and not prototypes.frozen:
            prototypes.freeze()
        order = rng.permutation(len(dataset.train))
        sums: dict[str, float] = {}
        total_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_sum.fill(0.0)
            proto_grad_sum = np.zeros_like(prototypes.points)
            for idx in batch:
                params, proto_grad, total, components = step(
                    model, prototypes, schedule, config, phase, dataset.train[idx],
                    segments[idx], rng,
                )
                for name, g in params.items():
                    grad_views[name] += g
                if trains_prototypes:
                    proto_grad_sum += proto_grad
                total_sum += total
                for k, v in components.items():
                    sums[k] = sums.get(k, 0.0) + v
            net_opt.step(model.flat, grad_sum / len(batch))
            if trains_prototypes:
                proto_opt.step(prototypes, proto_grad_sum / len(batch))

        n = len(dataset.train)
        record = EpochRecord(
            epoch=epoch,
            phase=phase,
            components={k: v / n for k, v in sums.items()},
            total=total_sum / n,
            prototype_min_distance=prototypes.min_pairwise_distance(),
            prototype_checksum=_checksum(prototypes.points),
        )
        if dataset.test and ((epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1):
            state = TrainedState(model, prototypes, schedule, config)
            seeds = [config.seed + 7919 * (epoch + 1) + i for i in range(len(dataset.test))]
            preds = infer_videos(
                state, [rec.features for rec in dataset.test], config.infer_steps, seeds
            )
            record.metrics = evaluate_videos(
                [(pred, rec.labels) for (pred, _, _), rec in zip(preds, dataset.test)]
            )
        log.records.append(record)

    return TrainedState(model, prototypes, schedule, config), log
