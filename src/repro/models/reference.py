"""Sequential reference implementation — the correctness oracle.

A plain-Python, single-threaded BRNN forward/backward whose per-cell
arithmetic calls the exact kernels the B-Par tasks use, in the canonical
order the B-Par graph builder registers tasks.  B-Par under any schedule
must reproduce these outputs bit-for-bit (the paper: "orchestrating a BRNN
parallel training or inference via task dependencies does not produce any
accuracy loss compared to a sequential execution").

Canonical order contract (shared with :mod:`repro.core.graph_builder`):

* forward, per layer: forward-direction cells t=0..T-1, reverse-direction
  cells u=0..T-1 (step u reads input position T-1-u), then merges;
* backward: head first (t descending for many-to-many), then per layer
  (descending): forward-direction cell backwards t=T-1..0, reverse-direction
  cell backwards u=T-1..0, then the layer-below merge backwards t=T-1..0.

Gradient accumulations follow this order, which pins the floating-point
reduction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.kernels.dense import dense_backward, dense_forward
from repro.kernels.losses import softmax_cross_entropy
from repro.kernels.merge import merge_backward, merge_forward
from repro.models.cells import cell_backward, cell_forward, zeros_state
from repro.models.params import BRNNParams
from repro.models.spec import BRNNSpec


@dataclass
class ReferenceCaches:
    """Everything the backward pass needs, indexed ``[layer][t or step]``."""

    x: np.ndarray  # (T, B, I)
    h_f: List[List[np.ndarray]] = field(default_factory=list)
    c_f: List[List[Optional[np.ndarray]]] = field(default_factory=list)
    cache_f: List[list] = field(default_factory=list)
    h_r: List[List[np.ndarray]] = field(default_factory=list)
    c_r: List[List[Optional[np.ndarray]]] = field(default_factory=list)
    cache_r: List[list] = field(default_factory=list)
    merged: List[List[np.ndarray]] = field(default_factory=list)  # layers 0..L-2
    last_merged: List[np.ndarray] = field(default_factory=list)  # last layer (m2m) or [final] (m2o)
    logits: Optional[np.ndarray] = None


def _layer_inputs(spec: BRNNSpec, caches: ReferenceCaches, layer: int) -> List[np.ndarray]:
    if layer == 0:
        return [caches.x[t] for t in range(caches.x.shape[0])]
    return caches.merged[layer - 1]


def reference_forward(
    spec: BRNNSpec, params: BRNNParams, x: np.ndarray
) -> Tuple[np.ndarray, ReferenceCaches]:
    """Full forward pass.

    ``x (T, B, input_size)`` → logits ``(B, C)`` for many-to-one or
    ``(T, B, C)`` for many-to-many, plus the caches for backward.
    """
    seq_len, batch = x.shape[0], x.shape[1]
    caches = ReferenceCaches(x=x)
    last = spec.num_layers - 1

    for layer in range(spec.num_layers):
        inputs = _layer_inputs(spec, caches, layer)
        lp = params.layers[layer]

        # the reverse chain's step u reads position T-1-u; slots in step order
        for dp, positions, slots in (
            (lp.fwd, range(seq_len), (caches.h_f, caches.c_f, caches.cache_f)),
            (lp.rev, range(seq_len - 1, -1, -1), (caches.h_r, caches.c_r, caches.cache_r)),
        ):
            h, c = zeros_state(spec, batch)
            steps = []
            for t in positions:
                h, c, cache = cell_forward(spec, inputs[t], h, c, dp.W, dp.b)
                steps.append((h, c, cache))
            for grid, column in zip(slots, zip(*steps)):
                grid.append(list(column))
        h_f, h_r = caches.h_f[layer], caches.h_r[layer]

        if layer < last:
            merged = [
                merge_forward(h_f[t], h_r[seq_len - 1 - t], spec.merge_mode)
                for t in range(seq_len)
            ]
            caches.merged.append(merged)
        elif spec.head == "many_to_one":
            # Merge only the two final cells (paper: cells 9f and 9r).
            caches.last_merged = [
                merge_forward(h_f[seq_len - 1], h_r[seq_len - 1], spec.merge_mode)
            ]
        else:
            caches.last_merged = [
                merge_forward(h_f[t], h_r[seq_len - 1 - t], spec.merge_mode)
                for t in range(seq_len)
            ]

    if spec.head == "many_to_one":
        logits = dense_forward(caches.last_merged[0], params.head.W, params.head.b)
    else:
        logits = np.stack(
            [
                dense_forward(m, params.head.W, params.head.b)
                for m in caches.last_merged
            ]
        )
    caches.logits = logits
    return logits, caches


def reference_backward(
    spec: BRNNSpec,
    params: BRNNParams,
    caches: ReferenceCaches,
    dlogits: np.ndarray,
) -> BRNNParams:
    """Full backward pass; returns the gradient container."""
    seq_len, batch = caches.x.shape[0], caches.x.shape[1]
    grads = BRNNParams.zeros_like(spec)
    last = spec.num_layers - 1
    zero = lambda: np.zeros((batch, spec.hidden_size), dtype=spec.dtype)

    # Per-layer accumulators for dH (and dC for LSTM), both directions.
    dh_f = [[zero() for _ in range(seq_len)] for _ in range(spec.num_layers)]
    dh_r = [[zero() for _ in range(seq_len)] for _ in range(spec.num_layers)]
    if spec.cell == "lstm":
        dc_f = [[zero() for _ in range(seq_len)] for _ in range(spec.num_layers)]
        dc_r = [[zero() for _ in range(seq_len)] for _ in range(spec.num_layers)]
    else:
        dc_f = dc_r = [[None] * seq_len for _ in range(spec.num_layers)]
    # dmerged accumulators for layers 0..L-2
    dmerged = [
        [np.zeros_like(caches.merged[l][0]) for _ in range(seq_len)]
        for l in range(spec.num_layers - 1)
    ]

    # -- head ----------------------------------------------------------------
    if spec.head == "many_to_one":
        dfinal = dense_backward(
            dlogits, caches.last_merged[0], params.head.W, grads.head.W, grads.head.b
        )
        da, db = merge_backward(
            dfinal,
            caches.h_f[last][seq_len - 1],
            caches.h_r[last][seq_len - 1],
            spec.merge_mode,
        )
        dh_f[last][seq_len - 1] += da
        dh_r[last][seq_len - 1] += db
    else:
        for t in range(seq_len - 1, -1, -1):
            dm = dense_backward(
                dlogits[t], caches.last_merged[t], params.head.W, grads.head.W, grads.head.b
            )
            da, db = merge_backward(
                dm,
                caches.h_f[last][t],
                caches.h_r[last][seq_len - 1 - t],
                spec.merge_mode,
            )
            dh_f[last][t] += da
            dh_r[last][seq_len - 1 - t] += db

    # -- layers, top down -------------------------------------------------------
    for layer in range(last, -1, -1):
        lp = params.layers[layer]
        gl = grads.layers[layer]

        for dp, gp, dh, dc, cache, mirror in (
            (lp.fwd, gl.fwd, dh_f[layer], dc_f[layer], caches.cache_f[layer], False),
            (lp.rev, gl.rev, dh_r[layer], dc_r[layer], caches.cache_r[layer], True),
        ):
            for u in range(seq_len - 1, -1, -1):
                dx, dh_prev, dc_prev = cell_backward(spec, dh[u], dc[u], cache[u], dp.W, gp.W, gp.b)
                if u > 0:
                    dh[u - 1] += dh_prev
                    if dc_prev is not None:
                        dc[u - 1] += dc_prev
                if layer > 0:
                    dmerged[layer - 1][seq_len - 1 - u if mirror else u] += dx

        if layer > 0:
            below = layer - 1
            for t in range(seq_len - 1, -1, -1):
                da, db = merge_backward(
                    dmerged[below][t],
                    caches.h_f[below][t],
                    caches.h_r[below][seq_len - 1 - t],
                    spec.merge_mode,
                )
                dh_f[below][t] += da
                dh_r[below][seq_len - 1 - t] += db

    return grads


def reference_loss_and_grads(
    spec: BRNNSpec,
    params: BRNNParams,
    x: np.ndarray,
    labels: np.ndarray,
) -> Tuple[float, np.ndarray, BRNNParams]:
    """Forward + loss + backward; returns ``(mean_loss, logits, grads)``.

    Many-to-one: ``labels (B,)``.  Many-to-many: ``labels (T, B)`` and the
    loss is averaged over every (t, b) position.
    """
    logits, caches = reference_forward(spec, params, x)
    if spec.head == "many_to_one":
        batch = logits.shape[0]
        loss_sum, dlogits = softmax_cross_entropy(logits, labels, grad_scale=1.0 / batch)
        loss = loss_sum / batch
    else:
        seq_len, batch = logits.shape[0], logits.shape[1]
        scale = 1.0 / (seq_len * batch)
        dlogits = np.empty_like(logits)
        loss_total = 0.0
        for t in range(seq_len):
            ls, dl = softmax_cross_entropy(logits[t], labels[t], grad_scale=scale)
            loss_total += ls
            dlogits[t] = dl
        # divide (not multiply by the reciprocal) so the value is bitwise
        # identical to GraphBuildResult.mean_loss()
        loss = loss_total / (seq_len * batch)
    grads = reference_backward(spec, params, caches, dlogits)
    return loss, logits, grads


def reference_train_step(
    spec: BRNNSpec,
    params: BRNNParams,
    x: np.ndarray,
    labels: np.ndarray,
    lr: float,
) -> float:
    """One SGD step on ``params`` (in place); returns the batch mean loss."""
    loss, _, grads = reference_loss_and_grads(spec, params, x, labels)
    params.add_scaled_(grads, -lr)
    return loss
