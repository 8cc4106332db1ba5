"""Softmax cross-entropy with label masks.

Vertices on sub-block boundaries can legitimately belong to multiple
blocks (Sec. II-B); such vertices are excluded from the loss through a
boolean mask rather than being forced into one class.
"""

from __future__ import annotations

import numpy as np


_ZERO_START = np.zeros(1, dtype=np.int64)


def _sequential_sum(values: np.ndarray) -> float:
    """Sum with plain sequential accumulation (``np.add.reduceat``).

    Segment-stable: summing a segment inside a packed array gives the
    same bits as summing it alone, which is how the packed loss can
    reproduce per-graph :func:`cross_entropy` losses exactly.
    (``ndarray.sum`` uses pairwise accumulation, which has no
    ragged-segment equivalent.)
    """
    if values.size == 0:
        return 0.0
    return float(np.add.reduceat(values, _ZERO_START)[0])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically-stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
    class_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean masked cross-entropy of one graph and its gradient w.r.t.
    ``logits`` — the single-graph reference for
    :func:`batched_cross_entropy`, which training runs.

    ``labels`` are integer class ids per vertex; ``mask`` selects the
    vertices that contribute.  Returns ``(loss, grad)`` where ``grad``
    has the full (n, C) shape with zeros at masked-out rows.
    """
    n, n_classes = logits.shape
    if mask is None:
        mask = np.ones(n, dtype=bool)
    count = int(mask.sum())
    grad = np.zeros_like(logits)
    if count == 0:
        return 0.0, grad

    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    weights = np.ones(n)
    if class_weights is not None:
        weights = class_weights[labels]
    log_losses = -np.log(np.clip(picked, 1e-12, None)) * weights
    loss = float(_sequential_sum(log_losses[mask]) / count)

    grad[mask] = probs[mask]
    grad[np.arange(n)[mask], labels[mask]] -= 1.0
    grad[mask] *= weights[mask, None] / count
    return loss, grad


def batched_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    offsets: np.ndarray,
    class_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-graph masked cross-entropy over a packed batch.

    ``logits``/``labels``/``mask`` are the packed (Σn_i, ·) arrays of a
    :class:`~repro.gcn.batch.PackedBatch`; ``offsets`` its level-0
    graph boundaries.  Returns ``(losses, counts, grad)`` where
    ``losses[i]`` and ``counts[i]`` are graph ``i``'s mean masked loss
    and masked-vertex count, and ``grad`` is the packed gradient with
    each graph's rows normalized by *its own* count — exactly what one
    :func:`cross_entropy` call per graph produces.

    Gradient rows are bitwise identical to :func:`cross_entropy`'s (the
    elementwise operation order is preserved); the per-graph loss sums
    reduce over the same masked row subsets, so they match bitwise too.
    """
    n, _ = logits.shape
    n_graphs = len(offsets) - 1
    grad = np.zeros_like(logits)
    losses = np.zeros(n_graphs)
    running = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    counts = running[offsets[1:]] - running[offsets[:-1]]
    if not counts.any():
        return losses, counts, grad

    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    weights = np.ones(n)
    if class_weights is not None:
        weights = class_weights[labels]
    log_losses = -np.log(np.clip(picked, 1e-12, None)) * weights
    # Per-graph means over the mask-compressed array: graph i owns the
    # compressed rows running[offsets[i]]:running[offsets[i+1]], and
    # reduceat's sequential accumulation matches ``_sequential_sum`` on
    # each graph's own masked rows bitwise.  (reduceat quirk: an empty
    # segment yields the element at its clipped start index — those
    # entries are zeroed by the ``counts > 0`` select.)
    compressed = log_losses[mask]
    starts = np.minimum(running[offsets[:-1]], len(compressed) - 1)
    sums = np.add.reduceat(compressed, starts)
    losses = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

    # Row scale: mask·weight/count_of_owning_graph, matching
    # cross_entropy's ``grad[mask] *= weights[mask] / count`` op order.
    graph_of = np.repeat(np.arange(n_graphs), np.diff(offsets))
    denom = np.maximum(counts, 1)[graph_of]
    grad[mask] = probs[mask]
    grad[np.arange(n)[mask], labels[mask]] -= 1.0
    grad[mask] *= weights[mask, None] / denom[mask, None]
    return losses, counts, grad


def l2_penalty(params: list[np.ndarray], strength: float) -> float:
    """Scalar L2 regularization term ``(λ/2) Σ‖W‖²``."""
    if strength == 0.0:
        return 0.0
    return 0.5 * strength * sum(float((p**2).sum()) for p in params)
