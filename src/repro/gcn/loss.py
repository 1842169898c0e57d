"""Masked softmax cross-entropy loss for node classification."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["softmax", "masked_cross_entropy", "masked_cross_entropy_grad",
           "loss_and_grad"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for numerical stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _check_inputs(logits: np.ndarray, labels: np.ndarray,
                  mask: Optional[np.ndarray]) -> np.ndarray:
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.shape[0] != logits.shape[0]:
        raise ValueError("labels and logits disagree on the number of nodes")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError("label id out of range for the logit width")
    if mask is None:
        mask = np.ones(logits.shape[0], dtype=bool)
    # A 0/1 integer mask must select rows, not index them (``~`` on ints
    # is bitwise NOT).
    mask = np.asarray(mask, dtype=bool)
    if mask.shape[0] != logits.shape[0]:
        raise ValueError("mask and logits disagree on the number of nodes")
    if not mask.any():
        raise ValueError("loss mask selects no vertices")
    return mask


def masked_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                         mask: Optional[np.ndarray] = None) -> float:
    """Mean cross-entropy over the masked nodes."""
    mask = _check_inputs(logits, labels, mask)
    probs = softmax(logits)
    idx = np.flatnonzero(mask)
    picked = probs[idx, labels[idx]]
    return float(-np.log(np.clip(picked, 1e-12, None)).mean())


def masked_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray,
                              mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient of the mean masked cross-entropy w.r.t. the logits.

    Unmasked rows receive an exactly-zero gradient, which is what makes the
    loss computation communication-free in the row-distributed setting.
    """
    mask = _check_inputs(logits, labels, mask)
    probs = softmax(logits)
    grad = probs
    idx = np.flatnonzero(mask)
    grad[idx, labels[idx]] -= 1.0
    grad[~mask] = 0.0
    grad /= idx.size
    return grad.astype(np.float64)


def loss_and_grad(logits: np.ndarray, labels: np.ndarray,
                  mask: Optional[np.ndarray] = None
                  ) -> Tuple[float, np.ndarray]:
    """Convenience: loss value and logits gradient in one call."""
    return (masked_cross_entropy(logits, labels, mask),
            masked_cross_entropy_grad(logits, labels, mask))
