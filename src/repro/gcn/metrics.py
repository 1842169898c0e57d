"""Evaluation metrics for node classification."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "masked_accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same shape")
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())


def masked_accuracy(predictions: np.ndarray, labels: np.ndarray,
                    mask: np.ndarray) -> float:
    """Accuracy restricted to the masked vertices."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0
    return accuracy(np.asarray(predictions)[mask], np.asarray(labels)[mask])
