"""Evaluation metrics for node classification."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["accuracy", "masked_accuracy", "confusion_counts", "f1_macro"]


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


def confusion_counts(predictions: np.ndarray, labels: np.ndarray,
                     n_classes: Optional[int] = None) -> np.ndarray:
    """``(n_classes, n_classes)`` confusion matrix (rows = true class)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"predictions and labels must have the same shape, "
                         f"got {predictions.shape} and {labels.shape}")
    if n_classes is None:
        n_classes = int(max(predictions.max(initial=0), labels.max(initial=0))) + 1
    for name, ids in (("prediction", predictions), ("label", labels)):
        if ids.size and (ids.min() < 0 or ids.max() >= n_classes):
            raise ValueError(f"{name} id out of range [0, {n_classes})")
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(mat, (labels, predictions), 1)
    return mat


def f1_macro(predictions: np.ndarray, labels: np.ndarray,
             n_classes: Optional[int] = None) -> float:
    """Macro-averaged F1 score over the classes that appear in ``labels``."""
    mat = confusion_counts(predictions, labels, n_classes)
    f1s = []
    for c in range(mat.shape[0]):
        support = mat[c].sum()
        if support == 0:
            continue
        tp = mat[c, c]
        fp = mat[:, c].sum() - tp
        fn = support - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if precision + recall > 0 else 0.0
        f1s.append(f1)
    return float(np.mean(f1s)) if f1s else 0.0
