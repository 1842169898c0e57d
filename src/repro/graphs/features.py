"""Synthetic vertex features, labels and train/val/test splits.

The paper uses the original features/labels for Reddit and Papers and
*chooses arbitrary feature/label counts* for Amazon and Protein (Section
6.3).  We follow the same recipe for all four stand-ins: features are drawn
from label-dependent Gaussian clusters mixed with a neighbourhood signal so
that a GCN can actually learn the labels (accuracy on the synthetic
datasets is meaningfully above chance), and labels are planted from a
community structure derived from the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["NodeData", "planted_labels", "make_features", "make_node_data",
           "train_val_test_split"]


@dataclass
class NodeData:
    """Per-vertex learning data accompanying a graph.

    Attributes
    ----------
    features:
        ``(n, f)`` float32 feature matrix (the paper's H^0).
    labels:
        ``(n,)`` int64 class ids in ``[0, n_classes)``.
    train_mask / val_mask / test_mask:
        Boolean masks selecting the supervised, validation and held-out
        vertices.
    feature_order:
        ``None`` when ``features`` is in the vertex order of the other
        fields.  Else vertex ``i``'s features are ``features[
        feature_order[i]]``: :meth:`permuted` records the relabelling
        here instead of copying ``features``.
    """

    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    feature_order: Optional[np.ndarray] = None

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def permuted(self, perm: np.ndarray) -> "NodeData":
        """Apply a vertex relabelling ``perm[old] = new``.

        The labels and masks are copied in the new order.  ``features``
        is the same array, not copied (an ``(n, f)`` matrix is most of a
        dataset's bytes): the relabelling is composed into
        ``feature_order``, so new vertex ``i`` reads ``features[
        feature_order[i]]``.
        """
        perm = np.asarray(perm)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        return NodeData(
            features=self.features,
            labels=self.labels[inv],
            train_mask=self.train_mask[inv],
            val_mask=self.val_mask[inv],
            test_mask=self.test_mask[inv],
            feature_order=inv if self.feature_order is None
            else self.feature_order[inv],
        )

    def validate(self) -> None:
        n = self.features.shape[0]
        names = ["labels", "train_mask", "val_mask", "test_mask"]
        if self.feature_order is not None:
            names.append("feature_order")
        for name in names:
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows, expected {n}")
        overlap = (self.train_mask & self.val_mask) | \
                  (self.train_mask & self.test_mask) | \
                  (self.val_mask & self.test_mask)
        if overlap.any():
            raise ValueError("train/val/test masks overlap")


def planted_labels(adj: sp.spmatrix, n_classes: int, seed: int = 0,
                   smoothing_rounds: int = 2) -> np.ndarray:
    """Derive labels correlated with graph structure.

    Starts from a random assignment and runs a few rounds of synchronous
    majority-vote label propagation, which concentrates labels inside the
    graph's natural clusters.  Deterministic given ``seed``.
    """
    if n_classes <= 1:
        raise ValueError("need at least 2 classes")
    adj = adj.tocsr()
    n = adj.shape[0]
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), labels] = 1.0
    for _ in range(smoothing_rounds):
        votes = adj @ onehot + onehot
        # Break ties deterministically but not always toward class 0.
        votes += rng.uniform(0, 1e-6, size=votes.shape)
        labels = votes.argmax(axis=1)
        onehot[:] = 0.0
        onehot[np.arange(n), labels] = 1.0
    # Guarantee every class appears at least once so the classifier head is
    # well defined.
    present = np.unique(labels)
    missing = np.setdiff1d(np.arange(n_classes), present)
    if missing.size:
        idx = rng.choice(n, size=missing.size, replace=False)
        labels[idx] = missing
    return labels.astype(np.int64)


def make_features(labels: np.ndarray, n_features: int, seed: int = 0,
                  class_separation: float = 1.0,
                  noise: float = 1.0) -> np.ndarray:
    """Label-dependent Gaussian features (``n x f`` float32)."""
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1
    rng = np.random.default_rng(seed)
    centroids = rng.normal(0.0, class_separation, size=(n_classes, n_features))
    feats = centroids[labels] + rng.normal(0.0, noise,
                                           size=(labels.size, n_features))
    return feats.astype(np.float32)


def train_val_test_split(n: int, train_frac: float = 0.6,
                         val_frac: float = 0.2, seed: int = 0
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random disjoint boolean masks covering all ``n`` vertices."""
    if not (0 < train_frac < 1) or not (0 <= val_frac < 1):
        raise ValueError("fractions must lie in (0, 1)")
    if train_frac + val_frac >= 1.0:
        raise ValueError("train_frac + val_frac must be < 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    train_mask = np.zeros(n, dtype=bool)
    val_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train:n_train + n_val]] = True
    test_mask[order[n_train + n_val:]] = True
    return train_mask, val_mask, test_mask


def make_node_data(adj: sp.spmatrix, n_features: int, n_classes: int,
                   seed: int = 0, train_frac: float = 0.6,
                   val_frac: float = 0.2) -> NodeData:
    """Features + planted labels + split for a given graph."""
    labels = planted_labels(adj, n_classes, seed=seed)
    features = make_features(labels, n_features, seed=seed + 1)
    train_mask, val_mask, test_mask = train_val_test_split(
        adj.shape[0], train_frac=train_frac, val_frac=val_frac, seed=seed + 2)
    data = NodeData(features=features, labels=labels, train_mask=train_mask,
                    val_mask=val_mask, test_mask=test_mask)
    data.validate()
    return data
