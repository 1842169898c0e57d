"""Single-process full-graph GCN training loop (reference baseline).

This is the ground truth the distributed trainer is validated against: the
paper observes "no change in accuracy apart from floating-point rounding
errors" between the sparsity-oblivious and sparsity-aware implementations,
and our integration tests assert the same between this reference and every
distributed variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.adjacency import gcn_normalize
from ..graphs.features import NodeData
from .loss import softmax
from .metrics import masked_accuracy
from .model import GCNModel

__all__ = ["ReferenceTrainConfig", "EpochRecord", "TrainResult", "train_reference"]


@dataclass(frozen=True)
class ReferenceTrainConfig:
    """Hyper-parameters of the reference trainer (paper defaults)."""

    hidden: int = 16
    n_layers: int = 3
    epochs: int = 100
    learning_rate: float = 0.05
    seed: int = 0
    normalize_adjacency: bool = True


@dataclass
class EpochRecord:
    """Loss / accuracy trace of one training epoch."""

    epoch: int
    loss: float
    train_accuracy: float
    val_accuracy: float


@dataclass
class TrainResult:
    """Final model plus the per-epoch trace and test metrics."""

    model: GCNModel
    history: List[EpochRecord]
    test_accuracy: float

    @property
    def final_loss(self) -> float:
        return self.history[-1].loss if self.history else float("nan")


def _layer_dims(n_features: int, n_classes: int, cfg: ReferenceTrainConfig
                ) -> List[int]:
    if cfg.n_layers < 1:
        raise ValueError("need at least one layer")
    if cfg.n_layers == 1:
        return [n_features, n_classes]
    return [n_features] + [cfg.hidden] * (cfg.n_layers - 1) + [n_classes]


def train_reference(adjacency: sp.spmatrix, node_data: NodeData,
                    config: Optional[ReferenceTrainConfig] = None
                    ) -> TrainResult:
    """Train a GCN on one process; returns the model and training trace."""
    cfg = config or ReferenceTrainConfig()
    node_data.validate()
    adj = gcn_normalize(adjacency) if cfg.normalize_adjacency \
        else adjacency.tocsr().astype(np.float64)

    dims = _layer_dims(node_data.n_features, node_data.n_classes, cfg)
    model = GCNModel(dims, seed=cfg.seed)

    features = node_data.features.astype(np.float64)
    labels = node_data.labels
    history: List[EpochRecord] = []
    # Layer 0's A X never changes: propagate the input features once (the
    # distributed trainer keeps the same product, so comparisons against
    # this reference measure distribution, not the cache).
    input_propagation = adj @ features

    for epoch in range(cfg.epochs):
        state = model.forward(adj, features, input_propagation)
        loss, grad_logits = model.loss_and_logits_grad(
            state.logits, labels, node_data.train_mask)
        grads = model.backward(adj, state, grad_logits)
        model.apply_gradients(grads, cfg.learning_rate)

        preds = softmax(state.logits).argmax(axis=1)
        history.append(EpochRecord(
            epoch=epoch,
            loss=loss,
            train_accuracy=masked_accuracy(preds, labels, node_data.train_mask),
            val_accuracy=masked_accuracy(preds, labels, node_data.val_mask),
        ))

    final_preds = model.predict(adj, features, input_propagation)
    test_acc = masked_accuracy(final_preds, labels, node_data.test_mask)
    return TrainResult(model=model, history=history, test_accuracy=test_acc)
