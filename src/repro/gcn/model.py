"""Multi-layer GCN model (single-process reference)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .init import init_weights
from .layers import GraphConvLayer, LayerCache
from .loss import loss_and_grad, masked_cross_entropy, softmax

__all__ = ["GCNModel", "ForwardState"]


@dataclass
class ForwardState:
    """All per-layer caches of one forward pass plus the final logits."""

    caches: List[LayerCache]

    @property
    def logits(self) -> np.ndarray:
        return self.caches[-1].h_out


class GCNModel:
    """An L-layer graph convolutional network.

    The architecture matches the paper's experimental setup: a 3-layer GCN
    with 16 hidden units (both configurable), ReLU activations on hidden
    layers and an identity output layer feeding a masked softmax
    cross-entropy loss.

    Parameters
    ----------
    layer_dims:
        ``[f_0, f_1, ..., f_L]`` — input features, hidden sizes, classes.
    seed:
        Seed for the (deterministic, replicated) weight initialisation.
    """

    def __init__(self, layer_dims: Sequence[int], seed: int = 0) -> None:
        if len(layer_dims) < 2:
            raise ValueError("layer_dims needs at least [in_features, classes]")
        self.layer_dims = list(int(d) for d in layer_dims)
        weights = init_weights(self.layer_dims, seed=seed)
        self.layers: List[GraphConvLayer] = []
        for l, w in enumerate(weights):
            activation = "identity" if l == len(weights) - 1 else "relu"
            self.layers.append(GraphConvLayer(w, activation=activation))

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def weights(self) -> List[np.ndarray]:
        return [layer.weight for layer in self.layers]

    # ------------------------------------------------------------------
    def forward(self, adj: sp.spmatrix, features: np.ndarray,
                input_propagation: Optional[np.ndarray] = None
                ) -> ForwardState:
        """Full forward pass; returns all layer caches.

        ``input_propagation`` is a precomputed ``adj @ features`` for
        layer 0 (constant across epochs, so a trainer computes it once).
        """
        h = np.asarray(features, dtype=np.float64)
        caches: List[LayerCache] = []
        for l, layer in enumerate(self.layers):
            cache = layer.forward(
                adj, h, propagated=input_propagation if l == 0 else None)
            caches.append(cache)
            h = cache.h_out
        return ForwardState(caches=caches)

    def backward(self, adj: sp.spmatrix, state: ForwardState,
                 grad_logits: np.ndarray) -> List[np.ndarray]:
        """Backward pass; returns one weight gradient per layer."""
        grads: List[Optional[np.ndarray]] = [None] * self.n_layers
        grad_z = np.asarray(grad_logits, dtype=np.float64)
        for l in range(self.n_layers - 1, -1, -1):
            layer = self.layers[l]
            cache = state.caches[l]
            lg = layer.backward(adj, cache, grad_z)
            grads[l] = lg.weight_grad
            if l > 0:
                prev_layer = self.layers[l - 1]
                prev_cache = state.caches[l - 1]
                grad_z = lg.input_grad * prev_layer.activation_grad(prev_cache.z)
        return grads  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def loss(self, logits: np.ndarray, labels: np.ndarray,
             mask: Optional[np.ndarray] = None) -> float:
        return masked_cross_entropy(logits, labels, mask)

    def loss_and_logits_grad(self, logits: np.ndarray, labels: np.ndarray,
                             mask: Optional[np.ndarray] = None
                             ) -> Tuple[float, np.ndarray]:
        return loss_and_grad(logits, labels, mask)

    def predict(self, adj: sp.spmatrix, features: np.ndarray,
                input_propagation: Optional[np.ndarray] = None) -> np.ndarray:
        """Class predictions for every vertex."""
        logits = self.forward(adj, features, input_propagation).logits
        return softmax(logits).argmax(axis=1)

    def apply_gradients(self, grads: Sequence[np.ndarray], lr: float) -> None:
        if len(grads) != self.n_layers:
            raise ValueError("gradient count does not match the layer count")
        for layer, g in zip(self.layers, grads):
            layer.apply_gradient(g, lr)
