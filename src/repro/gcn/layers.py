"""Graph convolution layer (single-process reference implementation).

Implements exactly the four training operations the paper lists in
Section 2.1:

.. math::

    Z^l &= A^T H^{l-1} W^l \\\\
    H^l &= \\sigma(Z^l) \\\\
    G^{l-1} &= A G^l (W^l)^T \\odot \\sigma'(Z^{l-1}) \\\\
    Y^{l-1} &= (H^{l-1})^T A G^l

with symmetric (normalised) ``A`` so that ``A^T = A``.  The distributed
trainer in :mod:`repro.core.dist_gcn` performs the same arithmetic with the
SpMMs replaced by their distributed counterparts; the integration tests
check that the two produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .activations import get_activation

__all__ = ["GraphConvLayer", "LayerCache", "LayerGradients"]


@dataclass
class LayerCache:
    """Intermediate values stashed during the forward pass of one layer."""

    h_in: np.ndarray      # H^{l-1}: layer input
    z: np.ndarray         # Z^l = A H^{l-1} W^l (pre-activation)
    h_out: np.ndarray     # H^l = sigma(Z^l)


@dataclass
class LayerGradients:
    """Gradients produced by the backward pass of one layer."""

    weight_grad: np.ndarray   # Y^{l-1} = (H^{l-1})^T A G^l
    input_grad: np.ndarray    # G^{l-1} before the sigma' Hadamard of the
                              # *previous* layer (i.e. dL/dH^{l-1})


class GraphConvLayer:
    """One graph convolution: ``H_out = sigma(A H_in W)``.

    Parameters
    ----------
    weight:
        ``(f_in, f_out)`` dense weight matrix (owned by the layer; updated
        in place by the optimiser).
    activation:
        ``"relu"`` for hidden layers, ``"identity"`` for the output layer.
    """

    def __init__(self, weight: np.ndarray, activation: str = "relu") -> None:
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {weight.shape}")
        self.weight = weight.astype(np.float64)
        self.activation_name = activation
        self._act, self._act_grad = get_activation(activation)

    # ------------------------------------------------------------------
    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    # ------------------------------------------------------------------
    def forward(self, adj: sp.spmatrix, h_in: np.ndarray,
                propagated: Optional[np.ndarray] = None) -> LayerCache:
        """Compute ``sigma(A h_in W)`` and cache intermediates.

        ``propagated`` is a precomputed ``A h_in`` (the trainer keeps
        layer 0's, whose operands never change); the SpMM is skipped.
        """
        h_in = np.asarray(h_in, dtype=np.float64)
        if h_in.shape[1] != self.in_features:
            raise ValueError(
                f"layer expects {self.in_features} input features, "
                f"got {h_in.shape[1]}")
        if propagated is None:
            propagated = adj @ h_in        # SpMM: A H^{l-1}
        elif propagated.shape != h_in.shape:
            raise ValueError(
                f"precomputed propagation has shape {propagated.shape}, "
                f"expected {h_in.shape}")
        z = propagated @ self.weight       # GEMM: (A H^{l-1}) W^l
        h_out = self._act(z)
        return LayerCache(h_in=h_in, z=z, h_out=h_out)

    def backward(self, adj: sp.spmatrix, cache: LayerCache,
                 grad_z: np.ndarray) -> LayerGradients:
        """Backward pass given ``grad_z = dL/dZ^l``.

        Returns the weight gradient and ``dL/dH^{l-1}`` (the caller applies
        the previous layer's activation derivative to turn it into
        ``G^{l-1}``).
        """
        grad_z = np.asarray(grad_z, dtype=np.float64)
        if grad_z.shape != cache.z.shape:
            raise ValueError("grad_z shape does not match the forward cache")
        # Shared SpMM of the backward pass: S = A G^l
        s = adj @ grad_z
        weight_grad = cache.h_in.T @ s                 # (H^{l-1})^T A G^l
        input_grad = s @ self.weight.T                 # A G^l (W^l)^T
        return LayerGradients(weight_grad=weight_grad, input_grad=input_grad)

    def activation_grad(self, z: np.ndarray) -> np.ndarray:
        """sigma'(Z^l) for this layer's activation."""
        return self._act_grad(np.asarray(z, dtype=np.float64))

    def apply_gradient(self, weight_grad: np.ndarray, lr: float) -> None:
        """Plain SGD update ``W <- W - lr * grad`` (in place)."""
        if weight_grad.shape != self.weight.shape:
            raise ValueError("gradient shape does not match the weight shape")
        self.weight -= lr * weight_grad
