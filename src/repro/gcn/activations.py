"""Activation functions and their derivatives (NumPy, float32-friendly)."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

__all__ = ["relu", "relu_grad", "identity", "identity_grad",
           "get_activation"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of ReLU evaluated at the pre-activation ``x``."""
    return (x > 0.0).astype(x.dtype)


def identity(x: np.ndarray) -> np.ndarray:
    """Identity activation (used on the output layer before softmax loss)."""
    return x


def identity_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


_ACTIVATIONS: Dict[str, Tuple[Callable, Callable]] = {
    "relu": (relu, relu_grad),
    "identity": (identity, identity_grad),
}


def get_activation(name: str) -> Tuple[Callable, Callable]:
    """Return ``(activation, derivative)`` by name."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise KeyError(f"unknown activation {name!r}; "
                       f"available: {sorted(_ACTIVATIONS)}") from None
