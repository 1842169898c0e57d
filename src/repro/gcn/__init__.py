"""Single-process reference GCN.

The Kipf & Welling GCN trained with plain SGD (:func:`train_reference`)
is the correctness oracle for the distributed trainer in
:mod:`repro.core` (the paper observes no accuracy difference between the
sparsity-oblivious and sparsity-aware implementations, and the
integration tests hold this reproduction to the same standard).  Its
activations, initialisation, loss and metrics are shared with the
distributed model.
"""

from .activations import get_activation, identity, relu, relu_grad
from .init import glorot_normal, glorot_uniform, init_weights, layer_seeds
from .layers import GraphConvLayer, LayerCache, LayerGradients
from .loss import (loss_and_grad, masked_cross_entropy,
                   masked_cross_entropy_grad, softmax)
from .metrics import accuracy, masked_accuracy
from .model import ForwardState, GCNModel
from .train import (EpochRecord, ReferenceTrainConfig, TrainResult,
                    train_reference)

__all__ = [
    "get_activation", "identity", "relu", "relu_grad",
    "glorot_normal", "glorot_uniform", "init_weights", "layer_seeds",
    "GraphConvLayer", "LayerCache", "LayerGradients",
    "loss_and_grad", "masked_cross_entropy", "masked_cross_entropy_grad",
    "softmax",
    "accuracy", "masked_accuracy",
    "ForwardState", "GCNModel",
    "EpochRecord", "ReferenceTrainConfig", "TrainResult", "train_reference",
]
