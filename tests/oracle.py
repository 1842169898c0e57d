"""The numeric oracle: how close a distributed forward must sit to its
reference, per (dtype, association order), and how close a cached
(narrow-side) training run must sit to the paper-order one.

``(A H) W`` (the paper's order, what training runs) and ``A (H W)``
(weight-first, what the inference forward runs on a layer that narrows)
are the same product summed in a different order, so they agree to
rounding, not bitwise.  This module is the one place that says how much
rounding each precision is allowed; tests import the tolerance from here
instead of picking their own.

Two references:

* the distributed **training forward** (``model.forward()``), which runs
  the same compiled SpMM plans in paper order — the only reference an
  *exact* row can be held against;
* :func:`single_node_logits`, the host recompute from the global matrix
  (what the benchmark gate checks served responses against).  A
  single-node CSR product sums each row in one pass where the distributed
  one sums per block column, so against it even a paper-order result is a
  reassociation and is held to the bounded row of its dtype
  (:func:`assert_matches_single_node`).

Training has one row (:func:`assert_training_matches`): a run with
``cache_input_propagation`` runs the backward at the narrow side of each
layer — ``(A H)^T G`` and ``A (G W^T)`` where the paper's schedule forms
``H^T (A G)`` and ``(A G) W^T`` — so its losses and weights agree with
the uncached paper-order run to rounding, per gradient wire dtype.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.costmodel import inference_spmm_widths

PAPER_ORDER = "paper"               # (A H) W on every layer
WEIGHT_FIRST = "weight_first"       # A (H W) on at least one layer
NARROW_SIDE = "narrow_side"         # cached training vs paper order

#: ``allclose`` tolerances per (dtype, association order); ``None`` is
#: bit for bit (``np.array_equal``).  The float64 bound is the benchmark
#: gate's own (measured: <= 2e-15 absolute on logits of magnitude ~1);
#: the float32 one leaves two decimal digits over the measured 8.4e-7.
TOLERANCES: Dict[Tuple[str, str], Optional[Dict[str, float]]] = {
    ("float64", PAPER_ORDER): None,
    ("float64", WEIGHT_FIRST): {"rtol": 1e-9, "atol": 1e-12},
    ("float32", PAPER_ORDER): None,
    ("float32", WEIGHT_FIRST): {"rtol": 1e-4, "atol": 1e-5},
    # Losses and weights after a few epochs, keyed by the gradient wire
    # dtype (measured on amazon 0.05, 3 epochs, every variant: weights
    # <= 5.6e-17 / 1.5e-8 / 2.4e-5 absolute, losses <= 0 / 8.3e-10 /
    # 1.6e-6 relative).  A bfloat16 wire turns a rounding-level change of
    # a gradient into a flipped bfloat16 rounding, one wire ulp times the
    # learning rate.
    ("float64", NARROW_SIDE): {"rtol": 1e-9, "atol": 1e-12},
    ("float32", NARROW_SIDE): {"rtol": 1e-5, "atol": 1e-6},
    ("bfloat16", NARROW_SIDE): {"rtol": 1e-3, "atol": 2e-4},
}


def association_order(layer_dims: Sequence[int]) -> str:
    """The order the inference forward runs ``layer_dims`` in."""
    narrows = inference_spmm_widths(layer_dims) != \
        [int(d) for d in layer_dims[:-1]]
    return WEIGHT_FIRST if narrows else PAPER_ORDER


def single_node_logits(model, features: np.ndarray) -> np.ndarray:
    """Paper-order forward of ``features`` on the host, from the model's
    global adjacency and weights, in the model's dtype."""
    adjacency = sp.vstack(model.adjacency.block_rows).tocsr()
    h = np.asarray(features, dtype=model.dtype)
    for weight, (act, _) in zip(model.weights, model._activations):
        h = act((adjacency @ h) @ weight)
    return h


def vertex_order_features(node_data) -> np.ndarray:
    """``node_data``'s features in its vertex order: a permuted
    ``NodeData`` keeps the caller's array and records the order in
    ``feature_order``, so an oracle gathers the rows the model reads."""
    order = node_data.feature_order
    return node_data.features if order is None else \
        node_data.features[order]


def row_blocked_logits(model, features: np.ndarray) -> np.ndarray:
    """Paper-order forward of ``features`` on the host, cast to the model
    dtype up front and propagated one adjacency block row at a time with
    each product in one shot — ``global_logits``' association, so the two
    agree bit for bit however ``global_logits`` splits the columns of
    ``X``.  (Against :func:`single_node_logits` they agree only where
    BLAS rounds a row of a GEMM the same for every row count; it does
    not, e.g., for float64 on reddit 0.05's tiny blocks.)"""
    h = np.asarray(features).astype(model.dtype)
    for weight, (act, _) in zip(model.weights, model._activations):
        h = np.concatenate([act((rows @ h) @ weight)
                            for rows in model.adjacency.block_rows])
    return h


def assert_matches_reference(result: np.ndarray, reference: np.ndarray,
                             dtype, order: str) -> None:
    """``result`` agrees with ``reference`` within the (dtype, order) row."""
    assert result.dtype == reference.dtype == np.dtype(dtype)
    tolerance = TOLERANCES[(np.dtype(dtype).name, order)]
    if tolerance is None:
        np.testing.assert_array_equal(result, reference)
    else:
        np.testing.assert_allclose(result, reference, **tolerance)


def assert_matches_single_node(result: np.ndarray, model,
                               features: np.ndarray) -> None:
    """``result`` agrees with the host recompute of ``features`` — always
    a reassociation, whatever order the distributed side ran."""
    assert_matches_reference(result, single_node_logits(model, features),
                             model.dtype, WEIGHT_FIRST)


def assert_training_matches(cached, paper_order) -> None:
    """Two training results of one configuration — ``cached`` with
    ``cache_input_propagation`` (the narrow-side backward), ``paper_order``
    without — agree in every epoch's loss and every final weight within
    the (gradient wire dtype, :data:`NARROW_SIDE`) row."""
    assert cached.config.cache_input_propagation
    assert not paper_order.config.cache_input_propagation
    wire = cached.config.grad_dtype or cached.config.dtype
    tolerance = TOLERANCES[(wire, NARROW_SIDE)]
    np.testing.assert_allclose([h.loss for h in cached.history],
                               [h.loss for h in paper_order.history],
                               **tolerance)
    for got, want in zip(cached.model.weight_state(),
                         paper_order.model.weight_state()):
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, **tolerance)
