"""First-order GCN baseline (Kipf & Welling, the paper's ref [9]).

The Kipf layer is the K=1 simplification of spectral convolution:
``Y = Â X W`` with ``Â = D̃^{-1/2} (A + I) D̃^{-1/2}``.  GANA chose
Defferrard's order-K Chebyshev filters instead; this module provides
the Kipf layer as a drop-in :class:`~repro.gcn.layers.Layer` so the
choice can be ablated (``benchmarks/bench_baseline_kipf.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gcn.layers import Dense, Dropout, Layer, ReLU
from repro.gcn.model import GCNModel
from repro.utils.rng import seeded_rng


def renormalized_adjacency(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Kipf's renormalization trick: ``D̃^{-1/2} (A+I) D̃^{-1/2}``."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    with_loops = adjacency + sp.identity(n, format="csr")
    degrees = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    d = sp.diags(inv_sqrt)
    return sp.csr_matrix(d @ with_loops @ d)


class KipfConv(Layer):
    """``Y = Â X W + b`` — one-hop neighborhood averaging.

    The propagation operator is rebuilt each forward (O(nnz)) from the
    batch's rescaled Laplacian (``L̂ = −D^{-1/2}AD^{-1/2}`` when λmax = 2):
    ``Â = ½(I − L̂) = ½(I + D^{-1/2}AD^{-1/2})``, the lazy-random-walk
    smoother — spectrally the same first-order propagation family as
    Kipf's renormalized ``D̃^{-1/2}(A+I)D̃^{-1/2}`` (available exactly
    via :func:`renormalized_adjacency` when built from raw adjacency).
    """

    def __init__(self, in_features: int, out_features: int, rng):
        super().__init__()
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.params["weight"] = rng.normal(
            0.0, scale, size=(in_features, out_features)
        )
        self.params["bias"] = np.zeros(out_features)
        self.zero_grad()

    def forward(self, x, ctx, training):
        lap = ctx.laplacian
        identity = sp.identity(lap.shape[0], format="csr")
        a_hat = sp.csr_matrix(0.5 * (identity - lap))
        self._ax = a_hat @ x
        self._a_hat = a_hat
        return self._ax @ self.params["weight"] + self.params["bias"]

    def backward(self, grad):
        self.grads["weight"] += self._ax.T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        return self._a_hat.T @ (grad @ self.params["weight"].T)


def kipf_model(
    n_features: int = 18,
    n_classes: int = 2,
    hidden: tuple[int, ...] = (32, 64),
    fc_size: int = 64,
    dropout: float = 0.2,
    seed: int = 0,
) -> GCNModel:
    """A node-classification model with Kipf layers instead of ChebConv.

    Assembled by hand (no pooling — Kipf's semi-supervised setting) but
    reusing the training stack: the returned object is a plain
    :class:`~repro.gcn.model.GCNModel` whose layer list was replaced.
    """
    from repro.gcn.model import GCNConfig

    config = GCNConfig(
        n_features=n_features,
        n_classes=n_classes,
        n_layers=len(hidden),
        channels=hidden,
        filter_size=1,
        fc_size=fc_size,
        dropout=dropout,
        batch_norm=False,
        pooling=False,
        seed=seed,
    )
    model = GCNModel(config)
    rng = seeded_rng(("kipf", seed))
    layers: list[Layer] = []
    in_features = n_features
    for width in hidden:
        layers.append(KipfConv(in_features, width, rng))
        layers.append(ReLU())
        in_features = width
    layers.append(Dense(in_features, fc_size, rng))
    layers.append(ReLU())
    layers.append(Dropout(dropout, seeded_rng(("kipf-drop", seed))))
    layers.append(Dense(fc_size, n_classes, rng))
    model.layers = layers
    return model
