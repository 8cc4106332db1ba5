"""Training-sample container: one labeled circuit graph per sample.

A :class:`GraphSample` bundles everything the GCN needs for one
circuit: the 18-feature matrix, per-vertex integer labels with a
validity mask, and the precomputed coarsening pyramid (Laplacians +
cluster assignments at every level).  Building the pyramid once per
sample keeps training O(K·E) per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gcn.coarsening import CoarseningPyramid, build_pyramid
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole, feature_matrix
from repro.utils.rng import seeded_rng


@dataclass
class GraphSample:
    """One labeled circuit graph, ready for the GCN."""

    name: str
    features: np.ndarray  # (n, 18)
    labels: np.ndarray  # (n,) int class ids, -1 where unlabeled
    mask: np.ndarray  # (n,) bool — True where the label counts
    pyramid: CoarseningPyramid
    graph: CircuitGraph | None = None
    #: Sample-lifetime memo shared by every packing of this sample: its
    #: rows of the first-layer Chebyshev basis, which depend only on the
    #: fixed Laplacian + features, never on weights.
    runtime_cache: dict = field(default_factory=dict)

    def __getstate__(self) -> dict:
        """Pickle without the runtime memo — workers rebuild it lazily."""
        state = self.__dict__.copy()
        state["runtime_cache"] = {}
        return state

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_graph(
        cls,
        graph: CircuitGraph,
        labels: dict[str, int],
        levels: int = 2,
        net_roles: dict[str, NetRole] | None = None,
        seed: object = 0,
        keep_graph: bool = True,
    ) -> "GraphSample":
        """Build a sample from a circuit graph and a name→class map.

        ``labels`` maps device names and/or net names to class ids;
        vertices missing from the map are masked out of the loss (this
        is how boundary nets that belong to multiple sub-blocks are
        handled).
        """
        rng = seeded_rng(("coarsen", seed, graph.circuit.name))
        features = feature_matrix(graph, net_roles=net_roles)
        n = graph.n_vertices
        label_array = np.full(n, -1, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        for vertex in range(n):
            name = graph.vertex_name(vertex)
            if name in labels:
                label_array[vertex] = labels[name]
                mask[vertex] = True
        pyramid = build_pyramid(graph.adjacency(), levels=levels, rng=rng)
        return cls(
            name=graph.circuit.name,
            features=features,
            labels=label_array,
            mask=mask,
            pyramid=pyramid,
            graph=graph if keep_graph else None,
        )


def class_weights(samples: list[GraphSample], n_classes: int) -> np.ndarray:
    """Inverse-frequency class weights, normalized to mean 1.

    The OTA-bias datasets are imbalanced (signal-path vertices outnumber
    bias vertices); weighting keeps the minority class from being
    ignored.
    """
    counts = np.zeros(n_classes, dtype=np.float64)
    for sample in samples:
        valid = sample.labels[sample.mask]
        for cls_id in range(n_classes):
            counts[cls_id] += (valid == cls_id).sum()
    counts = np.maximum(counts, 1.0)
    weights = counts.sum() / (n_classes * counts)
    return weights / weights.mean()


def train_validation_split(
    samples: list[GraphSample], validation_fraction: float = 0.2, seed: object = 0
) -> tuple[list[GraphSample], list[GraphSample]]:
    """Shuffled 80/20 split (the paper's training/validation ratio)."""
    rng = seeded_rng(("split", seed))
    order = rng.permutation(len(samples))
    n_val = max(1, int(round(len(samples) * validation_fraction)))
    val_idx = set(order[:n_val].tolist())
    train = [s for i, s in enumerate(samples) if i not in val_idx]
    val = [s for i, s in enumerate(samples) if i in val_idx]
    return train, val


def kfold_indices(n: int, folds: int, seed: object = 0) -> list[np.ndarray]:
    """Index arrays for k-fold cross validation (paper uses five-fold)."""
    rng = seeded_rng(("kfold", seed, folds))
    order = rng.permutation(n)
    return [order[i::folds] for i in range(folds)]
