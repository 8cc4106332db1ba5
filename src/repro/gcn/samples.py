"""Sample container: one labeled circuit graph, or the disjoint union
of several, per sample.

A :class:`GraphSample` bundles everything the GCN needs for its
graphs: the 18-feature matrix, per-vertex integer labels with a
validity mask, and the precomputed coarsening pyramid (Laplacians +
cluster assignments at every level).  Building the pyramid once per
sample keeps training O(K·E) per epoch; building one sample for a
whole inference chunk builds one pyramid for all of its graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelConfigError
from repro.gcn.coarsening import CoarseningPyramid, build_union_pyramid
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole, feature_matrix
from repro.utils.rng import seeded_rng
from repro.utils.sparse import csr_from_coo


@dataclass
class GraphSample:
    """One labeled circuit graph, or the disjoint union of several,
    ready for the GCN.

    A union is one graph whose blocks happen to be disconnected: one
    feature matrix, one label vector and one coarsening pyramid, whose
    ``offsets`` say which rows each member graph owns at every level.
    It runs as a pack of one, and its per-graph results are split back
    by those offsets.  Only a one-graph sample keeps its ``graph``.
    """

    name: str
    features: np.ndarray  # (n, 18)
    labels: np.ndarray  # (n,) int class ids, -1 where unlabeled
    mask: np.ndarray  # (n,) bool — True where the label counts
    pyramid: CoarseningPyramid
    graph: CircuitGraph | None = None  # a one-graph sample's, if kept
    #: Each member graph's circuit name, in union order (empty for a
    #: sample built by hand).
    graph_names: tuple[str, ...] = ()
    #: Sample-lifetime memo shared by every packing of this sample: its
    #: rows of the first-layer Chebyshev basis, which depend only on the
    #: fixed Laplacian + features, never on weights, and its pooling
    #: tables (``repro.gcn.batch.sample_members``).
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
        """Build a sample from a circuit graph and a name→class map
        (the union of one graph, see :meth:`from_graphs`).

        ``labels`` maps device names and/or net names to class ids;
        vertices missing from the map are masked out of the loss (this
        is how boundary nets that belong to multiple sub-blocks are
        handled).
        """
        sample = cls.from_graphs(
            [graph], labels=[labels], levels=levels, net_roles=[net_roles],
            seed=seed,
        )
        if keep_graph:
            sample.graph = graph
        return sample

    @classmethod
    def from_graphs(
        cls,
        graphs: list[CircuitGraph],
        labels: list[dict[str, int]] | None = None,
        levels: int = 2,
        net_roles: list[dict[str, NetRole] | None] | None = None,
        seed: object = 0,
    ) -> "GraphSample":
        """Build one sample for the disjoint union of ``graphs``.

        ``labels`` and ``net_roles`` are per-graph lists (``None``: no
        labels, inferred roles).  Graph ``i``'s vertices follow graph
        ``i-1``'s; each graph coarsens with its own
        ``seeded_rng(("coarsen", seed, name))`` stream, so the sample
        equals ``pack_samples`` of the graphs' own samples bit for bit
        (see :func:`~repro.gcn.coarsening.build_union_pyramid`).
        """
        if not graphs:
            raise ModelConfigError("cannot build a sample of no graphs")
        labels = labels or [None] * len(graphs)
        net_roles = net_roles or [None] * len(graphs)
        sizes = [graph.n_vertices for graph in graphs]
        bounds = np.zeros(len(graphs) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        n = int(bounds[-1])

        features = np.concatenate(
            [
                feature_matrix(graph, net_roles=roles)
                for graph, roles in zip(graphs, net_roles)
            ]
        )
        label_array = np.full(n, -1, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        for graph, graph_labels, base in zip(graphs, labels, bounds.tolist()):
            if not graph_labels:
                continue
            for vertex in range(graph.n_vertices):
                name = graph.vertex_name(vertex)
                if name in graph_labels:
                    label_array[base + vertex] = graph_labels[name]
                    mask[base + vertex] = True

        # One adjacency for the union: each graph's (element, net)
        # edges, both directions, shifted to its own rows.
        ends = []
        for graph, base in zip(graphs, bounds.tolist()):
            element, net, _label = graph.edge_arrays()
            ends.append((element + base, net + (base + graph.n_elements)))
        rows = np.concatenate([e for e, _ in ends] + [v for _, v in ends])
        cols = np.concatenate([v for _, v in ends] + [e for e, _ in ends])
        adjacency = csr_from_coo(rows, cols, np.ones(len(rows)), n)
        rngs = [seeded_rng(("coarsen", seed, g.circuit.name)) for g in graphs]
        pyramid = build_union_pyramid(adjacency, levels, rngs, bounds)
        graph_names = tuple(graph.circuit.name for graph in graphs)
        return cls(
            name="+".join(graph_names),
            features=features,
            labels=label_array,
            mask=mask,
            pyramid=pyramid,
            graph_names=graph_names,
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
