"""Graph substrate: bipartite circuit graphs, features, Laplacians, CCC."""

from repro.graph.bipartite import (
    DRAIN_BIT,
    GATE_BIT,
    SOURCE_BIT,
    CircuitGraph,
    Edge,
)
from repro.graph.ccc import CCCPartition, channel_connected_components
from repro.graph.features import (
    N_FEATURES,
    NetRole,
    ValueBuckets,
    feature_matrix,
    feature_names,
    infer_net_role,
)
from repro.graph.laplacian import (
    chebyshev_laplacian,
    fourier_basis,
    laplacian_spectrum,
    largest_eigenvalue,
    normalized_laplacian,
    rescaled_laplacian,
)

__all__ = [
    "CCCPartition",
    "CircuitGraph",
    "DRAIN_BIT",
    "Edge",
    "GATE_BIT",
    "N_FEATURES",
    "NetRole",
    "SOURCE_BIT",
    "ValueBuckets",
    "channel_connected_components",
    "chebyshev_laplacian",
    "feature_matrix",
    "feature_names",
    "fourier_basis",
    "infer_net_role",
    "laplacian_spectrum",
    "largest_eigenvalue",
    "normalized_laplacian",
    "rescaled_laplacian",
]
