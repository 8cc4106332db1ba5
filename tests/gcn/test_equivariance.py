"""Permutation equivariance — the property that makes a GCN a *graph*
network: relabeling the vertices permutes the outputs identically.

This is the formal counterpart of the paper's motivation that spectral
filters are "independent of the embedding of the graph in the plane".
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcn.chebyshev import chebyshev_basis
from repro.gcn.layers import ChebConv, SampleContext
from repro.graph.laplacian import normalized_laplacian, rescaled_laplacian
from repro.utils.rng import seeded_rng

pytestmark = pytest.mark.property


def _random_graph(seed: int, n: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    adj = (upper | upper.T).astype(float)
    return sp.csr_matrix(adj)


def _permutation_matrix(perm: np.ndarray) -> sp.csr_matrix:
    n = len(perm)
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), perm)), shape=(n, n)
    )


class TestChebyshevEquivariance:
    @given(
        st.integers(min_value=3, max_value=20),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_basis_equivariant(self, n, seed):
        """T_k(L̂(PAPᵀ)) (Px) = P · T_k(L̂(A)) x for any permutation P."""
        rng = np.random.default_rng(seed)
        adj = _random_graph(seed, n)
        x = rng.normal(size=(n, 2))
        perm = rng.permutation(n)
        p = _permutation_matrix(perm)

        lap = rescaled_laplacian(normalized_laplacian(adj))
        lap_perm = rescaled_laplacian(
            normalized_laplacian(p @ adj @ p.T)
        )
        basis = chebyshev_basis(lap, x, order=4)
        basis_perm = chebyshev_basis(lap_perm, p @ x, order=4)
        for k in range(4):
            np.testing.assert_allclose(basis_perm[k], p @ basis[k], atol=1e-9)

    def test_chebconv_layer_equivariant(self):
        n = 12
        adj = _random_graph(7, n)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        p = _permutation_matrix(perm)

        layer = ChebConv(3, 5, order=4, rng=seeded_rng(0))
        lap = rescaled_laplacian(normalized_laplacian(adj))
        lap_perm = rescaled_laplacian(normalized_laplacian(p @ adj @ p.T))

        out = layer.forward(
            x, SampleContext(laplacians=[lap]), training=False
        )
        out_perm = layer.forward(
            np.asarray((p @ x)), SampleContext(laplacians=[lap_perm]), training=False
        )
        np.testing.assert_allclose(out_perm, np.asarray(p @ out), atol=1e-9)

    def test_isomorphic_circuits_get_matching_predictions(self):
        """Two netlists differing only in device order / net names get
        identical per-vertex predictions up to the isomorphism."""
        from repro.gcn.model import GCNConfig, GCNModel
        from repro.gcn.samples import GraphSample
        from repro.graph.bipartite import CircuitGraph
        from repro.spice.flatten import flatten
        from repro.spice.parser import parse_netlist

        # Net names kept role-neutral on both sides: a net literally
        # named "bias" would (intentionally) get the bias-type feature
        # and break the isomorphism.
        deck_a = """
m1 out inp tail gnd! nmos w=2u l=100n
m2 outn inn tail gnd! nmos w=2u l=100n
m3 tail bg gnd! gnd! nmos w=1u l=100n
.end
"""
        # Same circuit: devices reordered, nets renamed consistently.
        deck_b = """
m3 t b gnd! gnd! nmos w=1u l=100n
m2 on i2 t gnd! nmos w=2u l=100n
m1 o i1 t gnd! nmos w=2u l=100n
.end
"""
        ga = CircuitGraph.from_circuit(flatten(parse_netlist(deck_a)))
        gb = CircuitGraph.from_circuit(flatten(parse_netlist(deck_b)))
        config = GCNConfig(
            n_classes=2, filter_size=4, channels=(4, 4), fc_size=8,
            dropout=0.0, batch_norm=False, pooling=False,
        )
        model = GCNModel(config)
        sa = GraphSample.from_graph(ga, {}, levels=0)
        sb = GraphSample.from_graph(gb, {}, levels=0)
        pa, pb = (model.predict_proba_batch([s])[0] for s in (sa, sb))
        # Match vertices through the device correspondence.
        pairs = [("m1", "m1"), ("m2", "m2"), ("m3", "m3")]
        for name_a, name_b in pairs:
            va = ga.element_vertex(name_a)
            vb = gb.element_vertex(name_b)
            np.testing.assert_allclose(pa[va], pb[vb], atol=1e-9)
        net_pairs = [("tail", "t"), ("inp", "i1"), ("out", "o")]
        for net_a, net_b in net_pairs:
            np.testing.assert_allclose(
                pa[ga.net_vertex(net_a)], pb[gb.net_vertex(net_b)], atol=1e-9
            )
