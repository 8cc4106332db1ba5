"""Baseline comparison — the paper's motivating claims, quantified.

1. **Template library vs GCN** (Sec. I): library-based recognition
   "requires an enumeration of possible topologies in an exhaustive
   database" and "cannot be easily adapted to new topology variants".
   We curate a template database from the training circuits and score
   it on held-out circuits *whose topology families were excluded from
   training* — the GCN generalizes, the library collapses.

2. **Chebyshev (K=32) vs first-order Kipf propagation**: the paper
   builds on Defferrard's localized filters; the K-ablation baseline
   shows the wide-filter advantage on the same data.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._common import EPOCHS, PAPER, load_pipeline, write_result
from repro.baselines.kipf import kipf_model
from repro.baselines.template import subblock_template_library
from repro.datasets.ota import OtaSpec, generate_ota, ota_variants
from repro.datasets.synth import build_samples, task_classes
from repro.gcn.train import TrainConfig, evaluate, train
from repro.graph.bipartite import CircuitGraph

N_TRAIN = 120 if PAPER else 30
N_TEST = 40 if PAPER else 10


def _split_by_topology(seed: object):
    """Training sees four topology families; testing sees the other two
    — the 'variants that have not even been designed to date' setting."""
    held_out = {"folded_cascode", "fully_differential"}
    train_items, test_items = [], []
    index = 0
    for spec in ota_variants(4 * (N_TRAIN + N_TEST), seed=seed):
        if spec.topology in held_out:
            if len(test_items) < N_TEST:
                test_items.append(generate_ota(spec, name=f"ho{index}"))
        else:
            if len(train_items) < N_TRAIN:
                train_items.append(generate_ota(spec, name=f"tr{index}"))
        index += 1
        if len(train_items) >= N_TRAIN and len(test_items) >= N_TEST:
            break
    return train_items, test_items


@pytest.fixture(scope="module")
def topology_split():
    return _split_by_topology("baseline-split")


def bench_baseline_template_vs_gcn(benchmark, topology_split):
    train_items, test_items = topology_split

    # Library-based recognizer: enumerate the training topologies.
    recognizer = subblock_template_library(train_items)

    # GCN: train on the same circuits.
    classes = task_classes("ota")
    train_samples = build_samples(train_items, classes, levels=2)
    from repro.gcn.model import GCNConfig, GCNModel

    model = GCNModel(
        GCNConfig(n_classes=2, filter_size=16, channels=(16, 32), fc_size=64)
    )
    train(
        model,
        train_samples,
        config=TrainConfig(epochs=max(12, EPOCHS // 3), patience=0),
    )

    template_scores, gcn_scores = [], []
    for item in test_items:
        graph = CircuitGraph.from_circuit(item.circuit)
        truth = item.truth(graph)
        template_scores.append(recognizer.accuracy(graph, truth))
        from repro.gcn.samples import GraphSample

        sample = GraphSample.from_graph(graph, {}, levels=2)
        [predictions] = model.predict_batch([sample])
        device_truth = {
            n: c for n, c in truth.items() if n in graph.element_index
        }
        correct = sum(
            1
            for name, cls in device_truth.items()
            if classes[predictions[graph.element_vertex(name)]] == cls
        )
        gcn_scores.append(correct / len(device_truth))

    benchmark.pedantic(
        lambda: recognizer.accuracy(
            CircuitGraph.from_circuit(test_items[0].circuit),
            test_items[0].truth(),
        ),
        rounds=3,
        iterations=1,
    )

    template_mean = float(np.mean(template_scores))
    gcn_mean = float(np.mean(gcn_scores))
    lines = [
        f"held-out topology families: folded_cascode, fully_differential",
        f"training circuits: {len(train_items)}  held-out circuits: {len(test_items)}",
        f"template database size: {len(recognizer.templates)} entries",
        "",
        "{:<28} {:>10}".format("method", "device acc"),
        "{:<28} {:>9.1%}".format("template library [2,3]", template_mean),
        "{:<28} {:>9.1%}".format("GANA GCN", gcn_mean),
    ]
    write_result("baseline_template_vs_gcn", "\n".join(lines))

    # The paper's motivating gap: the GCN generalizes to unseen
    # variants; exact template matching does not.
    assert gcn_mean > template_mean + 0.2


def bench_baseline_kipf_vs_chebyshev(benchmark, topology_split):
    train_items, test_items = topology_split
    classes = task_classes("ota")
    train_samples = build_samples(train_items, classes, levels=2)
    test_samples = build_samples(test_items, classes, levels=2)

    from repro.gcn.model import GCNConfig, GCNModel

    cheb = GCNModel(
        GCNConfig(
            n_classes=2, filter_size=16, channels=(16, 32), fc_size=64,
            pooling=False,
        )
    )
    epochs = max(12, EPOCHS // 3)
    train(cheb, train_samples, config=TrainConfig(epochs=epochs, patience=0))
    cheb_acc = evaluate(cheb, test_samples)

    kipf = kipf_model(n_classes=2, hidden=(16, 32), fc_size=64, dropout=0.2)
    train(kipf, train_samples, config=TrainConfig(epochs=epochs, patience=0))
    kipf_acc = evaluate(kipf, test_samples)

    benchmark.pedantic(
        lambda: evaluate(cheb, test_samples[:4]), rounds=3, iterations=1
    )

    lines = [
        "{:<28} {:>10}".format("model", "vertex acc"),
        "{:<28} {:>9.1%}".format("Chebyshev GCN (K=16)", cheb_acc),
        "{:<28} {:>9.1%}".format("first-order Kipf GCN", kipf_acc),
    ]
    write_result("baseline_kipf_vs_chebyshev", "\n".join(lines))

    # Wide spectral filters should not lose to one-hop propagation.
    assert cheb_acc >= kipf_acc - 0.03
