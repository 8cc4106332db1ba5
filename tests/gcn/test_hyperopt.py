"""Random-search hyperparameter optimization."""

import pytest

from repro.gcn.hyperopt import SearchSpace, random_search
from repro.gcn.model import GCNConfig
from repro.gcn.samples import GraphSample
from repro.gcn.train import TrainConfig
from repro.graph.bipartite import CircuitGraph
from repro.spice.flatten import flatten
from repro.spice.parser import parse_netlist
from tests.conftest import DIFF_OTA_DECK


@pytest.fixture()
def tiny_samples():
    graph = CircuitGraph.from_circuit(flatten(parse_netlist(DIFF_OTA_DECK)))
    sample = GraphSample.from_graph(
        graph, {"m0": 1, "m1": 1, "m2": 0, "m3": 0, "m4": 0, "m5": 0}, levels=2
    )
    return [sample]


def _base_model():
    return GCNConfig(
        n_classes=2, filter_size=4, channels=(4, 4), fc_size=8, seed=0
    )


def _base_train():
    return TrainConfig(epochs=3, batch_size=1, patience=0)


class TestRandomSearch:
    def test_runs_requested_trials(self, tiny_samples):
        result = random_search(
            _base_model(), _base_train(), tiny_samples, tiny_samples,
            n_trials=3, space=SearchSpace(filter_size=(4,)),
        )
        assert len(result.trials) == 3

    def test_best_has_max_accuracy(self, tiny_samples):
        result = random_search(
            _base_model(), _base_train(), tiny_samples, tiny_samples,
            n_trials=3, space=SearchSpace(filter_size=(4,)),
        )
        assert result.best.val_accuracy == max(
            t.val_accuracy for t in result.trials
        )

    def test_samples_within_space(self, tiny_samples):
        space = SearchSpace(
            lr=(1e-3, 1e-2),
            weight_decay=(1e-6, 1e-5),
            dropout=(0.1,),
            filter_size=(4, 8),
        )
        result = random_search(
            _base_model(), _base_train(), tiny_samples, tiny_samples,
            n_trials=4, space=space, seed=1,
        )
        for trial in result.trials:
            assert 1e-3 <= trial.train_config.lr <= 1e-2
            assert 1e-6 <= trial.train_config.weight_decay <= 1e-5
            assert trial.model_config.dropout == 0.1
            assert trial.model_config.filter_size in (4, 8)

    def test_deterministic_for_seed(self, tiny_samples):
        kwargs = dict(n_trials=2, space=SearchSpace(filter_size=(4,)), seed=42)
        a = random_search(_base_model(), _base_train(), tiny_samples, tiny_samples, **kwargs)
        b = random_search(_base_model(), _base_train(), tiny_samples, tiny_samples, **kwargs)
        assert [t.train_config.lr for t in a.trials] == [
            t.train_config.lr for t in b.trials
        ]

    def test_trials_keep_base_settings(self, tiny_samples):
        """Only lr, weight decay, lr decay and the seed vary by trial;
        the base's optimizer and momentum hold in every trial."""
        base = TrainConfig(
            epochs=2, batch_size=1, patience=0, optimizer="sgd", momentum=0.0
        )
        result = random_search(
            _base_model(), base, tiny_samples, tiny_samples,
            n_trials=3, space=SearchSpace(filter_size=(4,)),
        )
        for idx, trial in enumerate(result.trials):
            assert trial.train_config.optimizer == "sgd"
            assert trial.train_config.momentum == 0.0
            assert trial.train_config.seed == base.seed + idx
