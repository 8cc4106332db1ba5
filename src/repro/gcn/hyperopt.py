"""Random-search hyperparameter optimization (Sec. V-A).

"a random search method is used to optimize hyperparameters such as the
learning rate, regularization, decay rate, and filter size."  Each trial
samples a point from :class:`SearchSpace`, trains on the training
split, and is scored by validation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.samples import GraphSample
from repro.gcn.train import TrainConfig, evaluate, train
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class SearchSpace:
    """Ranges the random search draws from.

    ``lr`` and ``weight_decay`` are sampled log-uniformly; the discrete
    dimensions uniformly.
    """

    lr: tuple[float, float] = (3e-4, 3e-2)
    weight_decay: tuple[float, float] = (1e-6, 1e-3)
    lr_decay: tuple[float, float] = (0.9, 1.0)
    dropout: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5)
    filter_size: tuple[int, ...] = (4, 8, 16, 32, 48)


@dataclass
class Trial:
    """One random-search draw and its outcome."""

    model_config: GCNConfig
    train_config: TrainConfig
    val_accuracy: float = 0.0


@dataclass
class SearchResult:
    """All trials plus the winner."""

    trials: list[Trial] = field(default_factory=list)

    @property
    def best(self) -> Trial:
        return max(self.trials, key=lambda t: t.val_accuracy)


def random_search(
    base_model: GCNConfig,
    base_train: TrainConfig,
    train_samples: list[GraphSample],
    val_samples: list[GraphSample],
    n_trials: int = 10,
    space: SearchSpace | None = None,
    seed: object = 0,
) -> SearchResult:
    """Run ``n_trials`` random draws; returns every trial, the best
    available via :attr:`SearchResult.best`.

    Each trial trains ``base_train`` with the drawn ``lr``,
    ``weight_decay`` and ``lr_decay`` and a per-trial seed; every other
    setting (optimizer, momentum, patience, ...) is the base's.
    """
    space = space or SearchSpace()
    rng = seeded_rng(("hyperopt", seed))
    result = SearchResult()
    for trial_idx in range(n_trials):
        lr = _log_uniform(rng, *space.lr)
        weight_decay = _log_uniform(rng, *space.weight_decay)
        lr_decay = float(rng.uniform(*space.lr_decay))
        dropout = float(rng.choice(space.dropout))
        filter_size = int(rng.choice(space.filter_size))

        model_config = base_model.with_(
            dropout=dropout, filter_size=filter_size, seed=base_model.seed + trial_idx
        )
        train_config = replace(
            base_train,
            lr=lr,
            weight_decay=weight_decay,
            lr_decay=lr_decay,
            seed=base_train.seed + trial_idx,
        )
        model = GCNModel(model_config)
        train(model, train_samples, val_samples, train_config)
        accuracy = evaluate(model, val_samples)
        result.trials.append(
            Trial(model_config=model_config, train_config=train_config, val_accuracy=accuracy)
        )
    return result


def _log_uniform(rng, low: float, high: float) -> float:
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))
