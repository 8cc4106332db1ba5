"""Optimizers: convergence on convex problems, decay, weight decay,
and the parameter arena they step."""

import pickle

import numpy as np
import pytest

from repro.baselines.kipf import kipf_model
from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.exceptions import ModelConfigError
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.optim import SGD, Adam
from repro.gcn.train import FaultTolerance, TrainConfig, train


def _quadratic_slots(start):
    """One parameter dict with a single vector; loss = ½‖x − 3‖²."""
    params = {"weight": np.array(start, dtype=float)}
    grads = {"weight": np.zeros_like(params["weight"])}
    return params, grads


def _minimize(optimizer, params, grads, steps=300):
    for _ in range(steps):
        grads["weight"][:] = params["weight"] - 3.0
        optimizer.step()
    return params["weight"]


class TestSGD:
    def test_converges_on_quadratic(self):
        params, grads = _quadratic_slots([10.0, -4.0])
        opt = SGD([(params, grads)], lr=0.1, momentum=0.9)
        result = _minimize(opt, params, grads)
        np.testing.assert_allclose(result, 3.0, atol=1e-4)

    def test_momentum_accelerates(self):
        p1, g1 = _quadratic_slots([10.0])
        p2, g2 = _quadratic_slots([10.0])
        plain = SGD([(p1, g1)], lr=0.01, momentum=0.0)
        momentum = SGD([(p2, g2)], lr=0.01, momentum=0.9)
        _minimize(plain, p1, g1, steps=50)
        _minimize(momentum, p2, g2, steps=50)
        assert abs(p2["weight"][0] - 3.0) < abs(p1["weight"][0] - 3.0)

    def test_invalid_lr(self):
        with pytest.raises(ModelConfigError):
            SGD([], lr=0.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        params, grads = _quadratic_slots([10.0, -4.0])
        opt = Adam([(params, grads)], lr=0.1)
        result = _minimize(opt, params, grads, steps=500)
        np.testing.assert_allclose(result, 3.0, atol=1e-3)

    def test_first_step_size_is_lr(self):
        # With bias correction, |Δx| of the first Adam step ≈ lr.
        params, grads = _quadratic_slots([10.0])
        opt = Adam([(params, grads)], lr=0.5)
        grads["weight"][:] = params["weight"] - 3.0
        before = params["weight"].copy()
        opt.step()
        assert abs(params["weight"][0] - before[0]) == pytest.approx(0.5, rel=1e-3)

    def test_weight_decay_shrinks_weights(self):
        params = {"weight": np.array([5.0])}
        grads = {"weight": np.zeros(1)}
        opt = Adam([(params, grads)], lr=0.1, weight_decay=0.1)
        for _ in range(500):
            grads["weight"][:] = 0.0  # only the decay term acts
            opt.step()
        assert abs(params["weight"][0]) < 0.5

    def test_bias_params_skip_weight_decay(self):
        params = {"bias": np.array([5.0])}
        grads = {"bias": np.zeros(1)}
        opt = Adam([(params, grads)], lr=0.1, weight_decay=0.1)
        for _ in range(50):
            grads["bias"][:] = 0.0
            opt.step()
        assert params["bias"][0] == pytest.approx(5.0)


class TestLrDecay:
    def test_decay_multiplies(self):
        params, grads = _quadratic_slots([1.0])
        opt = SGD([(params, grads)], lr=1.0)
        opt.decay_lr(0.5)
        opt.decay_lr(0.5)
        assert opt.lr == pytest.approx(0.25)


@pytest.fixture(scope="module")
def samples():
    dataset = generate_ota_bias_dataset(6, seed="arena", workers=1)
    return build_samples(dataset, task_classes("ota"), levels=2, workers=1)


def _config() -> GCNConfig:
    return GCNConfig(
        n_classes=len(task_classes("ota")), filter_size=3, channels=(6, 6),
        fc_size=8, seed=2,
    )


_SHORT = TrainConfig(epochs=2, batch_size=4, patience=0)


def _weights(model) -> list[np.ndarray]:
    return [v.copy() for layer in model.layers for v in layer.params.values()]


def _all_moved(before, model) -> bool:
    after = _weights(model)
    return all(not np.array_equal(a, b) for a, b in zip(before, after))


class TestParameterArena:
    def test_params_and_grads_are_views_of_two_vectors(self):
        params, grads = _quadratic_slots([1.0, 2.0])
        bias = ({"bias": np.array([0.5])}, {"bias": np.zeros(1)})
        opt = Adam([(params, grads), bias], lr=0.1)
        np.testing.assert_array_equal(opt.arena.weights, [1.0, 2.0, 0.5])
        assert np.shares_memory(params["weight"], opt.arena.weights)
        assert np.shares_memory(bias[1]["bias"], opt.arena.grads)
        np.testing.assert_array_equal(opt.arena.decayed, [True, True, False])
        opt.arena.grads[:] = 1.0
        assert grads["weight"].tolist() == [1.0, 1.0]
        opt.zero_grad()
        assert not grads["weight"].any() and not bias[1]["bias"].any()

    def test_kipf_model_trains_the_weights_its_forward_reads(self, samples):
        """``kipf_model`` swaps the layer list after construction; the
        arena is laid out over the layers the optimizer is built for."""
        model = kipf_model(n_classes=len(task_classes("ota")), hidden=(6, 6), fc_size=8)
        before = _weights(model)
        train(model, samples, config=_SHORT)
        assert _all_moved(before, model)

    def test_unpickled_model_trains(self, samples):
        reference = GCNModel(_config())
        train(reference, samples, config=_SHORT)
        twin = pickle.loads(pickle.dumps(GCNModel(_config())))
        train(twin, samples, config=_SHORT)
        for name, value in reference.state_dict().items():
            np.testing.assert_array_equal(twin.state_dict()[name], value)
        # A trained model's parameters are arena views; its pickle holds
        # their values, and the copy trains on.
        again = pickle.loads(pickle.dumps(reference))
        before = _weights(again)
        train(again, samples, config=_SHORT)
        assert _all_moved(before, again)

    def test_resumed_run_trains_the_restored_weights(self, samples, tmp_path):
        fault = FaultTolerance(checkpoint_dir=tmp_path)
        train(GCNModel(_config()), samples, config=_SHORT, fault=fault)
        longer = TrainConfig(epochs=3, batch_size=4, patience=0)
        resumed = GCNModel(_config())
        history = train(resumed, samples, config=longer, fault=fault)
        assert history.resumed_from == 2
        straight = GCNModel(_config())
        train(straight, samples, config=longer)
        for name, value in straight.state_dict().items():
            np.testing.assert_array_equal(resumed.state_dict()[name], value)
