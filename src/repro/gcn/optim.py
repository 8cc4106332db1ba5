"""Optimizers stepping one flat parameter arena.

An optimizer lays every parameter it is built for out in one flat
weight vector and every gradient in one flat gradient vector
(:class:`ParameterArena`), and rebinds each layer's ``params`` and
``grads`` entries to views of them.  Layers read their weights and
accumulate their gradients through those views, so zeroing the
gradients is one fill and a step is a handful of long vector ops, each
element computed exactly as a per-tensor update would compute it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError

#: Parameter names that skip weight decay: biases and batch-norm
#: offsets, by convention.
UNDECAYED = ("bias", "beta")


class ParameterArena:
    """One flat weight vector and one flat gradient vector, with every
    parameter and gradient of ``slots`` a view into them.

    ``slots`` are (params, grads) dict pairs; the arena lays their
    arrays out in slot order, then key order, copies each into its
    span, and rebinds the dict entries to the views.  From then on the
    aliasing must hold: code that sets a parameter writes into its
    array (``GCNModel.load_state_dict`` does) and never rebinds it.
    A model that is pickled and unpickled gets separate arrays back,
    and the optimizer built for its next training run lays out a new
    arena over them.
    """

    def __init__(self, slots: list[tuple[dict, dict]]):
        #: Each array's (slot, key, start, stop, shape), in arena order.
        self.layout: list[tuple[int, str, int, int, tuple]] = []
        size = 0
        for slot, (params, _grads) in enumerate(slots):
            for key, value in params.items():
                self.layout.append((slot, key, size, size + value.size, value.shape))
                size += value.size
        self.n_slots = len(slots)
        self.weights = np.empty(size)
        self.grads = np.zeros(size)
        #: True where weight decay applies (see :data:`UNDECAYED`).
        self.decayed = np.empty(size, dtype=bool)
        for _slot, key, start, stop, _shape in self.layout:
            self.decayed[start:stop] = key not in UNDECAYED
        weight_views, grad_views = self.views(self.weights), self.views(self.grads)
        for (params, grads), weights, gradients in zip(slots, weight_views, grad_views):
            for key, weight in weights.items():
                weight[...] = params[key]
                if key in grads:
                    gradients[key][...] = grads[key]
            params.update(weights)
            grads.update(gradients)

    @property
    def size(self) -> int:
        return self.weights.size

    def views(self, flat: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Per-slot dicts of views into ``flat``, an array laid out like
        the arena (the weights, the gradients, optimizer state)."""
        out: list[dict[str, np.ndarray]] = [{} for _ in range(self.n_slots)]
        for slot, key, start, stop, shape in self.layout:
            out[slot][key] = flat[start:stop].reshape(shape)
        return out


class Optimizer:
    """Base optimizer over a list of (params, grads) dict pairs, which
    it lays out in one :class:`ParameterArena`."""

    def __init__(self, slots: list[tuple[dict, dict]], lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ModelConfigError(f"learning rate must be positive, got {lr}")
        self.slots = slots
        self.arena = ParameterArena(slots)
        self.lr = lr
        self.weight_decay = weight_decay
        self._decayed_buffer = np.empty(self.arena.size)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Zero every gradient the optimizer steps (one fill)."""
        self.arena.grads.fill(0.0)

    def state_dict(self) -> dict:
        """Resumable optimizer state (copies; JSON scalars + arrays).

        The layout is flat — scalar entries plus ``np.ndarray`` entries —
        so checkpoint envelopes can split it into an npz payload and a
        JSON header without knowing which optimizer produced it.
        """
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (shape-checked)."""
        raise NotImplementedError

    def decay_lr(self, factor: float) -> None:
        """Multiply the learning rate by ``factor`` (decay-rate knob)."""
        self.lr *= factor

    def _decayed_grad(self) -> np.ndarray:
        """The arena's gradient, plus ``weight_decay × weight`` where
        decay applies (each decayed element is ``grad + wd·weight``,
        the rest are the gradient itself)."""
        grads = self.arena.grads
        if not self.weight_decay:
            return grads
        out = self._decayed_buffer
        np.copyto(out, grads)
        np.add(
            out, self.weight_decay * self.arena.weights,
            out=out, where=self.arena.decayed,
        )
        return out


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, slots, lr, momentum: float = 0.9, weight_decay: float = 0.0):
        super().__init__(slots, lr, weight_decay)
        self.momentum = momentum
        self._velocity = np.zeros(self.arena.size)
        #: Per-slot views of the velocity (the :meth:`state_dict` layout).
        self.velocity = self.arena.views(self._velocity)

    def step(self) -> None:
        self._velocity *= self.momentum
        self._velocity -= self.lr * self._decayed_grad()
        self.arena.weights += self._velocity

    def state_dict(self) -> dict:
        state: dict = {"kind": "sgd", "lr": float(self.lr)}
        for idx, vel in enumerate(self.velocity):
            for key, value in vel.items():
                state[f"velocity{idx}.{key}"] = value.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "sgd":
            raise ModelConfigError(
                f"optimizer state is {state.get('kind')!r}, expected 'sgd'"
            )
        for idx, vel in enumerate(self.velocity):
            for key in vel:
                name = f"velocity{idx}.{key}"
                if name not in state:
                    raise ModelConfigError(f"missing optimizer state {name}")
                if state[name].shape != vel[key].shape:
                    raise ModelConfigError(
                        f"shape mismatch for optimizer state {name}: "
                        f"{state[name].shape} vs {vel[key].shape}"
                    )
                vel[key][...] = state[name]
        self.lr = float(state["lr"])


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction.

    Moment state lives in one flat vector per moment, laid out like the
    arena, so a step is a handful of long elementwise array ops over the
    whole arena instead of ~10 small ops per parameter tensor — bitwise
    identical to the per-tensor update (elementwise math has no
    accumulation-order freedom).
    """

    def __init__(
        self,
        slots,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(slots, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros(self.arena.size)
        self.v = np.zeros(self.arena.size)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        g = self._decayed_grad()
        self.m *= self.beta1
        self.m += (1 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1 - self.beta2) * g * g
        self.arena.weights -= (
            self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        )

    def state_dict(self) -> dict:
        return {
            "kind": "adam",
            "lr": float(self.lr),
            "t": int(self.t),
            "m": self.m.copy(),
            "v": self.v.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "adam":
            raise ModelConfigError(
                f"optimizer state is {state.get('kind')!r}, expected 'adam'"
            )
        for moment in ("m", "v"):
            if state[moment].shape != getattr(self, moment).shape:
                raise ModelConfigError(
                    f"optimizer moment {moment!r} has shape "
                    f"{state[moment].shape}, expected {getattr(self, moment).shape}"
                )
        self.m[:] = state["m"]
        self.v[:] = state["v"]
        self.t = int(state["t"])
        self.lr = float(state["lr"])
