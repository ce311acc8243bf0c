"""Feedforward regression network trained by mini-batch gradient descent.

Rectifier hidden layers, identity output, mean-squared-error risk, momentum
updates.  Inputs and outputs are standardized with training-set statistics
stored inside the model, so predictions are in physical units.  The output
layer starts at zero, which makes an untrained model predict the training
mean.  Training keeps every weight and bias as a view of one flat buffer,
so a momentum step updates all layers at once (``train_mlp``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MOMENTUM = 0.9


class TrainingError(RuntimeError):
    pass


@dataclass
class MlpModel:
    sizes: list[int]                      # input, hidden..., output widths
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    def forward(self, x_std: np.ndarray) -> np.ndarray:
        a = x_std
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if layer != last:
                a = np.maximum(a, 0.0)
        return a

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected {self.sizes[0]} inputs, got {x.shape[1]}")
        out = self.forward((x - self.x_mean) / self.x_std)
        return out * self.y_std + self.y_mean

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "x_mean": self.x_mean.tolist(), "x_std": self.x_std.tolist(),
            "y_mean": self.y_mean.tolist(), "y_std": self.y_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpModel":
        return cls(sizes=list(d["sizes"]),
                   weights=[np.array(w) for w in d["weights"]],
                   biases=[np.array(b) for b in d["biases"]],
                   x_mean=np.array(d["x_mean"]), x_std=np.array(d["x_std"]),
                   y_mean=np.array(d["y_mean"]), y_std=np.array(d["y_std"]))


@dataclass
class TrainReport:
    epochs: int
    train_loss: float
    holdout_loss: float
    holdout_indices: np.ndarray = field(repr=False, default=None)


def init_model(n_in: int, hidden: list[int], n_out: int, rng) -> MlpModel:
    sizes = [n_in] + list(hidden) + [n_out]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)))
        biases.append(np.zeros(b))
    weights[-1][:] = 0.0   # untrained net predicts the (standardized) mean
    return MlpModel(sizes=sizes, weights=weights, biases=biases,
                    x_mean=np.zeros(n_in), x_std=np.ones(n_in),
                    y_mean=np.zeros(n_out), y_std=np.ones(n_out))


def _layers(flat: np.ndarray, sizes: list[int]) -> tuple[list, list]:
    """Each layer's weights and biases as views of one flat buffer, a
    layer's weights (row-major) then its biases."""
    weights, biases, at = [], [], 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + a * b].reshape(a, b))
        biases.append(flat[at + a * b:at + a * b + b])
        at += a * b + b
    return weights, biases


def loss_and_grads(model: MlpModel, x_std: np.ndarray, y_std: np.ndarray,
                   out: np.ndarray | None = None):
    """MSE loss (averaged over samples and outputs) and its gradients, as
    views of ``out`` (laid out as ``_layers`` lays out the parameters) or of
    a new buffer."""
    acts = [x_std]
    pre = []
    a = x_std
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if layer == last else np.maximum(z, 0.0)
        acts.append(a)
    err = acts[-1] - y_std
    n = x_std.shape[0]
    loss = float(np.mean(err * err))

    if out is None:
        out = np.empty(sum(a * b + b for a, b in zip(model.sizes[:-1], model.sizes[1:])))
    grad_w, grad_b = _layers(out, model.sizes)
    delta = 2.0 * err / (n * y_std.shape[1])
    for layer in range(last, -1, -1):
        np.matmul(acts[layer].T, delta, out=grad_w[layer])
        np.sum(delta, axis=0, out=grad_b[layer])
        if layer:
            delta = (delta @ model.weights[layer].T) * (pre[layer - 1] > 0.0)
    return loss, grad_w, grad_b


def train_mlp(x: np.ndarray, y: np.ndarray, hidden: list[int] = [64, 64],
              lr: float = 0.01, batch: int = 32,
              epochs: int = 300, seed: int = 0,
              holdout: float = 0.1) -> tuple[MlpModel, TrainReport]:
    """Train on a 90/10 split; the returned report carries both losses.

    Weights and biases are views of one flat parameter buffer, and so are
    their velocities and gradients, so a momentum step is four operations
    on whole buffers: v = 0.9 v, g = lr g, v = v - g, params = params + v,
    elementwise the per-layer ``0.9 * v - lr * g`` and ``w += v``, bit for
    bit.  Each epoch gathers its shuffled rows once, into buffers kept for
    the whole run; a mini-batch is a slice of them, with the values of
    gathering the batch's rows.

    Raises TrainingError naming the epoch if the loss turns non-finite.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("training set is empty or misaligned")
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    perm = rng.permutation(n)
    n_hold = int(round(holdout * n))
    hold_idx = perm[:n_hold]
    train_idx = perm[n_hold:]
    xt, yt = x[train_idx], y[train_idx]

    model = init_model(x.shape[1], hidden, y.shape[1], rng)
    params = np.concatenate([t.ravel() for w, b in zip(model.weights, model.biases)
                             for t in (w, b)])
    model.weights, model.biases = _layers(params, model.sizes)
    model.x_mean = xt.mean(axis=0)
    model.x_std = np.maximum(xt.std(axis=0), 1e-9)
    model.y_mean = yt.mean(axis=0)
    model.y_std = np.maximum(yt.std(axis=0), 1e-9)
    xs = (xt - model.x_mean) / model.x_std
    ys = (yt - model.y_mean) / model.y_std

    vel = np.zeros_like(params)
    grad = np.empty_like(params)
    n_train = xs.shape[0]
    loss = float(np.mean(((model.forward(xs)) - ys) ** 2))
    xo, yo = np.empty_like(xs), np.empty_like(ys)      # each epoch's rows, in its order
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_train)
        np.take(xs, order, axis=0, out=xo)
        np.take(ys, order, axis=0, out=yo)
        for lo in range(0, n_train, batch):
            with np.errstate(over="ignore", invalid="ignore"):
                loss, _, _ = loss_and_grads(model, xo[lo:lo + batch], yo[lo:lo + batch], grad)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            vel *= _MOMENTUM
            grad *= lr
            vel -= grad
            params += vel

    train_loss = float(np.mean((model.forward(xs) - ys) ** 2))
    if n_hold:
        pred = model.predict(x[hold_idx])
        scale = model.y_std
        hold_loss = float(np.mean(((pred - y[hold_idx]) / scale) ** 2))
    else:
        hold_loss = float("nan")
    return model, TrainReport(epochs=epochs, train_loss=train_loss,
                              holdout_loss=hold_loss, holdout_indices=hold_idx)
