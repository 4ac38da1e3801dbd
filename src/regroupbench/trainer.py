"""From-scratch softmax classifier (linear or MLP with ReLU hidden layers)
trained by mini-batch SGD with momentum and a cosine-annealed learning rate.

Training is single-threaded and fully deterministic: identical inputs and
seeds produce bit-identical models.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .losses import LossError, LossSpec, batch_loss_values, loss_and_grad, softmax


class TrainingError(ValueError):
    """Raised for bad configuration or dimension mismatches."""


class TrainingDiverged(RuntimeError):
    """Raised when the logits, the loss or the weights become non-finite."""


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    output_dim: int
    hidden_dims: tuple[int, ...] = ()
    init_seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.hidden_dims)
        if self.input_dim < 1 or self.output_dim < 2 or any(d < 1 for d in dims):
            raise TrainingError(f"invalid layer dims: {self.input_dim}, {dims}, {self.output_dim}")
        object.__setattr__(self, "hidden_dims", dims)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 0.01
    lr_min: float = 0.0
    epochs: int = 100
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 0.0
    shuffle_seed: int = 0

    def __post_init__(self):
        if not (self.lr_max >= self.lr_min >= 0):
            raise TrainingError("need lr_max >= lr_min >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("epochs and batch_size must be >= 1")


FULL_RECIPE = TrainConfig(lr_max=0.01, epochs=300, batch_size=256)


@dataclass(frozen=True)
class TrainedModel:
    spec: MlpSpec
    weights: tuple[np.ndarray, ...]  # (fan_in, fan_out) per layer
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        for a in (*self.weights, *self.biases):
            if not np.all(np.isfinite(a)):
                raise TrainingDiverged("non-finite parameters")
            a.setflags(write=False)


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]      # full-pass loss at each epoch end
    train_accuracy: tuple[float, ...]
    learning_rate: tuple[float, ...]


def cosine_lr(t: int, T: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Cosine annealing: lr_min + (lr_max - lr_min) (1 + cos(pi t / T)) / 2."""
    if T < 1 or not 0 <= t <= T:
        raise TrainingError(f"epoch index {t} outside 0..{T}")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / T))


def init_params(spec: MlpSpec):
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(spec.init_seed)
    dims = spec.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(X, weights, biases):
    """Returns (logits, list of post-activation values per layer incl. input)."""
    acts = [X]
    a = X
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        a = z if i == len(weights) - 1 else np.maximum(z, 0.0)
        acts.append(a)
    return acts[-1], acts


def _layer_views(flat: np.ndarray, dims):
    """Per-layer views of a flat buffer: all weight matrices (row-major), then all biases."""
    shapes = list(zip(dims[:-1], dims[1:]))
    parts = np.split(flat, np.cumsum([i * o for i, o in shapes] + list(dims[1:-1])))
    return [p.reshape(s) for p, s in zip(parts, shapes)], parts[len(shapes):]


def _backprop(X, y, weights, biases, loss: LossSpec, grads_w, grads_b) -> float:
    """Mean batch loss; writes its gradients into grads_w / grads_b (labels unchecked)."""
    logits, acts = _forward(X, weights, biases)
    if not np.isfinite(logits).all():
        raise LossError("non-finite logits")
    values, delta = loss_and_grad(logits, y, loss)
    delta /= X.shape[0]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        delta.sum(axis=0, out=grads_b[i])
        if i > 0:
            delta = (delta @ weights[i].T) * (acts[i] > 0)
    return float(values.mean())


def batch_gradients(X, y, weights, biases, loss: LossSpec):
    """Mean batch loss and gradients w.r.t. every weight/bias."""
    gw, gb = [np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases]
    return _backprop(X, y, weights, biases, loss, gw, gb), gw, gb


def train(train_ds: Dataset, spec: MlpSpec, loss: LossSpec, cfg: TrainConfig):
    """Mini-batch SGD with momentum; lr fixed within an epoch from the
    cosine schedule; last partial batch kept and averaged over its size.

    Returns (TrainedModel, TrainHistory). Raises TrainingDiverged with the
    offending epoch/batch if the logits, loss or weights go non-finite.
    """
    if train_ds.dim != spec.input_dim:
        raise TrainingError(f"dataset dim {train_ds.dim} != spec input_dim {spec.input_dim}")
    if train_ds.num_classes > spec.output_dim:
        raise TrainingError(f"{train_ds.num_classes} classes exceed {spec.output_dim} output heads")
    if loss.kind in ("wce", "ldam") and len(loss.class_counts) != spec.output_dim:
        raise TrainingError(f"{loss.kind} needs one class count per output head")
    X, y = train_ds.features, train_ds.labels
    # Dataset guarantees finite features and labels < num_classes <= output_dim.
    theta = np.concatenate([p.ravel() for layer in init_params(spec) for p in layer])
    grad, vel = np.zeros_like(theta), np.zeros_like(theta)
    weights, biases = _layer_views(theta, spec.layer_dims)
    gw, gb = _layer_views(grad, spec.layer_dims)
    n_weights = sum(w.size for w in weights)
    rng = np.random.default_rng(cfg.shuffle_seed)
    hist_loss, hist_acc, hist_lr = [], [], []

    def diverged(what: str, detail: str = "") -> TrainingDiverged:
        return TrainingDiverged(f"{what} at epoch {epoch}, batch {start // cfg.batch_size}{detail}")

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cosine_lr(epoch, cfg.epochs, cfg.lr_max, cfg.lr_min)
            order = rng.permutation(train_ds.n)
            for start in range(0, train_ds.n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                try:
                    loss_mean = _backprop(X[batch], y[batch], weights, biases, loss, gw, gb)
                except LossError as exc:
                    raise diverged("non-finite forward pass", f": {exc}") from exc
                if not math.isfinite(loss_mean):
                    raise diverged("non-finite loss")
                if cfg.weight_decay:
                    grad[:n_weights] += cfg.weight_decay * theta[:n_weights]
                vel *= cfg.momentum
                vel += grad
                theta -= lr * vel
                if not np.isfinite(theta[:n_weights]).all():
                    raise diverged("non-finite parameters")
            logits, _ = _forward(X, weights, biases)
            hist_loss.append(float(batch_loss_values(logits, y, loss).mean()))
            hist_acc.append(float(np.mean(np.argmax(logits, axis=1) == y)))
            hist_lr.append(lr)

    model = TrainedModel(spec, tuple(weights), tuple(biases))
    history = TrainHistory(tuple(hist_loss), tuple(hist_acc), tuple(hist_lr))
    return model, history


def predict_logits(model: TrainedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.input_dim:
        raise TrainingError(f"input shape {X.shape} != input_dim {model.spec.input_dim}")
    logits, _ = _forward(X, model.weights, model.biases)
    return logits


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """(n, C) softmax probabilities; rows sum to 1."""
    return softmax(predict_logits(model, X))


def save_model_json(model: TrainedModel, path):
    """Text serialization; json round-trips float64 exactly (repr floats)."""
    doc = {
        "input_dim": model.spec.input_dim,
        "output_dim": model.spec.output_dim,
        "hidden_dims": list(model.spec.hidden_dims),
        "init_seed": model.spec.init_seed,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_model_json(path) -> TrainedModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    spec = MlpSpec(
        doc["input_dim"], doc["output_dim"], tuple(doc["hidden_dims"]), doc["init_seed"]
    )
    weights = tuple(np.array(w, dtype=np.float64) for w in doc["weights"])
    biases = tuple(np.array(b, dtype=np.float64) for b in doc["biases"])
    return TrainedModel(spec, weights, biases)
