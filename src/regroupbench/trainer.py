"""From-scratch softmax classifier (linear or MLP with ReLU hidden layers)
trained by mini-batch SGD with momentum and a cosine-annealed learning rate.

Training is single-threaded and fully deterministic: identical inputs and
seeds produce bit-identical models. `train` fits one model, or many in
stacks of S same-shape models, each in one loop (batched matmul over (S,
fan_in, fan_out) weights); each model's bits equal its one-model call's. A
model that diverges keeps its row, held at zero, until its stack ends.
After every epoch an O(P) bound on the logits (`_logit_bound`) screens each
model for divergence; only models the bound cannot clear run the exact pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, typed
from .losses import COUNTED_KINDS, LossError, LossSpec, loss_and_grad, softmax

_LOGIT_LIMIT = 2.0**1000  # a `_logit_bound` below this clears the exact epoch-end pass


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
        typed(self, TrainingError)
        if self.input_dim < 1 or self.output_dim < 2 or any(d < 1 for d in self.hidden_dims):
            raise TrainingError(f"invalid layer dims: {self.layer_dims}")

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
        typed(self, TrainingError)
        if not all(map(math.isfinite, (self.lr_max, self.momentum, self.weight_decay))):
            raise TrainingError("lr_max, momentum and weight_decay must be finite")
        if not (self.lr_max >= self.lr_min >= 0):  # a finite lr_max bounds lr_min
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
    learning_rate: tuple[float, ...]  # each epoch's lr
    step_loss: tuple[float, ...]      # each epoch's mean per-sample loss over its SGD steps


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
    """(logits, [input, each layer's output]) for one model ((n, D) inputs,
    (fan_in, fan_out) weights, (fan_out,) biases) or a stack of S models
    ((S, n, D), (S, fan_in, fan_out), (S, 1, fan_out))."""
    acts = [X]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[-1], w)
        z += b
        if i < len(weights) - 1:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts[-1], acts


def _layer_views(flat: np.ndarray, dims):
    """Per-layer views of an (S, P) buffer, each row one model's parameters:
    all weight matrices (row-major) as (S, fan_in, fan_out), then all biases
    as (S, 1, fan_out)."""
    shapes = list(zip(dims[:-1], dims[1:]))
    parts = np.split(flat, np.cumsum([i * o for i, o in shapes] + list(dims[1:-1])), axis=1)
    S = flat.shape[0]
    weights = [p.reshape(S, i, o) for p, (i, o) in zip(parts, shapes)]
    return weights, [p.reshape(S, 1, p.shape[1]) for p in parts[len(shapes):]]


def _backprop(X, y, weights, biases, loss: LossSpec, grads_w, grads_b):
    """Forward and backward pass of a stack on (S, B, D) inputs and their
    (S * B,) labels (unchecked). Writes each model's mean-batch-loss
    gradients into grads_w / grads_b; returns the (S, B, C) logits and the
    (S * B,) per-sample losses."""
    logits, acts = _forward(X, weights, biases)
    S, B, C = logits.shape
    values, delta = loss_and_grad(logits.reshape(S * B, C), y, loss)
    delta /= B
    delta = delta.reshape(S, B, C)
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].transpose(0, 2, 1), delta, out=grads_w[i])
        delta.sum(axis=1, keepdims=True, out=grads_b[i])
        if i > 0:
            delta = np.matmul(delta, weights[i].transpose(0, 2, 1))
            delta *= acts[i] > 0
    return logits, values


def batch_gradients(X, y, weights, biases, loss: LossSpec):
    """Mean batch loss and gradients w.r.t. every weight/bias of one model."""
    gw = [np.empty((1, *w.shape)) for w in weights]
    gb = [np.empty((1, 1, b.size)) for b in biases]
    logits, values = _backprop(np.asarray(X)[None], np.asarray(y), [w[None] for w in weights],
                               [b[None, None] for b in biases], loss, gw, gb)
    if not np.isfinite(logits).all():
        raise LossError("non-finite logits")
    return float(values.mean()), [g[0] for g in gw], [g[0, 0] for g in gb]


def _logit_bound(x_max, weights, biases) -> np.ndarray:
    """(S,) bound on each stacked model's max |logit| over inputs with max |x| <= x_max: per layer
    b <- b * max_j sum_i |W_ij| + max |bias|, as ReLU is 1-Lipschitz. Rounding moves the float
    logits and bound by a factor (1 + 2**-53)**(2 * layers * (fan_in + 2)) at most, far inside
    max double / _LOGIT_LIMIT = 2**24: below the limit, no exact logit is inf or NaN."""
    b = x_max
    for w, c in zip(weights, biases):
        b = b * np.abs(w).sum(axis=1).max(axis=1) + np.abs(c).max(axis=(1, 2))
    return b


def _non_finite_rows(a: np.ndarray) -> np.ndarray:
    """(S,) mask of the slices of a stacked array holding a non-finite entry."""
    return ~np.isfinite(a).reshape(len(a), -1).all(axis=1)


def _full_pass(datasets, weights, biases, epoch: int, rows) -> dict:
    """Exact epoch-end forward pass over the whole dataset of each given stack
    row, one row at a time, so memory does not grow with S: {row:
    TrainingDiverged} for each row whose logits are non-finite."""
    errors = {}
    for row in rows:
        logits = _forward(datasets[row].features, [w[row] for w in weights],
                          [b[row] for b in biases])[0]
        if not np.isfinite(logits).all():
            errors[row] = TrainingDiverged(f"non-finite full-pass logits at epoch {epoch}")
    return errors


def train(train_ds, spec, loss, cfg):
    """Mini-batch SGD with momentum; lr fixed within an epoch from the
    cosine schedule; last partial batch kept and averaged over its size.

    Returns (TrainedModel, TrainHistory). Raises TrainingDiverged with the
    offending epoch/batch if the logits, loss or weights go non-finite, or
    with the epoch if the logits over the whole training set do at its end.

    Stacked form: with equal-length sequences of datasets, specs, losses (or
    one LossSpec for all) and configs, the models that agree on n, layer dims,
    loss and every config field but shuffle_seed train in one loop as an (S,
    fan_in, fan_out) stack, stacks in order of first appearance. The result
    lists, in input order, (TrainedModel, TrainHistory) or the TrainingDiverged
    that stopped the model: its row is held at zero and the others go on.
    """
    if isinstance(train_ds, Dataset):
        (result,) = train([train_ds], [spec], loss, [cfg])
        if isinstance(result, TrainingDiverged):
            raise result
        return result
    datasets, specs, cfgs = list(train_ds), list(spec), list(cfg)
    losses = [loss] * len(specs) if isinstance(loss, LossSpec) else list(loss)
    if not len(datasets) == len(specs) == len(losses) == len(cfgs):
        raise TrainingError("need one dataset, spec, loss and config per model")
    stacks: dict = {}  # the one rule for which models share a stack
    for i, (ds, spec, loss, cfg) in enumerate(zip(datasets, specs, losses, cfgs)):
        if ds.dim != spec.input_dim:
            raise TrainingError(f"dataset dim {ds.dim} != spec input_dim {spec.input_dim}")
        if ds.num_classes > spec.output_dim:
            raise TrainingError(f"{ds.num_classes} classes exceed {spec.output_dim} output heads")
        if loss.kind in COUNTED_KINDS and len(loss.class_counts) != spec.output_dim:
            raise TrainingError(f"{loss.kind} needs one class count per output head")
        stacks.setdefault((ds.n, spec.layer_dims, loss, replace(cfg, shuffle_seed=0)), []).append(i)
    # Dataset guarantees finite features and labels < num_classes <= output_dim.
    results = [None] * len(specs)
    for (_, _, loss, cfg), slots in stacks.items():
        fits = _train_stack([datasets[i] for i in slots], [specs[i] for i in slots],
                            [cfgs[i].shuffle_seed for i in slots], loss, cfg)
        for slot, result in zip(slots, fits):
            results[slot] = result
    return results


def _train_stack(datasets, specs, seeds, loss: LossSpec, cfg: TrainConfig) -> list:
    """Fit one stack of S models; each one's (TrainedModel, TrainHistory), or the
    TrainingDiverged that first stopped it, in order. The stack keeps its S rows:
    a stopped model's parameters and velocity are zeroed, and its gradients after
    every later step, so its logits stay 0 and clear every check."""
    S, (n, D), size = len(specs), datasets[0].features.shape, cfg.batch_size
    dims = specs[0].layer_dims
    n_weights = sum(i * o for i, o in zip(dims[:-1], dims[1:]))
    theta = np.stack([np.concatenate([p.ravel() for layer in init_params(spec) for p in layer])
                      for spec in specs])  # (S, P): one row per model, viewed per layer
    vel, grad = np.zeros_like(theta), np.empty_like(theta)
    (weights, biases), (grad_w, grad_b) = _layer_views(theta, dims), _layer_views(grad, dims)
    x_max = np.array([np.abs(ds.features).max() for ds in datasets])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    X_all, y_all = np.empty((S, n, D)), np.empty((S, n), dtype=np.int64)  # each epoch's order
    step_sum = np.zeros((cfg.epochs, S))  # each epoch's summed step losses
    stopped: dict = {}  # row: its first TrainingDiverged

    def hold(errors: dict):
        for row, exc in errors.items():
            stopped.setdefault(row, exc)
        theta[list(stopped)] = vel[list(stopped)] = 0.0

    lrs = tuple(cosine_lr(t, cfg.epochs, cfg.lr_max, cfg.lr_min) for t in range(cfg.epochs))
    with np.errstate(all="ignore"):
        for epoch, lr in enumerate(lrs):
            if len(stopped) == S:
                break
            for row, (rng, ds) in enumerate(zip(rngs, datasets)):
                order = rng.permutation(n)  # clips no index; "raise" would buffer the out= copy
                np.take(ds.features, order, axis=0, out=X_all[row], mode="clip")
                np.take(ds.labels, order, out=y_all[row], mode="clip")
            for start in range(0, n, size):
                X, y = X_all[:, start:start + size], y_all[:, start:start + size].ravel()
                logits, values = _backprop(X, y, weights, biases, loss, grad_w, grad_b)
                if stopped:
                    grad[list(stopped)] = 0.0
                if cfg.weight_decay:
                    grad[:, :n_weights] += cfg.weight_decay * theta[:, :n_weights]
                vel *= cfg.momentum
                vel += grad
                theta -= lr * vel
                # A sum is finite only if every term is, so one finite sum clears
                # all three checks; the loss check is each slice's own sum.
                loss_sums = values.reshape(S, -1).sum(axis=1)
                step_sum[epoch] += loss_sums
                if np.isfinite(logits.sum() + loss_sums.sum() + theta[:, :n_weights].sum()):
                    continue
                checks = (
                    ("non-finite forward pass", ": non-finite logits", _non_finite_rows(logits)),
                    ("non-finite loss", "", ~np.isfinite(loss_sums)),
                    ("non-finite parameters", "", _non_finite_rows(theta[:, :n_weights])),
                )
                errors = {}  # a sum can overflow: errors may be {}
                for what, detail, bad in checks:
                    for row in np.flatnonzero(bad):
                        errors.setdefault(row, TrainingDiverged(
                            f"{what} at epoch {epoch}, batch {start // size}{detail}"))
                hold(errors)
                if len(stopped) == S:
                    break
            bound = _logit_bound(x_max, weights, biases)
            rows = np.flatnonzero(~(bound < _LOGIT_LIMIT))  # a NaN bound fails too
            if rows.size:
                hold(_full_pass(datasets, weights, biases, epoch, rows))

    return [stopped[row] if row in stopped else (
        TrainedModel(specs[row], tuple(w[row].copy() for w in weights),
                     tuple(b[row, 0].copy() for b in biases)),
        TrainHistory(lrs, tuple((step_sum[:, row] / n).tolist())))
        for row in range(S)]


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """(n, C) softmax probabilities; rows sum to 1."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.input_dim:
        raise TrainingError(f"input shape {X.shape} != input_dim {model.spec.input_dim}")
    return softmax(_forward(X, model.weights, model.biases)[0])
