"""Multiclass training losses with analytic gradients: CE, inverse-frequency
weighted CE, focal, and LDAM (margin) loss.

`_shifted_exp` is the one softmax: loss_and_grad, the one loss routine,
takes a batch's losses and logit gradients from it, and softmax
(trainer.predict_proba's) the probabilities. The checked helpers
(batch_loss_values, loss_value, loss_gradient) read loss_and_grad.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("ce", "wce", "focal", "ldam")
COUNTED_KINDS = ("wce", "ldam")  # the kinds that take class_counts
_SMALLEST_NORMAL = np.finfo(np.float64).tiny
_CHAIN_C = 8  # below this many classes numpy 2.4.6 folds each row in order


class LossError(ValueError):
    """Raised for invalid loss configuration or inputs."""


@dataclass(frozen=True)
class LossSpec:
    """Which loss to use and its hyperparameters.

    class_counts is required for wce and ldam. Defaults follow the standard
    choices from the focal/LDAM literature: gamma=2, margins normalized so
    the largest per-class margin is 0.5, logit scale 30.
    """

    kind: str = "ce"
    class_counts: tuple[int, ...] | None = None
    gamma: float = 2.0
    margin_scale: float = 0.5
    logit_scale: float = 30.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LossError(f"unknown loss kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in COUNTED_KINDS:
            if self.class_counts is None or any(c < 1 for c in self.class_counts):
                raise LossError(f"{self.kind} needs strictly positive class_counts")
        if not 0 <= self.gamma < np.inf:  # written so that NaN fails too
            raise LossError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if not (0 <= self.margin_scale < np.inf and 0 < self.logit_scale < np.inf):
            raise LossError("margin_scale must be >= 0 and logit_scale > 0, both finite")
        if self.class_counts is not None:
            object.__setattr__(self, "class_counts", tuple(int(c) for c in self.class_counts))
        # wce weights or ldam margins: loss_and_grad indexes them on every batch
        per_class = {"wce": self.class_weights, "ldam": self.margins}.get(self.kind)
        object.__setattr__(self, "_per_class", per_class() if per_class else None)

    def class_weights(self) -> np.ndarray:
        """Inverse-frequency weights w_c = n / (C * n_c), mean-one over samples."""
        counts = np.asarray(self.class_counts, dtype=np.float64)
        return counts.sum() / (len(counts) * counts)

    def margins(self) -> np.ndarray:
        """Per-class margins proportional to n_c^(-1/4), scaled so the
        largest margin equals margin_scale."""
        counts = np.asarray(self.class_counts, dtype=np.float64)
        raw = counts ** -0.25
        return self.margin_scale * raw / raw.max()


def _row_reduce(op, A: np.ndarray, initial: float) -> np.ndarray:
    """op.reduce(A, axis=1) for op np.maximum or np.add, bytes equal (either op
    may keep another NaN of a row whose NaNs differ in sign). Below _CHAIN_C
    columns numpy folds each row left to right (a sum from +0.0), and this
    column chain does the same several times faster."""
    if A.shape[1] >= _CHAIN_C:
        return op.reduce(A, axis=1)
    out = op(A[:, 0], initial)
    for j in range(1, A.shape[1]):
        op(out, A[:, j], out=out)
    return out


def _shifted_exp(Z: np.ndarray):
    """The one softmax, unnormalized: (n, C) logits max-shifted, their exp, its row sums."""
    zs = Z - _row_reduce(np.maximum, Z, -np.inf)[:, None]
    e = np.exp(zs)
    return zs, e, _row_reduce(np.add, e, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: `_shifted_exp` over its row sums."""
    z = np.asarray(logits, dtype=np.float64)
    if np.any(np.isnan(z)):
        raise LossError("NaN logits")
    _, e, s = _shifted_exp(z.reshape(-1, z.shape[-1]))
    return (e / s[:, None]).reshape(z.shape)


def loss_and_grad(Z: np.ndarray, y: np.ndarray, spec: LossSpec):
    """Per-sample losses (n,) and d loss / d logits (n, C) for (n, C) logits Z
    and labels y, from one shared softmax of the (LDAM: margin-shifted and
    scaled) logits. Unchecked: y must lie in 0..C-1 and Z must be finite float64."""
    rows = np.arange(len(y))
    if spec.kind == "ldam":
        Z = Z.copy()
        Z[rows, y] -= spec._per_class[y]
        Z *= spec.logit_scale
    zs, e, s = _shifted_exp(Z)
    logp = zs[rows, y] - np.log(s)
    P = e / s[:, None]
    P[rows, y] -= 1.0  # P - onehot, the CE gradient
    if spec.kind == "wce":
        w = spec._per_class[y]
        return -w * logp, w[:, None] * P
    if spec.kind == "ldam":
        return -logp, spec.logit_scale * P
    if spec.kind == "ce":
        return -logp, P
    values = -((1.0 - np.exp(logp)) ** spec.gamma) * logp
    if spec.gamma == 0:  # focal at gamma 0 is CE; avoids 0 * inf at p_y = 1
        return values, P
    # dL/dp_y * dp_y/dz, with dp_y/dz_j = p_y (1{j=y} - p_j)
    py = e[rows, y] / s
    # Where p_y underflows (0 or subnormal, so 1/p_y may overflow) the factor
    # dL/dp_y * p_y tends to -1: those rows take the CE gradient, and 0.5
    # keeps log(p_y) and 1/p_y finite until they are overwritten.
    dead = py < _SMALLEST_NORMAL
    any_dead = dead.any()
    if any_dead:
        py[dead] = 0.5
    one_minus = 1.0 - py
    # For gamma < 1, (1 - p_y) ** (gamma - 1) is inf where p_y rounds to 1 and
    # the row would be inf * log(1) = NaN; its limit is the zero row.
    flat = (one_minus == 0.0) & (spec.gamma < 1.0)
    any_flat = flat.any()
    if any_flat:
        one_minus[flat] = 0.5
    dL_dpy = spec.gamma * one_minus ** (spec.gamma - 1.0) * np.log(py)
    dL_dpy -= one_minus ** spec.gamma / py
    onehot_minus_p = 0.0 - P  # a subtraction, not a negation: zeros stay +0
    onehot_minus_p[rows, y] = one_minus
    grad = (dL_dpy * py)[:, None] * onehot_minus_p
    if any_dead:
        grad[dead] = P[dead]
    if any_flat:
        grad[flat] = 0.0
    return values, grad


def _checked(logits, labels):
    Z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if np.any(y < 0) or np.any(y >= Z.shape[1]):
        raise LossError(f"label out of range for {Z.shape[1]} classes")
    if not np.all(np.isfinite(Z)):
        raise LossError("non-finite logits")
    return Z, y


def batch_loss_values(logits: np.ndarray, labels: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Per-sample loss values for an (n, C) logit matrix: loss_and_grad's."""
    return loss_and_grad(*_checked(logits, labels), spec)[0]


def loss_value(logits, label: int, spec: LossSpec) -> float:
    """Loss for a single sample (1-D logits)."""
    return float(batch_loss_values(np.asarray(logits)[None, :], [label], spec)[0])


def loss_gradient(logits, label: int, spec: LossSpec) -> np.ndarray:
    """Analytic gradient of loss_value w.r.t. the logits."""
    return loss_and_grad(*_checked(np.asarray(logits)[None, :], [label]), spec)[1][0]
