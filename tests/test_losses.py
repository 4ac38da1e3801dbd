import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regroupbench.losses import (
    KINDS,
    LossError,
    LossSpec,
    _row_reduce,
    batch_loss_values,
    loss_and_grad,
    loss_gradient,
    loss_value,
    loss_values,
    softmax,
)

COUNTS = (100, 900, 300)


def random_specs():
    return [
        LossSpec("ce"),
        LossSpec("wce", class_counts=COUNTS),
        LossSpec("focal", gamma=2.0),
        LossSpec("focal", gamma=0.5),
        LossSpec("focal", gamma=0.0),  # the CE-gradient branch
        LossSpec("ldam", class_counts=COUNTS, margin_scale=0.5, logit_scale=3.0),
    ]


def reference_loss_and_grad(Z, y, spec):
    """Per-sample losses and gradients written out separately, each with its
    own softmax: loss_and_grad must reproduce these bits exactly."""
    n, C = Z.shape
    rows = np.arange(n)
    onehot = np.zeros((n, C))
    onehot[rows, y] = 1.0

    def log_softmax(z):
        z = z - np.max(z, axis=-1, keepdims=True)
        return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))

    if spec.kind == "ldam":
        Zadj = Z.copy()
        Zadj[rows, y] -= spec.margins()[y]
        Zs = spec.logit_scale * Zadj
        return -log_softmax(Zs)[rows, y], spec.logit_scale * (softmax(Zs) - onehot)
    logp = log_softmax(Z)[rows, y]
    P = softmax(Z)
    if spec.kind == "ce":
        return -logp, P - onehot
    if spec.kind == "wce":
        w = spec.class_weights()[y]
        return -w * logp, w[:, None] * (P - onehot)
    values = -((1.0 - np.exp(logp)) ** spec.gamma) * logp
    if spec.gamma == 0:
        return values, P - onehot
    py = P[rows, y]
    one_minus = 1.0 - py
    logpy = np.log(py)
    dL_dpy = spec.gamma * one_minus ** (spec.gamma - 1.0) * logpy - one_minus ** spec.gamma / py
    return values, (dL_dpy * py)[:, None] * (onehot - P)


def finite_difference(logits, label, spec, h=1e-5):
    g = np.zeros_like(logits)
    for j in range(len(logits)):
        up, down = logits.copy(), logits.copy()
        up[j] += h
        down[j] -= h
        g[j] = (loss_value(up, label, spec) - loss_value(down, label, spec)) / (2 * h)
    return g


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-12)

    def test_large_logits_stable(self):
        p = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(5) * 10
        c = rng.standard_normal() * 100
        np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(LossError):
            softmax([np.nan, 0.0])


class TestLossValues:
    def test_ce_uniform_is_log_c(self):
        for C in (2, 3, 7):
            assert loss_value(np.zeros(C), 0, LossSpec("ce")) == pytest.approx(np.log(C))

    def test_focal_gamma0_is_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(4) * 3
            y = rng.integers(4)
            ce = loss_value(z, y, LossSpec("ce"))
            fo = loss_value(z, y, LossSpec("focal", gamma=0.0))
            assert fo == pytest.approx(ce, abs=1e-12)

    def test_wce_equal_counts_is_ce(self):
        rng = np.random.default_rng(1)
        spec = LossSpec("wce", class_counts=(50, 50, 50))
        for _ in range(20):
            z = rng.standard_normal(3)
            y = rng.integers(3)
            assert loss_value(z, y, spec) == pytest.approx(loss_value(z, y, LossSpec("ce")), abs=1e-12)

    def test_ldam_zero_margin_is_ce(self):
        rng = np.random.default_rng(2)
        spec = LossSpec("ldam", class_counts=COUNTS, margin_scale=0.0, logit_scale=1.0)
        for _ in range(20):
            z = rng.standard_normal(3)
            y = rng.integers(3)
            assert loss_value(z, y, spec) == pytest.approx(loss_value(z, y, LossSpec("ce")), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for spec in random_specs():
            for _ in range(20):
                z = rng.standard_normal(3) * 5
                assert loss_value(z, int(rng.integers(3)), spec) >= 0.0

    @pytest.mark.parametrize("kind", ["ce", "wce", "focal"])
    def test_shift_invariance(self, kind):
        rng = np.random.default_rng(4)
        spec = LossSpec(kind, class_counts=COUNTS if kind == "wce" else None)
        for _ in range(20):
            z = rng.standard_normal(3) * 5
            y = int(rng.integers(3))
            shifted = loss_value(z + 17.3, y, spec)
            assert shifted == pytest.approx(loss_value(z, y, spec), abs=1e-10)

    def test_ldam_shift_invariance(self):
        rng = np.random.default_rng(5)
        spec = LossSpec("ldam", class_counts=COUNTS)
        z = rng.standard_normal(3)
        assert loss_value(z + 4.2, 1, spec) == pytest.approx(loss_value(z, 1, spec), abs=1e-8)

    def test_invalid_label(self):
        with pytest.raises(LossError):
            loss_value(np.zeros(3), 3, LossSpec("ce"))

    def test_spec_validation(self):
        with pytest.raises(LossError):
            LossSpec("huber")
        with pytest.raises(LossError):
            LossSpec("wce")
        with pytest.raises(LossError):
            LossSpec("ldam", class_counts=(0, 5))

    @pytest.mark.parametrize("field", ["gamma", "margin_scale", "logit_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_hyperparameter_rejected(self, field, value):
        with pytest.raises(LossError, match="finite"):
            LossSpec("ldam", class_counts=COUNTS, **{field: value})


class TestGradients:
    def test_ce_at_uniform(self):
        g = loss_gradient(np.zeros(2), 0, LossSpec("ce"))
        np.testing.assert_allclose(g, [-0.5, 0.5], atol=1e-12)

    def test_finite_difference_all_kinds(self):
        rng = np.random.default_rng(0)
        for spec in random_specs():
            for _ in range(100):
                z = rng.standard_normal(3) * 3
                y = int(rng.integers(3))
                analytic = loss_gradient(z, y, spec)
                numeric = finite_difference(z, y, spec)
                scale = max(np.linalg.norm(numeric), 1e-4)
                assert np.linalg.norm(analytic - numeric) / scale < 1e-5, (spec.kind, z, y)

    def test_focal_gradient_vanishes_at_confident_correct(self):
        # p_y ~ 1 - 1e-6
        z = np.array([np.log(1.0 - 1e-6), np.log(1e-6)])
        g = loss_gradient(z, 0, LossSpec("focal", gamma=2.0))
        assert np.linalg.norm(g) < 1e-4

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((10, 4))
        y = rng.integers(4, size=10)
        for spec in random_specs():
            spec = LossSpec(spec.kind, class_counts=(1, 2, 3, 4) if spec.class_counts else None,
                            gamma=spec.gamma, margin_scale=spec.margin_scale,
                            logit_scale=spec.logit_scale)
            vals, grads = loss_and_grad(Z, y, spec)
            np.testing.assert_array_equal(batch_loss_values(Z, y, spec), vals)
            for i in range(10):
                assert vals[i] == pytest.approx(loss_value(Z[i], y[i], spec), abs=1e-12)
                np.testing.assert_allclose(grads[i], loss_gradient(Z[i], y[i], spec), atol=1e-12)

    @pytest.mark.parametrize("spec", random_specs(), ids=lambda s: f"{s.kind}-{s.gamma}")
    def test_loss_and_grad_finite_difference(self, spec):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((12, 3)) * 3
        y = rng.integers(3, size=12)
        _, analytic = loss_and_grad(Z, y, spec)
        h = 1e-5
        numeric = np.zeros_like(Z)
        for j in range(3):
            step = np.zeros_like(Z)
            step[:, j] = h
            up, _ = loss_and_grad(Z + step, y, spec)
            down, _ = loss_and_grad(Z - step, y, spec)
            numeric[:, j] = (up - down) / (2 * h)
        for i in range(len(y)):
            scale = max(np.linalg.norm(numeric[i]), 1e-4)
            assert np.linalg.norm(analytic[i] - numeric[i]) / scale < 1e-5, (spec.kind, i)

    @pytest.mark.parametrize("spec", random_specs(), ids=lambda s: f"{s.kind}-{s.gamma}")
    def test_loss_and_grad_bits_match_reference(self, spec):
        rng = np.random.default_rng(9)
        # wide logits push some probabilities to exactly 0 and 1
        Z = np.vstack([rng.standard_normal((40, 3)) * 3, rng.standard_normal((8, 3)) * 400])
        y = rng.integers(3, size=len(Z))
        with np.errstate(all="ignore"):  # the reference gives focal nan rows at p_y = 0
            vals, grads = loss_and_grad(Z, y, spec)
            ref_vals, ref_grads = reference_loss_and_grad(Z, y, spec)
        # rows where focal's p_y underflows (below the smallest normal float)
        # take the CE gradient instead
        # (test_focal_gradient_where_p_y_underflows_is_ce), and for gamma < 1
        # rows where p_y rounds to 1 take the zero row
        # (test_focal_gradient_where_p_y_is_one_is_zero); all others keep their bits
        at_limit = np.zeros(len(y), dtype=bool)
        if spec.kind == "focal" and spec.gamma > 0:
            py = softmax(Z)[np.arange(len(y)), y]
            at_limit = py < np.finfo(np.float64).tiny
            assert at_limit.any()
            if spec.gamma < 1:
                at_limit |= py == 1.0
        assert vals.tobytes() == ref_vals.tobytes()
        assert grads[~at_limit].tobytes() == ref_grads[~at_limit].tobytes()

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    def test_focal_gradient_where_p_y_underflows_is_ce(self, gamma):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((64, 3)) * 400
        y = rng.integers(3, size=len(Z))
        dead = softmax(Z)[np.arange(len(y)), y] < np.finfo(np.float64).tiny
        assert dead.sum() >= 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero or invalid-value warnings
            vals, grads = loss_and_grad(Z, y, LossSpec("focal", gamma=gamma))
        _, ce_grads = loss_and_grad(Z, y, LossSpec("ce"))
        assert np.isfinite(vals).all() and np.isfinite(grads).all()
        assert grads[dead].tobytes() == ce_grads[dead].tobytes()

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_focal_gradient_where_p_y_is_one_is_zero(self, gamma):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((64, 3)) * 400
        y = rng.integers(3, size=len(Z))
        flat = 1.0 - softmax(Z)[np.arange(len(y)), y] == 0.0
        assert flat.sum() >= 5
        spec = LossSpec("focal", gamma=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero or invalid-value warnings
            vals, grads = loss_and_grad(Z, y, spec)
        assert np.isfinite(vals).all() and np.isfinite(grads).all()
        assert not grads[flat].any()
        # every other row keeps the reference formula's bits
        with np.errstate(all="ignore"):
            _, ref_grads = reference_loss_and_grad(Z, y, spec)
        dead = softmax(Z)[np.arange(len(y)), y] < np.finfo(np.float64).tiny
        keep = ~flat & ~dead
        assert grads[keep].tobytes() == ref_grads[keep].tobytes()

    def test_loss_and_grad_leaves_logits_unchanged(self):
        Z = np.random.default_rng(10).standard_normal((5, 3))
        before = Z.copy()
        for spec in random_specs():
            loss_and_grad(Z, np.array([0, 1, 2, 0, 1]), spec)
        np.testing.assert_array_equal(Z, before)

    def test_wrappers_check_inputs(self):
        with pytest.raises(LossError, match="label out of range"):
            loss_gradient(np.zeros(3), 3, LossSpec("ce"))
        with pytest.raises(LossError, match="non-finite"):
            batch_loss_values(np.array([[np.inf, 0.0]]), [0], LossSpec("ce"))


class TestWceRosEquivalence:
    def test_expected_ce_under_ros_matches_wce(self):
        # fixed scores per sample; ROS resamples every class to the max count
        rng = np.random.default_rng(0)
        counts = (30, 200)
        n = sum(counts)
        y = np.repeat([0, 1], counts)
        Z = rng.standard_normal((n, 2)) * 2
        wce = batch_loss_values(Z, y, LossSpec("wce", class_counts=counts)).mean()

        ce_spec = LossSpec("ce")
        per_sample_ce = batch_loss_values(Z, y, ce_spec)
        draws = []
        for _ in range(1000):
            idx = np.concatenate([
                rng.choice(np.flatnonzero(y == c), size=max(counts), replace=True)
                for c in (0, 1)
            ])
            draws.append(per_sample_ce[idx].mean())
        draws = np.array(draws)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - wce) <= 3 * se + 1e-12


NEG_NAN = -np.float64(np.nan)  # the sign-set NaN that inf - inf gives on x86-64
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, NEG_NAN, 5e-324, -5e-324,
           np.finfo(np.float64).tiny, -1e308, 1e308, -1.0, 1.0]


@settings(max_examples=300, deadline=None)
@given(A=st.integers(1, 12).flatmap(lambda C: arrays(
    np.float64, st.tuples(st.integers(1, 30), st.just(C)),
    elements=st.one_of(st.sampled_from(SPECIAL), st.floats(width=64, allow_nan=False)))))
# a max of zeros of both signs at C = 9: numpy's own reduction keeps -0.0 there,
# where a column chain keeps +0.0
@example(A=np.array([[-0.0, -1.0, -1.0, -0.0, -0.0, -np.inf, -1.0, -np.inf, 0.0]]))
def test_row_reduce_equals_numpy_axis_reductions(A):
    """The loss's row max and row sum: bytes equal to numpy's axis-1
    reductions for every C, which pins the column-chain threshold."""
    with np.errstate(all="ignore"):
        assert _row_reduce(np.add, A, 0.0).tobytes() == A.sum(axis=1).tobytes()
        top, ref = _row_reduce(np.maximum, A, -np.inf), A.max(axis=1)
    # numpy's reduction and its elementwise maximum keep different NaNs of a
    # row that holds both signs; a NaN logit fails the step either way
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(top), nan)
    assert top[~nan].tobytes() == ref[~nan].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    C=st.integers(2, 12),
    n=st.integers(1, 40),
    scale=st.sampled_from([0.1, 3.0, 400.0]),
    zeros=st.floats(0.0, 0.5),
    gamma=st.sampled_from([0.0, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_values_bits_equal_loss_and_grad(kind, C, n, scale, zeros, gamma, seed):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, C)) * scale
    at_zero = rng.random((n, C)) < zeros  # rows whose max is a zero of either sign
    Z[at_zero] = rng.choice([0.0, -0.0], size=at_zero.sum())
    y = rng.integers(C, size=n)
    counts = tuple(int(c) for c in rng.integers(1, 1000, size=C))
    spec = LossSpec(kind, class_counts=counts if kind in ("wce", "ldam") else None, gamma=gamma)
    with np.errstate(all="ignore"):  # focal's reference gives nan gradients at p_y = 0
        values = loss_values(Z, y, spec)
        assert values.tobytes() == loss_and_grad(Z, y, spec)[0].tobytes()
        # and both equal the reference's axis-reduction softmax
        assert values.tobytes() == reference_loss_and_grad(Z, y, spec)[0].tobytes()
