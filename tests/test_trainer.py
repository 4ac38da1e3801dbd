import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regroupbench import trainer
from regroupbench.dataset import Dataset
from regroupbench.losses import LossSpec, batch_loss_values
from regroupbench.regrouping import regroup_binary
from regroupbench.trainer import (
    MlpSpec,
    TrainConfig,
    TrainingDiverged,
    TrainingError,
    batch_gradients,
    cosine_lr,
    init_params,
    predict_proba,
    train,
)


def separable_dataset(seed=0, n_per=100, margin=1.0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, (n_per, 2)) + [0.0, 2.0 + margin]
    neg = rng.uniform(-1, 1, (n_per, 2)) + [0.0, -2.0 - margin]
    X = np.vstack([pos, neg])
    return Dataset(X, np.repeat([0, 1], n_per))


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 300, 0.01) == pytest.approx(0.01)
        assert cosine_lr(300, 300, 0.01, 0.001) == pytest.approx(0.001)
        assert cosine_lr(150, 300, 0.01, 0.002) == pytest.approx(0.006)

    def test_out_of_range(self):
        with pytest.raises(TrainingError):
            cosine_lr(11, 10, 0.01)


class TestBackprop:
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    def test_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(42)
        spec = MlpSpec(3, 3, hidden, init_seed=1)
        weights, biases = init_params(spec)
        X = rng.standard_normal((8, 3))
        y = rng.integers(3, size=8)
        loss = LossSpec("ce")
        _, gw, gb = batch_gradients(X, y, weights, biases, loss)

        def batch_loss():
            logits, _ = trainer._forward(X, weights, biases)
            return batch_loss_values(logits, y, loss).mean()

        h = 1e-5
        for params, grads in ((weights, gw), (biases, gb)):
            for layer, grad in zip(params, grads):
                flat = layer.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = batch_loss()
                    flat[idx] = orig - h
                    down = batch_loss()
                    flat[idx] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = grad.reshape(-1)[idx]
                    assert abs(analytic - numeric) / max(abs(numeric), 1e-6) < 1e-4


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        ds = separable_dataset()
        spec = MlpSpec(2, 2, (), init_seed=0)
        cfg = TrainConfig(epochs=50, batch_size=32, shuffle_seed=0)
        model, _ = train(ds, spec, LossSpec("ce"), cfg)
        assert np.all(predict_proba(model, ds.features).argmax(axis=1) == ds.labels)

    def test_loss_decreases(self):
        ds = separable_dataset()
        spec = MlpSpec(2, 2, (32,), init_seed=0)
        _, history = train(ds, spec, LossSpec("ce"), TrainConfig(epochs=10))
        assert history.step_loss[9] < history.step_loss[0]

    def test_zero_lr_keeps_initial_parameters(self):
        ds = separable_dataset()
        spec = MlpSpec(2, 2, (4,), init_seed=3)
        cfg = TrainConfig(lr_max=0.0, lr_min=0.0, epochs=3)
        model, _ = train(ds, spec, LossSpec("ce"), cfg)
        w0, b0 = init_params(spec)
        for w, winit in zip(model.weights, w0):
            np.testing.assert_array_equal(w, winit)
        for b, binit in zip(model.biases, b0):
            np.testing.assert_array_equal(b, binit)

    def test_bit_identical_given_same_seeds(self):
        ds = separable_dataset()
        spec = MlpSpec(2, 2, (8,), init_seed=5)
        cfg = TrainConfig(epochs=5, shuffle_seed=11)
        m1, h1 = train(ds, spec, LossSpec("ce"), cfg)
        m2, h2 = train(ds, spec, LossSpec("ce"), cfg)
        assert h1 == h2
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)

    def test_history_length(self):
        ds = separable_dataset()
        _, history = train(ds, MlpSpec(2, 2), LossSpec("ce"), TrainConfig(epochs=7))
        assert len(history.learning_rate) == 7
        assert len(history.step_loss) == 7

    def test_step_loss_at_zero_lr_is_the_initial_loss(self):
        ds = separable_dataset()
        spec = MlpSpec(2, 2, (8,), init_seed=3)
        cfg = TrainConfig(lr_max=0.0, epochs=3, batch_size=16)
        _, history = train(ds, spec, LossSpec("ce"), cfg)
        # lr 0 never moves the parameters, so every step of an epoch (12
        # batches of 16, one of 8) sees the initial model
        logits = trainer._forward(ds.features, *init_params(spec))[0]
        initial = batch_loss_values(logits, ds.labels, LossSpec("ce")).mean()
        assert history.step_loss == pytest.approx((initial,) * 3, rel=1e-12)

    def test_divergence_reported_with_location(self):
        ds = separable_dataset()
        cfg = TrainConfig(lr_max=1e5, weight_decay=10.0, epochs=50)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+, batch \d+"):
            train(ds, MlpSpec(2, 2, (8,)), LossSpec("ce"), cfg)

    def test_each_divergence_check_names_its_location(self):
        # logits overflow: +-1e308 features through init_seed=1's weights
        huge = Dataset(np.array([[1e308, 1e308], [-1e308, -1e308]]), [0, 1])
        match = r"^non-finite forward pass at epoch 0, batch 0: non-finite logits$"
        with pytest.raises(TrainingDiverged, match=match):
            train(huge, MlpSpec(2, 2, (), init_seed=1), LossSpec("ce"), TrainConfig(epochs=1))
        # finite logits about 2e308 apart: the label's log-probability is -inf
        spread = Dataset(np.array([[1e308, 0.0], [-1e308, 0.0]]), [0, 1])
        with pytest.raises(TrainingDiverged, match=r"^non-finite loss at epoch 0, batch 0$"):
            train(spread, MlpSpec(2, 2, (), init_seed=1), LossSpec("ce"), TrainConfig(epochs=1))
        # finite loss and gradient, but lr * velocity overflows the weights
        ds = separable_dataset()
        wide = Dataset(ds.features * 100, ds.labels)
        with pytest.raises(TrainingDiverged, match=r"^non-finite parameters at epoch 0, batch 0$"):
            train(wide, MlpSpec(2, 2), LossSpec("ce"), TrainConfig(lr_max=1e308, epochs=1))

    def test_class_counts_must_match_output_heads(self):
        ds = separable_dataset()
        for kind in ("wce", "ldam"):
            with pytest.raises(TrainingError, match="one class count per output head"):
                train(ds, MlpSpec(2, 3), LossSpec(kind, class_counts=(100, 100)),
                      TrainConfig(epochs=1))

    def test_dimension_mismatch(self):
        ds = separable_dataset()
        with pytest.raises(TrainingError):
            train(ds, MlpSpec(3, 2), LossSpec("ce"), TrainConfig(epochs=1))

    def test_regroup_k1_training_identity(self):
        ds = separable_dataset(seed=2)
        pseudo, _ = regroup_binary(ds, 1, seed=0)
        spec = MlpSpec(2, 2, (8,), init_seed=1)
        cfg = TrainConfig(epochs=5, shuffle_seed=2)
        m1, h1 = train(ds, spec, LossSpec("ce"), cfg)
        m2, h2 = train(pseudo, spec, LossSpec("ce"), cfg)
        assert h1 == h2
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)


# SHA-256 (first 16 hex digits) of the trained weight and bias bytes plus the
# TrainHistory floats (learning rates and step losses). The trainer that
# computed the loss and its gradient with separate softmaxes and kept one
# array per layer gave the same models; the one that also kept full-pass
# curves gave these digests. Any change to the floating-point operations of
# a training step changes them.
# Recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (Haswell kernels) on x86-64;
# a BLAS that rounds small matmuls differently needs them recorded afresh.
GOLDEN_COUNTS = (7, 30, 16)  # n = 53: batches of 16 leave a partial last batch of 5
GOLDEN_DIGESTS = {
    ("ce", (), 0.0): "3ba62f57bcc8bc44",
    ("ce", (), 0.001): "4193c1a18b0fe296",
    ("ce", (8,), 0.0): "f526940738d7869a",
    ("ce", (8,), 0.001): "877dbecb19b5fb84",
    ("ce", (6, 4), 0.0): "cd2ae4037213b227",
    ("ce", (6, 4), 0.001): "91834c6e446702be",
    ("wce", (), 0.0): "f1a8a25f7ed1b742",
    ("wce", (), 0.001): "b39ce7929616e512",
    ("wce", (8,), 0.0): "596035914d98384c",
    ("wce", (8,), 0.001): "f9f680da7497a436",
    ("wce", (6, 4), 0.0): "f102cda19f79a755",
    ("wce", (6, 4), 0.001): "f8dd363b69547743",
    ("focal", (), 0.0): "6fc13a329d0615a9",
    ("focal", (), 0.001): "515d93091d746db8",
    ("focal", (8,), 0.0): "a9b85c6842b5a673",
    ("focal", (8,), 0.001): "e198539861e2be22",
    ("focal", (6, 4), 0.0): "1efcd1a9dd4347fd",
    ("focal", (6, 4), 0.001): "2079533eb8be9a14",
    ("ldam", (), 0.0): "d1be6ae3426d5a09",
    ("ldam", (), 0.001): "0ae5f0f876cdf913",
    ("ldam", (8,), 0.0): "fa5cdaca10b520cc",
    ("ldam", (8,), 0.001): "726bae5d3d05ca7e",
    ("ldam", (6, 4), 0.0): "fca72d9aede40782",
    ("ldam", (6, 4), 0.001): "02b9205f0a766b40",
}


def golden_digest(kind, hidden, weight_decay):
    rng = np.random.default_rng(123)
    y = np.repeat(np.arange(3), GOLDEN_COUNTS)
    X = rng.standard_normal((len(y), 3)) + 1.5 * np.eye(3)[y]
    loss = LossSpec(kind, class_counts=GOLDEN_COUNTS if kind in ("wce", "ldam") else None)
    cfg = TrainConfig(lr_max=0.05, lr_min=0.001, epochs=4, batch_size=16,
                      weight_decay=weight_decay, shuffle_seed=3)
    model, hist = train(Dataset(X, y), MlpSpec(3, 3, hidden, init_seed=2), loss, cfg)
    h = hashlib.sha256()
    for a in (*model.weights, *model.biases):
        h.update(np.ascontiguousarray(a).tobytes())
    for series in (hist.learning_rate, hist.step_loss):
        h.update(",".join(float(v).hex() for v in series).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "kind,hidden,weight_decay",
    list(itertools.product(("ce", "wce", "focal", "ldam"), ((), (8,), (6, 4)), (0.0, 1e-3))),
    ids=str,
)
def test_train_golden_bits(kind, hidden, weight_decay):
    assert golden_digest(kind, hidden, weight_decay) == GOLDEN_DIGESTS[kind, hidden, weight_decay]


@settings(max_examples=25, deadline=None)
@given(
    counts=st.tuples(st.integers(1, 12), st.integers(1, 30)),
    dim=st.integers(1, 3),
    data_seed=st.integers(0, 2**32 - 1),
    init_seed=st.integers(0, 1000),
    shuffle_seed=st.integers(0, 1000),
    regroup_seed=st.integers(0, 1000),
    hidden=st.sampled_from([(), (3,), (4, 2)]),
    batch_size=st.integers(1, 16),
)
def test_regroup_k1_trains_bit_identically_to_ce(
    counts, dim, data_seed, init_seed, shuffle_seed, regroup_seed, hidden, batch_size
):
    rng = np.random.default_rng(data_seed)
    y = rng.permutation(np.repeat([0, 1], counts))
    ds = Dataset(rng.standard_normal((len(y), dim)) * 2, y)
    pseudo, _ = regroup_binary(ds, 1, seed=regroup_seed)
    spec = MlpSpec(dim, 2, hidden, init_seed=init_seed)
    cfg = TrainConfig(lr_max=0.1, epochs=2, batch_size=batch_size, shuffle_seed=shuffle_seed)
    m1, h1 = train(ds, spec, LossSpec("ce"), cfg)
    m2, h2 = train(pseudo, spec, LossSpec("ce"), cfg)
    assert h1 == h2
    for a, b in zip((*m1.weights, *m1.biases), (*m2.weights, *m2.biases)):
        assert a.tobytes() == b.tobytes()


class TestPredict:
    def test_rows_sum_to_one(self):
        ds = separable_dataset()
        model, _ = train(ds, MlpSpec(2, 2, (8,)), LossSpec("ce"), TrainConfig(epochs=2))
        P = predict_proba(model, ds.features)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weight_model_is_uniform(self):
        spec = MlpSpec(2, 3)
        model_weights = (np.zeros((2, 3)),)
        model_biases = (np.zeros(3),)
        from regroupbench.trainer import TrainedModel

        model = TrainedModel(spec, model_weights, model_biases)
        P = predict_proba(model, np.random.default_rng(0).standard_normal((5, 2)))
        np.testing.assert_allclose(P, 1 / 3, atol=1e-12)


def test_spec_validation():
    with pytest.raises(TrainingError):
        MlpSpec(0, 2)
    with pytest.raises(TrainingError):
        MlpSpec(2, 1)
    with pytest.raises(TrainingError):
        TrainConfig(lr_max=0.001, lr_min=0.01)
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)


def model_bytes(model):
    return [a.tobytes() for a in (*model.weights, *model.biases)]


@settings(max_examples=40, deadline=None)
@given(
    S=st.integers(1, 5),
    kind=st.sampled_from(["ce", "wce", "focal", "ldam"]),
    hidden=st.sampled_from([(), (8,), (6, 4)]),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    batch_size=st.integers(1, 16),
    full_batches=st.integers(1, 3),
    extra_rows=st.integers(0, 15),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    exact=st.booleans(),
)
def test_stacked_training_matches_separate_calls_bit_for_bit(
    S, kind, hidden, weight_decay, batch_size, full_batches, extra_rows, dim, seed, exact
):
    rng = np.random.default_rng(seed)
    n = batch_size * full_batches + extra_rows % batch_size  # often a partial last batch
    n = max(n, 3)
    counts = np.bincount(np.r_[np.arange(3), rng.integers(3, size=n - 3)], minlength=3)
    loss = LossSpec(kind, class_counts=tuple(counts) if kind in ("wce", "ldam") else None)
    datasets, specs, cfgs = [], [], []
    for s in range(S):
        y = rng.permutation(np.repeat(np.arange(3), counts))
        X = rng.standard_normal((n, dim)) + 1.5 * np.eye(3, dim)[y]
        datasets.append(Dataset(X, y))
        specs.append(MlpSpec(dim, 3, hidden, init_seed=int(rng.integers(1000))))
        cfgs.append(TrainConfig(lr_max=0.05, lr_min=0.001, epochs=2, batch_size=batch_size,
                                weight_decay=weight_decay, shuffle_seed=int(rng.integers(1000))))
    # a logit limit of 0 fails every bound, so with `exact` every slice runs
    # the epoch-end pass after every epoch, in the stack and alone
    with mock.patch.object(trainer, "_LOGIT_LIMIT", 0.0 if exact else trainer._LOGIT_LIMIT):
        stacked = train(datasets, specs, loss, cfgs)
    assert len(stacked) == S
    for (model, history), ds, spec, cfg in zip(stacked, datasets, specs, cfgs):
        alone, alone_history = train(ds, spec, loss, cfg)
        assert model.spec == spec
        assert history == alone_history
        assert model_bytes(model) == model_bytes(alone)


def check_against_separate_calls(datasets, specs, cfgs, exact=False):
    """Train a stack (with every slice's exact epoch-end pass forced, if
    exact) and each slice alone (screened); survivors must match bit for bit
    and diverged slices carry the error their own call raises. Returns the
    error messages of the diverged slices."""
    with mock.patch.object(trainer, "_LOGIT_LIMIT", 0.0 if exact else trainer._LOGIT_LIMIT):
        results = train(datasets, specs, LossSpec("ce"), cfgs)
    return check_each_alone(results, datasets, specs, cfgs)


def check_each_alone(results, datasets, specs, cfgs):
    """Each survivor of a stacked call must match its one-model call bit for
    bit, and each diverged model carry the error its own call raises. Returns
    the error messages of the diverged models."""
    messages = []
    for result, ds, spec, cfg in zip(results, datasets, specs, cfgs):
        try:
            alone = train(ds, spec, LossSpec("ce"), cfg)
        except TrainingDiverged as exc:
            assert isinstance(result, TrainingDiverged)
            messages.append(str(result))
            assert str(result) == str(exc)
            continue
        assert result[1] == alone[1]
        assert model_bytes(result[0]) == model_bytes(alone[0])
    return messages


def test_diverged_slice_leaves_the_stack_and_others_keep_their_bits():
    rng = np.random.default_rng(5)
    y = np.repeat([0, 1], (20, 33))
    datasets = [Dataset(rng.standard_normal((53, 2)) * scale, y) for scale in (1, 1e140, 1, 1)]
    specs = [MlpSpec(2, 2, (4,), init_seed=s) for s in range(4)]
    cfgs = [TrainConfig(lr_max=0.1, epochs=3, batch_size=16, shuffle_seed=s) for s in range(4)]
    # slice 1's logits overflow at its second step; the others train on
    for exact in (True, False):
        messages = check_against_separate_calls(datasets, specs, cfgs, exact)
        assert messages == ["non-finite forward pass at epoch 0, batch 1: non-finite logits"]

    # one batch per epoch: the huge slice's step is finite, its epoch-end pass
    # is not; with `exact` every slice runs the pass, the middle one between
    # two that pass it, and screened only the huge slice fails the logit bound
    datasets = [Dataset(np.array([[v, v], [-v, -v]]), [0, 1]) for v in (1.0, 1e200, 2.0)]
    specs = [MlpSpec(2, 2, (), init_seed=1)] * 3
    cfgs = [TrainConfig(epochs=2, shuffle_seed=s) for s in range(3)]
    for exact in (True, False):
        messages = check_against_separate_calls(datasets, specs, cfgs, exact)
        assert messages == ["non-finite full-pass logits at epoch 0"]


def test_a_stopped_model_is_held_at_zero_in_its_row():
    # one call, two stacks over four epochs, each with survivors: a hidden-layer
    # model whose logits overflow at a step (rows x 1e140), and a linear model
    # whose step stays finite but whose epoch-end pass overflows (rows x 1e200)
    rng = np.random.default_rng(5)
    y = np.repeat([0, 1], (20, 33))
    datasets = [Dataset(rng.standard_normal((53, 2)) * scale, y) for scale in (1, 1e140, 1)]
    datasets += [Dataset(np.array([[v, v], [-v, -v]]), [0, 1]) for v in (1.0, 1e200, 2.0)]
    specs = [MlpSpec(2, 2, (4,), init_seed=s) for s in range(3)] + [MlpSpec(2, 2, (), 1)] * 3
    cfgs = [TrainConfig(lr_max=0.1, epochs=4, batch_size=16, shuffle_seed=s) for s in range(6)]
    rows_checked, full_passes = [], []
    real_rows, real_pass = trainer._non_finite_rows, trainer._full_pass

    def spy_rows(a):
        rows_checked.append(len(a))
        return real_rows(a)

    def spy_pass(datasets, weights, biases, epoch, rows):
        full_passes.append((epoch, list(rows)))
        return real_pass(datasets, weights, biases, epoch, rows)

    with (mock.patch.object(trainer, "_non_finite_rows", spy_rows),
          mock.patch.object(trainer, "_full_pass", spy_pass)):
        results = train(datasets, specs, LossSpec("ce"), cfgs)
    assert check_each_alone(results, datasets, specs, cfgs) == [
        "non-finite forward pass at epoch 0, batch 1: non-finite logits",
        "non-finite full-pass logits at epoch 0",
    ]
    # a held row's logits stay 0: the per-row checks run at the one step where
    # a model stops (logits, then parameters), and the exact pass only at the
    # epoch end where the linear model stops, never again for a held row
    assert rows_checked == [3, 3]
    assert full_passes == [(0, [1])]


def test_slices_diverging_at_one_batch_keep_their_own_messages():
    # three slices fail batch 0 of epoch 0, each through a different check
    # (the cases of test_each_divergence_check_names_its_location), beside a
    # slice that trains on
    datasets = [Dataset(np.array(rows), [0, 1]) for rows in (
        [[1e308, 1e308], [-1e308, -1e308]],  # logits overflow
        [[1e308, 0.0], [-1e308, 0.0]],       # finite logits, -inf log-probability
        [[100.0, 100.0], [-100.0, -100.0]],  # finite loss, lr * velocity overflows
        [[1e-300, 1e-300], [-1e-300, -1e-300]],
    )]
    specs = [MlpSpec(2, 2, (), init_seed=1)] * 4
    cfgs = [TrainConfig(lr_max=1e308, epochs=1, shuffle_seed=s) for s in range(4)]
    messages = check_against_separate_calls(datasets, specs, cfgs)
    assert messages == [
        "non-finite forward pass at epoch 0, batch 0: non-finite logits",
        "non-finite loss at epoch 0, batch 0",
        "non-finite parameters at epoch 0, batch 0",
    ]


def test_epoch_end_pass_memory_does_not_grow_with_the_stack():
    n, D = 2000, 2

    def peak(S):
        rng = np.random.default_rng(0)
        datasets = [Dataset(rng.standard_normal((n, D)), np.arange(n) % 2) for _ in range(S)]
        specs = [MlpSpec(D, 2, (32,), init_seed=s) for s in range(S)]
        cfgs = [TrainConfig(epochs=2, shuffle_seed=s) for s in range(S)]
        tracemalloc.start()
        try:  # a logit limit of 0 fails every bound: every slice runs the exact pass
            with mock.patch.object(trainer, "_LOGIT_LIMIT", 0.0):
                train(datasets, specs, LossSpec("ce"), cfgs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the pass holds one slice's activations at a time, n x (2 + 32 + 2)
    # cells, which peak(1) holds too; beyond them only the (S, n, D) inputs
    # and (S, n) labels of the epoch's shuffle grow with S. A pass over all 8
    # slices at once would add 7 * n * (2 + 32 + 2) * 8 B = 4 MB.
    one_slice = n * (D + 32 + 2) * 8
    assert peak(8) - peak(1) <= 7 * n * (D + 1) * 8 + one_slice


def test_epoch_end_overflow_is_reported_as_divergence():
    # the batch step's logits are finite, the updated weights too, but the
    # epoch-end full pass overflows
    huge = Dataset(np.array([[1e200, 1e200], [-1e200, -1e200]]), [0, 1])
    for limit in (0.0, trainer._LOGIT_LIMIT):  # every bound fails, or the screen runs
        with (mock.patch.object(trainer, "_LOGIT_LIMIT", limit),
              pytest.raises(TrainingDiverged, match=r"^non-finite full-pass logits at epoch 0$")):
            train(huge, MlpSpec(2, 2, (), init_seed=1), LossSpec("ce"), TrainConfig(epochs=1))


def random_stack(data):
    """A stack of S models with random layer scales up to about 1e150 and
    inputs with scales from 1e-300 to 1e200: ((S, n, D) inputs, (S,) max |x|,
    weights, biases), in `trainer._forward`'s stacked layout."""
    hidden = data.draw(st.sampled_from([(), (8,), (6, 4)]))
    S, n, D, C = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)), 3, 3
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dims = (D, *hidden, C)
    scale = st.floats(-300, 200).map(lambda e: 10.0**e)
    X = np.stack([rng.standard_normal((n, D)) * data.draw(scale) for _ in range(S)])
    if data.draw(st.booleans()):  # every |x| at its maximum: the bound can be tight
        X = np.abs(X).max(axis=(1, 2), keepdims=True) * np.sign(X)
    weight_scale = st.floats(-5, 150).map(lambda e: 10.0**e)
    weights = [rng.standard_normal((S, i, o)) * data.draw(weight_scale)
               for i, o in zip(dims[:-1], dims[1:])]
    biases = [rng.standard_normal((S, 1, o)) * data.draw(weight_scale) for o in dims[1:]]
    return X, np.abs(X).max(axis=(1, 2)), weights, biases


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_logit_bound_is_never_below_max_logit(data):
    X, x_max, weights, biases = random_stack(data)
    with np.errstate(all="ignore"):
        logits = trainer._forward(X, weights, biases)[0]
        bound = trainer._logit_bound(x_max, weights, biases)
        top = np.abs(logits).max(axis=(1, 2))
        top[np.isnan(top)] = np.inf  # inf - inf in a layer: an overflow
        # up to rounding: a few units in the last place, far inside the
        # 2**24 margin of _LOGIT_LIMIT
        assert np.all(top <= bound * (1 + 2**-30))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_slices_the_logit_bound_clears_have_finite_logits(data):
    X, x_max, weights, biases = random_stack(data)
    with np.errstate(all="ignore"):
        logits = trainer._forward(X, weights, biases)[0]
        cleared = trainer._logit_bound(x_max, weights, biases) < trainer._LOGIT_LIMIT
    assert np.isfinite(logits[cleared]).all()


def test_models_that_differ_train_in_separate_stacks():
    ds = separable_dataset()
    cfg = TrainConfig(epochs=1)
    ce = LossSpec("ce")
    models = [  # (dataset, spec, loss, config)
        (ds, MlpSpec(2, 2, init_seed=1), ce, cfg),
        (separable_dataset(n_per=50), MlpSpec(2, 2), ce, cfg),  # n
        (ds, MlpSpec(2, 2, (4,)), ce, cfg),  # layer dims
        (ds, MlpSpec(2, 2), ce, TrainConfig(epochs=2)),  # config
        (ds, MlpSpec(2, 2), LossSpec("focal"), cfg),  # loss
        # specs may differ in init_seed and configs in shuffle_seed: the first stack
        (ds, MlpSpec(2, 2, init_seed=2), ce, TrainConfig(epochs=1, shuffle_seed=9)),
    ]
    stacks = []
    real_train_stack = trainer._train_stack

    def spy(datasets, specs, seeds, loss, cfg):  # each stack's models, by input index
        stacks.append([next(i for i, m in enumerate(models) if m[1] is s) for s in specs])
        return real_train_stack(datasets, specs, seeds, loss, cfg)

    with mock.patch.object(trainer, "_train_stack", spy):
        out = train(*map(list, zip(*models)))
    assert stacks == [[0, 5], [1], [2], [3], [4]]
    for (model, history), args in zip(out, models):
        alone, alone_history = train(*args)
        assert history == alone_history
        assert model_bytes(model) == model_bytes(alone)
    with pytest.raises(TrainingError, match="one dataset, spec, loss and config"):
        train([ds, ds], [MlpSpec(2, 2)], ce, [cfg, cfg])
    with pytest.raises(TrainingError, match="one dataset, spec, loss and config"):
        train([ds, ds], [MlpSpec(2, 2)] * 2, [ce], [cfg, cfg])
