import base64
import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rationale_lab import (
    NetworkConfig,
    TrainConfig,
    TrainingDivergedError,
    GeneratorRequest,
    accuracy,
    generate,
    init_params,
    load_model,
    loss_and_grads,
    save_model,
    train,
)
from rationale_lab.generation import Dataset
from rationale_lab.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    STANDARD_HIDDEN_LAYERS,
    AdamState,
    ModelParams,
    TrainedModel,
    _forward_scaled,
    adam_update,
    schema_scaling,
)

from conftest import (
    JSON_VALUES,
    finite_difference_grads,
    key_paths,
    max_relative_error,
    replaced,
)


def layers_flat(weights, biases):
    """Per-layer arrays written out in ``ModelParams.flat``'s documented
    layout: each layer's weights, row-major, then its bias."""
    return np.concatenate([np.ravel(a) for w, b in zip(weights, biases) for a in (w, b)])


def tiny_model(weights, biases, schema_id="tort"):
    """Assemble a TrainedModel around hand-set parameters; the first
    layer's fan-in must be the schema's feature count."""
    params = ModelParams(layers_flat(weights, biases), [np.shape(w) for w in weights])
    return TrainedModel(
        config=NetworkConfig(params.weights[0].shape[0],
                             tuple(w.shape[1] for w in params.weights[:-1]),
                             allow_nonstandard=True),
        train_config=TrainConfig(iterations=1),
        params=params,
        schema_id=schema_id,
    )


def reference_adam(arrays, ms, vs, grads, t, cfg):
    """Adam applied array by array: the update the fused step must equal."""
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, cfg.learning_rate
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, m, v, g in zip(arrays, ms, vs, grads):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def reference_grads(weights, biases, x, y):
    """Backprop with a fresh array per layer gradient; also returns the
    batch loss, computed as ``.mean()``."""
    y = y.reshape(-1, 1)
    activations = [x]
    for w, b in zip(weights, biases):
        z = activations[-1] @ w + b
        activations.append(expit(z))
    loss = float((np.logaddexp(0.0, z) - y * z).mean())
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    delta = (activations[-1] - y) / x.shape[0]
    for layer in range(len(weights) - 1, -1, -1):
        a_prev = activations[layer]
        grad_w[layer] = a_prev.T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * a_prev * (1.0 - a_prev)
    return loss, grad_w, grad_b


def reference_batches(n, train_config):
    """``train``'s batch schedule: (step, case indices) for every step."""
    rng = np.random.default_rng(train_config.shuffle_seed)
    bs = train_config.batch_size
    order, pos = rng.permutation(n), 0
    for step in range(1, train_config.iterations + 1):
        if pos >= n:
            order, pos = rng.permutation(n), 0
        yield step, order[pos : pos + bs]
        pos += bs


def reference_scaled(dataset):
    """The dataset's rows min-max scaled by the inline expression, not by
    ``FeatureScaling.apply``."""
    scaling = schema_scaling(dataset.schema_id)
    return (dataset.values.astype(np.float64) - scaling.offsets) / scaling.scales


def reference_train(dataset, network_config, train_config):
    """``train``'s batch schedule over separate per-layer arrays and
    per-array Adam; returns the final (weights, biases, loss trace)."""
    init = init_params(network_config)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    arrays = weights + biases
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    x = reference_scaled(dataset)
    y = dataset.labels.astype(np.float64)
    trace = []
    for step, batch in reference_batches(len(dataset), train_config):
        loss, grad_w, grad_b = reference_grads(weights, biases, x[batch], y[batch])
        trace.append(loss)
        reference_adam(arrays, ms, vs, grad_w + grad_b, step, train_config)
    return weights, biases, np.array(trace)


def first_diverged_step(dataset, network_config, train_config):
    """``train``'s schedule run through the public per-call ``loss_and_grads``
    and ``adam_update``: the first step whose loss is non-finite, or None."""
    params = init_params(network_config)
    state = AdamState(params)
    x = reference_scaled(dataset)
    y = dataset.labels.astype(np.float64)
    for step, batch in reference_batches(len(dataset), train_config):
        try:
            _, grads = loss_and_grads(params, x[batch], y[batch])
        except TrainingDivergedError:
            return step
        with np.errstate(invalid="ignore"):  # an infinite gradient makes NaN moments
            adam_update(params, state, grads, step, train_config)
    return None


# One training set per domain width: 4 (simplified), 10 (tort), 64 (welfare),
# 130 cases, so that a 40-case batch schedule ends each epoch on a short batch.
REFERENCE_SETS = {
    4: GeneratorRequest("simplified", "type-b", 130, seed=3),
    10: GeneratorRequest("tort", "regular", 130, seed=3),
    64: GeneratorRequest("welfare", "type-b", 130, seed=3),
}


class TestConfigs:
    def test_standard_shapes_accepted(self):
        for hidden in [(12,), (24, 6), (24, 10, 3)]:
            NetworkConfig(64, hidden)

    def test_nonstandard_shape_needs_override(self):
        with pytest.raises(ValueError, match="standard"):
            NetworkConfig(64, (7, 7))
        NetworkConfig(64, (7, 7), allow_nonstandard=True)

    def test_network_config_bounds(self):
        with pytest.raises(ValueError, match="input_width must be >= 1"):
            NetworkConfig(0, (12,))
        with pytest.raises(ValueError, match="hidden layer widths must be >= 1"):
            NetworkConfig(64, (0,), allow_nonstandard=True)

    def test_train_config_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_adams_other_constants_are_fixed_at_the_published_values(self):
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
        for name in ("beta1", "beta2", "epsilon"):
            with pytest.raises(TypeError, match=name):
                TrainConfig(**{name: 0.5})


class TestInit:
    def test_deterministic_in_seed(self):
        cfg = NetworkConfig(10, (24, 10, 3), init_seed=77)
        assert np.array_equal(init_params(cfg).flat, init_params(cfg).flat)

    def test_layer_shapes(self):
        params = init_params(NetworkConfig(10, (24, 10, 3), init_seed=1))
        assert params.layout == ((10, 24), (24, 10), (10, 3), (3, 1))

    def test_fan_balanced_bounds_and_zero_biases(self):
        params = init_params(NetworkConfig(64, (12,), init_seed=3))
        limit = math.sqrt(6.0 / (64 + 12))
        assert np.all(np.abs(params.weights[0]) <= limit)
        assert all(not b.any() for b in params.biases)

    @pytest.mark.parametrize("width", [4, 10, 64])
    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    def test_draws_match_a_per_layer_reference(self, hidden, width):
        """One uniform draw per layer, input first; each layer's weights, then
        its zero bias, in the flat buffer."""
        rng = np.random.default_rng(11)
        sizes = [width, *hidden, 1]
        want = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            want += [rng.uniform(-limit, limit, size=(fan_in, fan_out)).ravel(), np.zeros(fan_out)]
        got = init_params(NetworkConfig(width, hidden, init_seed=11)).flat
        assert got.tobytes() == np.concatenate(want).tobytes()


class TestFlatBuffers:
    def test_layer_views_write_through_to_flat(self):
        params = init_params(NetworkConfig(4, (24, 10, 3), init_seed=1))
        params.weights[1][2, 3] = 7.5
        params.biases[2][1] = -2.25
        assert 7.5 in params.flat and -2.25 in params.flat
        assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
        assert params.flat.size == sum(a.size for a in params.weights + params.biases)

    def test_constructor_views_its_buffer(self):
        buf = np.zeros(3)
        params = ModelParams(buf, [[2, 1]])
        buf[0] = 5.0
        assert params.flat is buf and params.weights[0][0, 0] == 5.0
        assert params.layout == ((2, 1),)

    @pytest.mark.parametrize("flat", [np.zeros(14), np.zeros(16), np.zeros(15, np.float32),
                                      np.zeros((15, 1)), [0.0] * 15],
                             ids=["short", "long", "float32", "2-d", "list"])
    def test_buffer_must_fit_the_layout(self, flat):
        with pytest.raises(ValueError, match=r"\(\(4, 3\),\) views a 1-d buffer of 15 float64s"):
            ModelParams(flat, ((4, 3),))

    def test_layers_must_chain(self):
        with pytest.raises(ValueError, match="chain"):
            ModelParams(np.zeros(18), ((4, 3), (2, 1)))

    def test_fresh_gradient_buffers_never_alias(self):
        params = init_params(NetworkConfig(4, (24, 6), init_seed=2))
        x, y = np.full((3, 4), 0.5), np.array([0.0, 1.0, 1.0])
        _, first = loss_and_grads(params, x, y)
        kept = first.flat.copy()
        _, second = loss_and_grads(params, x, y)
        assert not np.shares_memory(first.flat, second.flat)
        assert not np.shares_memory(first.flat, params.flat)
        assert np.array_equal(first.flat, kept)


class TestForward:
    def test_zero_params_give_half(self):
        model = tiny_model([np.zeros((4, 12)), np.zeros((12, 1))],
                           [np.zeros(12), np.zeros(1)], schema_id="simplified")
        x = np.arange(8, dtype=float).reshape(2, 4)
        assert np.allclose(model.outputs(x), 0.5)

    def test_hand_computed_2_2_1(self):
        w1 = [[0.5, -0.25], [0.1, 0.3]]
        b1 = [0.05, -0.1]
        w2 = [[0.7], [-0.6]]
        b2 = [0.2]
        params = ModelParams(layers_flat([w1, w2], [b1, b2]), ((2, 2), (2, 1)))

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        h1 = sig(0.4 * 0.5 + 0.9 * 0.1 + 0.05)
        h2 = sig(0.4 * -0.25 + 0.9 * 0.3 - 0.1)
        expected = sig(h1 * 0.7 + h2 * -0.6 + 0.2)
        assert abs(_forward_scaled(params, np.array([[0.4, 0.9]]))[0][-1][0, 0] - expected) < 1e-12

    def test_sigmoid_monotone_end_to_end(self):
        params = ModelParams(np.array([2.0, 0.0]), ((1, 1),))
        x = np.array([[-3.0], [-1.0], [0.0], [1.0], [3.0]])
        outputs = _forward_scaled(params, x)[0][-1][:, 0]
        assert np.all(np.diff(outputs) > 0)
        assert np.all((0.0 < outputs) & (outputs < 1.0))

    def test_width_mismatch_rejected(self):
        model = tiny_model([np.zeros((4, 1))], [np.zeros(1)], schema_id="simplified")
        with pytest.raises(ValueError, match=r"\(n, 4\) matrix"):
            model.outputs(np.zeros((3, 5)))
        with pytest.raises(ValueError, match=r"\(n, 4\) matrix"):
            model.outputs(np.zeros(4))  # a single row is a (1, 4) matrix

    def test_non_finite_input_rejected(self):
        model = tiny_model([np.zeros((4, 1))], [np.zeros(1)], schema_id="simplified")
        with pytest.raises(ValueError, match="non-finite"):
            model.outputs(np.array([[np.nan, 0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("layout", ["C", "Fortran", "one-row"])
    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    @pytest.mark.parametrize("domain,kind,size", [
        ("tort", "regular", 500),
        ("simplified", "type-b", 3000),
        ("welfare", "type-b", 2000),
    ], ids=["tort", "simplified", "welfare"])
    def test_evaluation_pass_matches_training_forward_pass(self, domain, kind, size, hidden,
                                                           layout):
        """The evaluation pass (``TrainedModel.outputs``) and the training
        pass's activations have the bits of an out-of-place forward pass, on
        parameters whose biases are not zero: reusing a hidden layer's
        product buffer for its sigmoid clobbers no layer, and the output
        pre-activation survives for the loss."""
        ds = generate(GeneratorRequest(domain, kind, size, seed=3))
        config = NetworkConfig(ds.values.shape[1], hidden, init_seed=4)
        model = TrainedModel(config, TrainConfig(iterations=1), init_params(config), ds.schema_id)
        params = model.params
        params.flat[:] = np.random.default_rng(6).normal(size=params.flat.size)
        raw = {"C": ds.values, "Fortran": np.asfortranarray(ds.values),
               "one-row": ds.values[7:8]}[layout]
        x = schema_scaling(ds.schema_id).apply(raw)
        want = [x]
        for w, b in zip(params.weights, params.biases):
            z = np.dot(want[-1], w) + b
            want.append(expit(z))
        activations, got_z = _forward_scaled(params, x)
        assert [a.tobytes() for a in activations] == [a.tobytes() for a in want]
        assert got_z.tobytes() == z.tobytes()
        assert model.outputs(raw).tobytes() == want[-1][:, 0].tobytes()


class TestLossAndGrads:
    def test_loss_vanishes_for_perfect_prediction(self):
        params = ModelParams(np.array([20.0, 0.0]), ((1, 1),))
        loss, _ = loss_and_grads(params, np.array([[1.0]]), np.array([1.0]))
        assert loss < 1e-8

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = NetworkConfig(4, (12,), init_seed=5)
        params = init_params(cfg)
        for _ in range(10):
            x = rng.random((8, 4))
            y = rng.integers(0, 2, 8)
            _, backprop = loss_and_grads(params, x, y)
            oracle = finite_difference_grads(params, x, y)
            assert max_relative_error(backprop, oracle) < 1e-4

    def test_symmetric_batch_zeroes_output_gradients(self):
        # labels 0 and 1 on the same input cancel when the output is 0.5
        params = init_params(NetworkConfig(4, (12,), init_seed=5))
        params.weights[-1][:] = 0.0
        params.biases[-1][:] = 0.0
        x = np.tile(np.array([[0.1, 0.4, 0.9, 0.3]]), (2, 1))
        _, grads = loss_and_grads(params, x, np.array([0.0, 1.0]))
        assert np.allclose(grads.biases[-1], 0.0)
        assert np.allclose(grads.weights[-1], 0.0)

    def test_empty_batch_rejected(self):
        params = init_params(NetworkConfig(4, (12,), init_seed=0))
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_grads(params, np.empty((0, 4)), np.empty(0))

    def test_non_finite_loss_reported_distinctly(self):
        params = ModelParams(np.array([np.nan, 0.0]), ((1, 1),))
        with pytest.raises(TrainingDivergedError):
            loss_and_grads(params, np.array([[1.0]]), np.array([1.0]))


class TestAdam:
    def test_first_step_closed_form(self):
        # t=1: bias correction makes m_hat=g, v_hat=g^2, so the step is
        # -lr * g / (|g| + eps)
        params = ModelParams(np.array([0.0, 0.0]), ((1, 1),))
        grads = ModelParams(np.array([0.3, 0.0]), ((1, 1),))
        cfg = TrainConfig(iterations=1)
        adam_update(params, AdamState(params), grads, 1, cfg)
        expected = -0.001 * 0.3 / (0.3 + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-15

    def test_zero_gradient_is_a_no_op_from_rest(self):
        params = ModelParams(np.array([1.5, 0.25]), ((1, 1),))
        state = AdamState(params)
        zero = ModelParams(np.zeros(params.flat.size), params.layout)
        for t in (1, 2, 3):
            adam_update(params, state, zero, t, TrainConfig(iterations=1))
        assert params.weights[0][0, 0] == 1.5 and params.biases[0][0] == 0.25
        assert not state.m.weights[0].any() and not state.v.weights[0].any()

    def test_moments_decay_toward_zero(self):
        params = ModelParams(np.array([1.5, 0.25]), ((1, 1),))
        state = AdamState(params)
        state.m.weights[0][:] = 0.8
        state.v.weights[0][:] = 0.4
        zero = ModelParams(np.zeros(params.flat.size), params.layout)
        adam_update(params, state, zero, 1, TrainConfig(iterations=1))
        assert state.m.weights[0][0, 0] == pytest.approx(0.8 * 0.9)
        assert state.v.weights[0][0, 0] == pytest.approx(0.4 * 0.999)

    def test_identical_gradient_sequences_identical_params(self):
        rng = np.random.default_rng(4)
        seq = [rng.normal(size=(3, 1)) for _ in range(20)]
        runs = []
        for _ in range(2):
            params = ModelParams(np.zeros(4), ((3, 1),))
            state = AdamState(params)
            for t, g in enumerate(seq, start=1):
                grads = ModelParams(np.append(g, 0.0), ((3, 1),))
                adam_update(params, state, grads, t, TrainConfig())
            runs.append(params.weights[0].copy())
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("width", (4, 10, 64))
    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    def test_fused_step_matches_per_array_reference(self, width, hidden):
        """200 steps on one state, at a fixed rate and with a rate that moves
        to the next of four every 50 steps."""
        for rates in ((0.001,), (0.001, 0.02, 3e-5, 0.004)):
            params = init_params(NetworkConfig(width, hidden, init_seed=width))
            arrays = [a.copy() for a in params.weights + params.biases]
            ms = [np.zeros_like(a) for a in arrays]
            vs = [np.zeros_like(a) for a in arrays]
            state = AdamState(params)
            grads = params.empty_like()
            rng = np.random.default_rng(width)
            for t in range(1, 201):
                cfg = TrainConfig(learning_rate=rates[(t - 1) // 50 % len(rates)])
                grads.flat[:] = rng.normal(scale=10.0 ** rng.integers(-6, 2),
                                           size=grads.flat.size)
                adam_update(params, state, grads, t, cfg)
                reference_adam(arrays, ms, vs, grads.weights + grads.biases, t, cfg)
            for got, want in zip(params.weights + params.biases, arrays):
                assert np.array_equal(got, want), rates
            for got, want in zip(state.m.weights + state.m.biases
                                 + state.v.weights + state.v.biases, ms + vs):
                assert np.array_equal(got, want), rates

    def test_step_index_zero_rejected(self):
        params = init_params(NetworkConfig(4, (12,), init_seed=0))
        before = params.flat.copy()
        grads = params.empty_like()
        grads.flat[:] = 1.0
        with pytest.raises(ValueError, match="step index t counts from 1"):
            adam_update(params, AdamState(params), grads, 0, TrainConfig())
        assert np.array_equal(params.flat, before)

    def test_gradients_of_another_layout_rejected(self):
        params = init_params(NetworkConfig(4, (12,), init_seed=0))
        other = init_params(NetworkConfig(4, (24, 6), init_seed=0))
        with pytest.raises(ValueError, match="layout"):
            adam_update(params, AdamState(params), other, 1, TrainConfig())

    @pytest.mark.parametrize("other", [NetworkConfig(1, (24,), allow_nonstandard=True),
                                       NetworkConfig(10, (24,), allow_nonstandard=True)],
                             ids=["same-size", "other-size"])
    def test_state_of_another_layout_rejected(self, other):
        """A state of 73 parameters in another layout would step all 73 of
        the network's parameters; one of 289 would fail inside numpy."""
        params = init_params(NetworkConfig(4, (12,), init_seed=0))
        before = params.flat.copy()
        grads = params.empty_like()
        grads.flat[:] = 1.0
        state = AdamState(init_params(other))
        pattern = f"{re.escape(str(state.m.layout))}.*{re.escape(str(params.layout))}"
        with pytest.raises(ValueError, match=pattern):
            adam_update(params, state, grads, 1, TrainConfig())
        assert np.array_equal(params.flat, before)


class TestTrain:
    def test_bit_deterministic(self):
        ds = generate(GeneratorRequest("tort", "regular", 200, seed=3))
        cfg = NetworkConfig(10, (12,), init_seed=9)
        tc = TrainConfig(iterations=200, shuffle_seed=17)
        a, b = train(ds, cfg, tc), train(ds, cfg, tc)
        for wa, wb in zip(a.params.weights + a.params.biases,
                          b.params.weights + b.params.biases):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_one_iteration_moves_params(self):
        ds = generate(GeneratorRequest("tort", "regular", 200, seed=3))
        cfg = NetworkConfig(10, (12,), init_seed=9)
        model = train(ds, cfg, TrainConfig(iterations=1, shuffle_seed=1))
        assert not np.array_equal(model.params.flat, init_params(cfg).flat)

    def test_loss_trace_recorded_and_finite(self):
        ds = generate(GeneratorRequest("tort", "regular", 200, seed=3))
        model = train(ds, NetworkConfig(10, (12,), init_seed=2),
                      TrainConfig(iterations=150, shuffle_seed=5))
        assert model.loss_trace.shape == (150,)
        assert np.isfinite(model.loss_trace).all()

    def test_divergence_names_the_first_non_finite_step(self):
        base = generate(GeneratorRequest("tort", "regular", 130, seed=3))
        values = base.values.astype(np.float64)
        values[109, 0] = np.inf  # in the last batch of epoch 1: inf gradients, then NaN weights
        ds = Dataset(base.schema_id, base.kind, values, base.labels.copy(), base.meta)
        cfg = NetworkConfig(10, (24, 6), init_seed=2)
        tc = TrainConfig(iterations=100, batch_size=40, shuffle_seed=5)
        first = first_diverged_step(ds, cfg, tc)
        assert first is not None and first > 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError, match=f"^step {first}: non-finite loss"):
                train(ds, cfg, tc)

    def test_width_mismatch_rejected(self):
        ds = generate(GeneratorRequest("tort", "regular", 200, seed=3))
        with pytest.raises(ValueError, match="inputs"):
            train(ds, NetworkConfig(64, (12,), init_seed=0), TrainConfig(iterations=1))

    def test_chunked_epoch_gathers_match_per_array_reference_training(self):
        """Epochs over more rows than one gather chunk, the last chunk short,
        give the reference's bits."""
        ds = generate(GeneratorRequest("simplified", "type-b", 9000, seed=3))
        cfg = NetworkConfig(4, (12,), init_seed=2)
        tc = TrainConfig(iterations=5, batch_size=2000, shuffle_seed=5)  # 2 epochs
        model = train(ds, cfg, tc)
        weights, biases, trace = reference_train(ds, cfg, tc)
        assert np.array_equal(model.loss_trace, trace)
        assert model.params.flat.tobytes() == layers_flat(weights, biases).tobytes()

    def test_train_keeps_no_scaled_copy_beside_its_epoch_buffer(self):
        """The traced peak of ``train`` is the epoch's float rows plus
        chunk-sized buffers, not a second full-size float matrix; the bound
        is in the rows' int64-equivalent bytes."""
        ds = generate(GeneratorRequest("welfare", "type-b", 20_000, seed=2))
        cfg, tc = NetworkConfig(64, (12,)), TrainConfig(iterations=10)
        train(ds, cfg, tc)  # first-call allocations are not the run's own
        tracemalloc.start()
        try:
            train(ds, cfg, tc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 8 * ds.values.size

    def test_scaling_uses_schema_ranges(self, welfare_schema):
        scaling = schema_scaling("welfare")
        age = welfare_schema.index_of("Age")
        resources = welfare_schema.index_of("Resources")
        row = np.zeros(64)
        row[age], row[resources] = 100, 10_000
        scaled = scaling.apply(row[None, :])
        assert scaled[0, age] == 1.0 and scaled[0, resources] == 1.0
        assert scaling.scales.min() >= 1

    @pytest.mark.parametrize("layout", ["C", "Fortran", "sliced"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_scaling_copies_and_matches_the_inline_expression(self, dtype, layout):
        """``apply`` scales a copy in place: the result has the bits of the
        expression it replaces, and its input is neither written nor shared."""
        scaling = schema_scaling("welfare")
        values = generate(GeneratorRequest("welfare", "type-b", 300, seed=4)).values.astype(dtype)
        values = {"C": values, "Fortran": np.asfortranarray(values),
                  "sliced": values[::3]}[layout]
        before = values.copy()
        values.setflags(write=False)
        got = scaling.apply(values)
        want = (values.astype(np.float64) - scaling.offsets) / scaling.scales
        assert got.dtype == np.float64 and got.shape == values.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, values)
        assert values.tobytes() == before.tobytes()
        out = np.empty(values.shape)
        assert scaling.apply(values, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_outputs_make_one_float_copy_of_integer_rows(self):
        """The traced peak of ``outputs`` on a dataset's integer rows is the
        scaled float copy and the forward pass, not a second full copy; the
        bound is in the rows' int64-equivalent bytes."""
        model = train(generate(GeneratorRequest("welfare", "type-b", 200, seed=3)),
                      NetworkConfig(64, (12,)), TrainConfig(iterations=1))
        values = generate(GeneratorRequest("welfare", "type-b", 20_000, seed=4)).values
        tracemalloc.start()
        try:
            model.outputs(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * values.size

    def test_outputs_scale_raw_rows_exactly_once(self):
        """On simplified, whose scaling is not the identity, ``outputs`` of
        raw rows equals the forward pass on the rows scaled once."""
        ds = generate(GeneratorRequest("simplified", "type-b", 200, seed=3))
        model = train(ds, NetworkConfig(4, (12,), init_seed=2),
                      TrainConfig(iterations=100, shuffle_seed=5))
        scaling = schema_scaling("simplified")

        def forward(x):
            for w, b in zip(model.params.weights, model.params.biases):
                x = expit(x @ w + b)
            return x[:, 0]

        got = model.outputs(ds.values)
        assert np.array_equal(got, forward(scaling.apply(ds.values)))
        assert not np.allclose(got, forward(scaling.apply(scaling.apply(ds.values))))


class TestPredict:
    def test_tie_breaks_positive(self):
        """An output of exactly 0.5 counts as a positive prediction."""
        model = tiny_model([np.zeros((10, 1))], [np.zeros(1)],
                           schema_id="tort")
        ds = generate(GeneratorRequest("tort", "unique"))
        assert (model.outputs(ds.values) == 0.5).all()
        assert accuracy(model, ds) == ds.labels.mean() == 112 / 1024


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate(GeneratorRequest("tort", "regular", 200, seed=3))
        model = train(ds, NetworkConfig(10, (24, 6), init_seed=2),
                      TrainConfig(iterations=120, shuffle_seed=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(model.params.weights + model.params.biases,
                        back.params.weights + back.params.biases):
            assert np.array_equal(a, b)
        assert back.config == model.config
        assert back.train_config == model.train_config
        assert back.schema_id == model.schema_id
        # identical outputs after the round trip
        assert np.array_equal(model.outputs(ds.values), back.outputs(ds.values))

    @pytest.mark.parametrize("width", sorted(REFERENCE_SETS))
    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    def test_saved_bytes_match_per_array_reference_training(self, tmp_path, hidden, width):
        ds = generate(REFERENCE_SETS[width])
        cfg = NetworkConfig(width, hidden, init_seed=2)
        tc = TrainConfig(iterations=150, batch_size=40, shuffle_seed=5)  # 37.5 epochs
        model = train(ds, cfg, tc)
        weights, biases, trace = reference_train(ds, cfg, tc)
        assert np.array_equal(model.loss_trace, trace)
        flat = layers_flat(weights, biases)
        reference = TrainedModel(
            config=cfg, train_config=tc, params=ModelParams(flat, cfg.layout),
            schema_id=model.schema_id,
        )
        got = save_model(model, tmp_path / "model.json").read_bytes()
        want = save_model(reference, tmp_path / "reference.json").read_bytes()
        assert got == want
        doc = json.loads(got)
        assert sorted(doc) == ["format", "format_version", "network", "params", "schema_id",
                               "training"]
        assert doc["format_version"] == 4
        arrays = [a for w, b in zip(weights, biases) for a in (w, b)]
        assert base64.b64decode(doc["params"], validate=True) == b"".join(
            a.astype("<f8").tobytes() for a in arrays)

    def test_every_config_field_round_trips(self, tmp_path):
        ds = generate(GeneratorRequest("tort", "regular", 200, seed=3))
        cfg = NetworkConfig(10, (5, 4), init_seed=7, allow_nonstandard=True)
        tc = TrainConfig(learning_rate=0.002, batch_size=30, iterations=5, shuffle_seed=9)
        assert [f.name for f in dataclasses.fields(tc)] == [
            "learning_rate", "batch_size", "iterations", "shuffle_seed"]  # Adam's others fixed
        path = save_model(train(ds, cfg, tc), tmp_path / "model.json")
        doc = json.loads(path.read_text())
        back = load_model(path)
        for block, saved, loaded in (("network", cfg, back.config),
                                     ("training", tc, back.train_config)):
            names = [f.name for f in dataclasses.fields(saved)]
            assert sorted(doc[block]) == sorted(names)
            for name in names:
                assert getattr(loaded, name) == getattr(saved, name), name
                assert type(getattr(loaded, name)) is type(getattr(saved, name)), name

    @pytest.mark.parametrize("block", ["network", "training"])
    @pytest.mark.parametrize("edit", ["missing", "unknown"])
    def test_rejects_config_keys_that_are_not_the_fields(self, tmp_path, block, edit):
        path = save_model(train(generate(GeneratorRequest("tort", "regular", 200, seed=3)),
                                NetworkConfig(10, (12,), init_seed=2),
                                TrainConfig(iterations=5, shuffle_seed=5)),
                          tmp_path / "model.json")
        doc = json.loads(path.read_text())
        if edit == "missing":
            del doc[block][sorted(doc[block])[0]]
        else:
            doc[block]["momentum"] = 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="differ from its fields"):
            load_model(path)

    @pytest.mark.parametrize("hidden", [[12], [2**40]], ids=["other-architecture", "huge-layer"])
    def test_rejects_params_of_another_layout(self, tmp_path, hidden):
        """A (24, 6) network's buffer under other layer widths; a layout
        too large to allocate is refused by its size alone."""
        path = tmp_path / "model.json"
        save_model(train(generate(GeneratorRequest("tort", "regular", 200, seed=3)),
                         NetworkConfig(10, (24, 6), init_seed=2),
                         TrainConfig(iterations=5, shuffle_seed=5)), path)
        doc = json.loads(path.read_text())
        doc["network"].update(hidden_layers=hidden, allow_nonstandard=True)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: model key 'params' "
                                             rf"holds {8 * (11 * 24 + 25 * 6 + 7)} bytes"):
            load_model(path)

    def test_rejects_format_2_file(self, tmp_path):
        """Version 2, with Adam's constants in ``training``."""
        path = save_model(train(generate(GeneratorRequest("tort", "regular", 200, seed=3)),
                                NetworkConfig(10, (12,), init_seed=2),
                                TrainConfig(iterations=5, shuffle_seed=5)),
                          tmp_path / "model.json")
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        doc["training"].update(beta1=0.9, beta2=0.999, epsilon=1e-8)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: unsupported format version 2$"):
            load_model(path)

    def test_rejects_current_version_file_with_adams_constants(self, tmp_path):
        """A format-2 file whose version alone was raised to the current one
        is still refused."""
        path = save_model(train(generate(GeneratorRequest("tort", "regular", 200, seed=3)),
                                NetworkConfig(10, (12,), init_seed=2),
                                TrainConfig(iterations=5, shuffle_seed=5)),
                          tmp_path / "model.json")
        doc = json.loads(path.read_text())
        doc["training"].update(beta1=0.9, beta2=0.999, epsilon=1e-8)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="TrainConfig keys .* differ from its fields"):
            load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            load_model(path)


@pytest.fixture(scope="module")
def saved_tort_model(tmp_path_factory):
    """The path and document of a tort model saved after 1 iteration."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(train(generate(GeneratorRequest("tort", "regular", 200, seed=3)),
                     NetworkConfig(10, (24, 6)), TrainConfig(iterations=1)), path)
    return path, json.loads(path.read_text())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_model_loads_or_raises_value_error(saved_tort_model, data):
    """One JSON value of a saved model, at any key path, replaced by any JSON value."""
    path, doc = saved_tort_model
    key_path = data.draw(st.sampled_from(list(key_paths(doc))))
    edited = path.with_name("edited.json")
    edited.write_text(json.dumps(replaced(doc, key_path, data.draw(JSON_VALUES))))
    try:
        load_model(edited)
    except ValueError:
        pass


class TestFullBudgetBehaviour:
    """Single training runs at the published budget (50,000 steps)."""

    def test_tort_full_information_is_perfect(self):
        ds = generate(GeneratorRequest("tort", "unique"))
        model = train(ds, NetworkConfig(10, (12,), init_seed=41),
                      TrainConfig(iterations=50_000, shuffle_seed=42))
        assert accuracy(model, ds) == 1.0

    def test_simplified_type_b_generalises(self):
        train_set = generate(GeneratorRequest("simplified", "type-b", 50_000, seed=61))
        test_set = generate(GeneratorRequest("simplified", "type-a", 50_000, seed=62))
        model = train(train_set, NetworkConfig(4, (24, 10, 3), init_seed=63),
                      TrainConfig(iterations=50_000, shuffle_seed=64))
        assert accuracy(model, test_set) >= 0.98
