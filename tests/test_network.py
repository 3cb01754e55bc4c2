import base64
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rationale_lab import (
    NetworkConfig,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    gen_tort,
    gen_welfare,
    init_params,
    load_model,
    loss_and_grads,
    predict,
    save_model,
    train,
)
from rationale_lab.generation import Dataset
from rationale_lab.network import (
    STANDARD_HIDDEN_LAYERS,
    AdamState,
    ModelParams,
    TrainedModel,
    adam_update,
    forward,
    schema_scaling,
)

from conftest import finite_difference_grads, max_relative_error, mismatched_model_doc


def tiny_model(weights, biases, schema_id="tort", feature_names=None, input_width=None):
    """Assemble a TrainedModel around hand-set parameters."""
    from rationale_lab.network import FeatureScaling, TrainedModel

    params = ModelParams([np.array(w, float) for w in weights],
                         [np.array(b, float) for b in biases])
    width = input_width or params.weights[0].shape[0]
    return TrainedModel(
        config=NetworkConfig(width, tuple(w.shape[1] for w in params.weights[:-1]),
                             allow_nonstandard=True),
        train_config=TrainConfig(iterations=1),
        params=params,
        scaling=FeatureScaling(np.zeros(width), np.ones(width)),
        schema_id=schema_id,
        feature_names=feature_names or tuple(f"f{i}" for i in range(width)),
    )


def reference_adam(arrays, ms, vs, grads, t, cfg):
    """Adam applied array by array: the update the fused step must equal."""
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.epsilon, cfg.learning_rate
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


def reference_train(dataset, network_config, train_config):
    """``train``'s batch schedule over separate per-layer arrays and
    per-array Adam; returns the final (weights, biases, loss trace)."""
    init = init_params(network_config)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    arrays = weights + biases
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    x = schema_scaling(dataset.schema_id).apply(dataset.values)
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
    x = schema_scaling(dataset.schema_id).apply(dataset.values)
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
    4: lambda: gen_welfare("type-b", size=130, seed=3, simplified=True),
    10: lambda: gen_tort("regular", size=130, seed=3),
    64: lambda: gen_welfare("type-b", size=130, seed=3),
}


class TestConfigs:
    def test_standard_shapes_accepted(self):
        for hidden in [(12,), (24, 6), (24, 10, 3)]:
            NetworkConfig(64, hidden)

    def test_nonstandard_shape_needs_override(self):
        with pytest.raises(ValueError, match="standard"):
            NetworkConfig(64, (7, 7))
        NetworkConfig(64, (7, 7), allow_nonstandard=True)

    def test_train_config_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


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


class TestFlatBuffers:
    def test_layer_views_write_through_to_flat(self):
        params = init_params(NetworkConfig(4, (24, 10, 3), init_seed=1))
        params.weights[1][2, 3] = 7.5
        params.biases[2][1] = -2.25
        assert 7.5 in params.flat and -2.25 in params.flat
        assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
        assert params.flat.size == sum(a.size for a in params.weights + params.biases)

    def test_constructor_copies_its_arguments(self):
        w, b = np.ones((2, 1)), np.zeros(1)
        params = ModelParams([w], [b])
        w[0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0

    def test_layers_must_chain(self):
        with pytest.raises(ValueError, match="chain"):
            ModelParams([np.zeros((4, 3)), np.zeros((2, 1))], [np.zeros(3), np.zeros(1)])

    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    def test_out_gives_the_same_bits_as_a_fresh_buffer(self, hidden):
        rng = np.random.default_rng(8)
        params = init_params(NetworkConfig(10, hidden, init_seed=4))
        x, y = rng.random((50, 10)), rng.integers(0, 2, 50)
        out = params.empty_like()
        loss_out, got = loss_and_grads(params, x, y, out=out)
        loss_fresh, fresh = loss_and_grads(params, x, y)
        assert got is out
        assert loss_out == loss_fresh
        assert np.array_equal(got.flat, fresh.flat)

    def test_fresh_gradient_buffers_never_alias(self):
        params = init_params(NetworkConfig(4, (24, 6), init_seed=2))
        x, y = np.full((3, 4), 0.5), np.array([0.0, 1.0, 1.0])
        _, first = loss_and_grads(params, x, y)
        kept = first.flat.copy()
        _, second = loss_and_grads(params, x, y)
        assert not np.shares_memory(first.flat, second.flat)
        assert not np.shares_memory(first.flat, params.flat)
        assert np.array_equal(first.flat, kept)

    def test_out_of_another_layout_rejected(self):
        params = init_params(NetworkConfig(4, (12,), init_seed=0))
        other = init_params(NetworkConfig(4, (24, 6), init_seed=0))
        with pytest.raises(ValueError, match="layout"):
            loss_and_grads(params, np.zeros((2, 4)), np.zeros(2), out=other)


class TestForward:
    def test_zero_params_give_half(self):
        model = tiny_model([np.zeros((4, 12)), np.zeros((12, 1))],
                           [np.zeros(12), np.zeros(1)])
        x = np.arange(8, dtype=float).reshape(2, 4)
        assert np.allclose(model.outputs(x), 0.5)

    def test_hand_computed_2_2_1(self):
        w1 = [[0.5, -0.25], [0.1, 0.3]]
        b1 = [0.05, -0.1]
        w2 = [[0.7], [-0.6]]
        b2 = [0.2]
        model = tiny_model([w1, w2], [b1, b2])
        x = [0.4, 0.9]

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        h1 = sig(0.4 * 0.5 + 0.9 * 0.1 + 0.05)
        h2 = sig(0.4 * -0.25 + 0.9 * 0.3 - 0.1)
        expected = sig(h1 * 0.7 + h2 * -0.6 + 0.2)
        assert abs(forward(model, np.array(x)) - expected) < 1e-12

    def test_sigmoid_monotone_end_to_end(self):
        model = tiny_model([[[2.0]]], [[0.0]])
        outputs = [forward(model, np.array([x])) for x in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        assert outputs == sorted(outputs)
        assert all(0.0 < o < 1.0 for o in outputs)

    def test_width_mismatch_rejected(self):
        model = tiny_model([np.zeros((4, 1))], [np.zeros(1)])
        with pytest.raises(ValueError, match="4-wide"):
            model.outputs(np.zeros((3, 5)))

    def test_non_finite_input_rejected(self):
        model = tiny_model([np.zeros((2, 1))], [np.zeros(1)])
        with pytest.raises(ValueError, match="non-finite"):
            model.outputs(np.array([np.nan, 0.0]))


class TestLossAndGrads:
    def test_loss_vanishes_for_perfect_prediction(self):
        params = ModelParams([np.array([[20.0]])], [np.array([0.0])])
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
        params = ModelParams([np.array([[np.nan]])], [np.array([0.0])])
        with pytest.raises(TrainingDivergedError):
            loss_and_grads(params, np.array([[1.0]]), np.array([1.0]))


class TestAdam:
    def test_first_step_closed_form(self):
        # t=1: bias correction makes m_hat=g, v_hat=g^2, so the step is
        # -lr * g / (|g| + eps)
        params = ModelParams([np.array([[0.0]])], [np.array([0.0])])
        grads = ModelParams([np.array([[0.3]])], [np.array([0.0])])
        cfg = TrainConfig(iterations=1)
        adam_update(params, AdamState(params), grads, 1, cfg)
        expected = -0.001 * 0.3 / (0.3 + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-15

    def test_zero_gradient_is_a_no_op_from_rest(self):
        params = ModelParams([np.array([[1.5]])], [np.array([0.25])])
        state = AdamState(params)
        zero = params.zeros_like()
        for t in (1, 2, 3):
            adam_update(params, state, zero, t, TrainConfig(iterations=1))
        assert params.weights[0][0, 0] == 1.5 and params.biases[0][0] == 0.25
        assert not state.m.weights[0].any() and not state.v.weights[0].any()

    def test_moments_decay_toward_zero(self):
        params = ModelParams([np.array([[1.5]])], [np.array([0.25])])
        state = AdamState(params)
        state.m.weights[0][:] = 0.8
        state.v.weights[0][:] = 0.4
        zero = params.zeros_like()
        adam_update(params, state, zero, 1, TrainConfig(iterations=1))
        assert state.m.weights[0][0, 0] == pytest.approx(0.8 * 0.9)
        assert state.v.weights[0][0, 0] == pytest.approx(0.4 * 0.999)

    def test_identical_gradient_sequences_identical_params(self):
        rng = np.random.default_rng(4)
        seq = [rng.normal(size=(3, 1)) for _ in range(20)]
        runs = []
        for _ in range(2):
            params = ModelParams([np.zeros((3, 1))], [np.zeros(1)])
            state = AdamState(params)
            for t, g in enumerate(seq, start=1):
                grads = ModelParams([g], [np.zeros(1)])
                adam_update(params, state, grads, t, TrainConfig())
            runs.append(params.weights[0].copy())
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("width", (4, 10, 64))
    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    def test_fused_step_matches_per_array_reference(self, width, hidden):
        params = init_params(NetworkConfig(width, hidden, init_seed=width))
        arrays = [a.copy() for a in params.weights + params.biases]
        ms = [np.zeros_like(a) for a in arrays]
        vs = [np.zeros_like(a) for a in arrays]
        state = AdamState(params)
        grads = params.empty_like()
        rng = np.random.default_rng(width)
        cfg = TrainConfig()
        for t in range(1, 201):
            grads.flat[:] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=grads.flat.size)
            adam_update(params, state, grads, t, cfg)
            reference_adam(arrays, ms, vs, grads.weights + grads.biases, t, cfg)
        for got, want in zip(params.weights + params.biases, arrays):
            assert np.array_equal(got, want)
        for got, want in zip(state.m.weights + state.m.biases + state.v.weights + state.v.biases,
                             ms + vs):
            assert np.array_equal(got, want)

    def test_gradients_of_another_layout_rejected(self):
        params = init_params(NetworkConfig(4, (12,), init_seed=0))
        other = init_params(NetworkConfig(4, (24, 6), init_seed=0))
        with pytest.raises(ValueError, match="layout"):
            adam_update(params, AdamState(params), other, 1, TrainConfig())


class TestTrain:
    def test_bit_deterministic(self):
        ds = gen_tort("regular", size=200, seed=3)
        cfg = NetworkConfig(10, (12,), init_seed=9)
        tc = TrainConfig(iterations=200, shuffle_seed=17)
        a, b = train(ds, cfg, tc), train(ds, cfg, tc)
        for wa, wb in zip(a.params.weights + a.params.biases,
                          b.params.weights + b.params.biases):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_one_iteration_moves_params(self):
        ds = gen_tort("regular", size=200, seed=3)
        cfg = NetworkConfig(10, (12,), init_seed=9)
        model = train(ds, cfg, TrainConfig(iterations=1, shuffle_seed=1))
        assert not np.array_equal(model.params.flat, init_params(cfg).flat)

    def test_loss_trace_recorded_and_finite(self):
        ds = gen_tort("regular", size=200, seed=3)
        model = train(ds, NetworkConfig(10, (12,), init_seed=2),
                      TrainConfig(iterations=150, shuffle_seed=5))
        assert model.loss_trace.shape == (150,)
        assert np.isfinite(model.loss_trace).all()

    def test_divergence_names_the_first_non_finite_step(self):
        base = gen_tort("regular", size=130, seed=3)
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
        ds = gen_tort("regular", size=200, seed=3)
        with pytest.raises(ValueError, match="inputs"):
            train(ds, NetworkConfig(64, (12,), init_seed=0), TrainConfig(iterations=1))

    def test_scaling_uses_schema_ranges(self, welfare_schema):
        scaling = schema_scaling("welfare")
        age = welfare_schema.index_of("Age")
        resources = welfare_schema.index_of("Resources")
        row = np.zeros(64)
        row[age], row[resources] = 100, 10_000
        scaled = scaling.apply(row[None, :])
        assert scaled[0, age] == 1.0 and scaled[0, resources] == 1.0
        assert scaling.scales.min() >= 1

    def test_case_row_and_matrix_agree(self, tort_schema):
        """Raw cases are scaled exactly once regardless of input form."""
        ds = gen_tort("regular", size=200, seed=3)
        model = train(ds, NetworkConfig(10, (12,), init_seed=2),
                      TrainConfig(iterations=100, shuffle_seed=5))
        case = tort_schema.row_to_case(ds.values[0])
        via_case = forward(model, case)
        via_row = forward(model, ds.values[0])
        via_matrix = model.outputs(ds.values[:1])[0]
        assert via_case == via_row == via_matrix


class TestPredict:
    def test_tie_breaks_positive(self):
        model = tiny_model([np.zeros((10, 1))], [np.zeros(1)],
                           schema_id="tort")
        ds = gen_tort("unique")
        assert forward(model, ds.values[0]) == 0.5
        assert predict(model, ds.values[0]) is True
        assert (model.outputs(ds.values) >= 0.5).all()


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = gen_tort("regular", size=200, seed=3)
        model = train(ds, NetworkConfig(10, (24, 6), init_seed=2),
                      TrainConfig(iterations=120, shuffle_seed=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for a, b in zip(model.params.weights + model.params.biases,
                        back.params.weights + back.params.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(model.scaling.offsets, back.scaling.offsets)
        assert back.config == model.config
        assert back.train_config == model.train_config
        assert back.feature_names == model.feature_names
        # identical outputs after the round trip
        assert np.array_equal(model.outputs(ds.values), back.outputs(ds.values))

    @pytest.mark.parametrize("width", sorted(REFERENCE_SETS))
    @pytest.mark.parametrize("hidden", STANDARD_HIDDEN_LAYERS)
    def test_saved_bytes_match_per_array_reference_training(self, tmp_path, hidden, width):
        ds = REFERENCE_SETS[width]()
        cfg = NetworkConfig(width, hidden, init_seed=2)
        tc = TrainConfig(iterations=150, batch_size=40, shuffle_seed=5)  # 37.5 epochs
        model = train(ds, cfg, tc)
        weights, biases, trace = reference_train(ds, cfg, tc)
        assert np.array_equal(model.loss_trace, trace)
        reference = TrainedModel(
            config=cfg, train_config=tc, params=ModelParams(weights, biases),
            scaling=model.scaling, schema_id=model.schema_id,
            feature_names=model.feature_names,
        )
        got = save_model(model, tmp_path / "model.json").read_bytes()
        want = save_model(reference, tmp_path / "reference.json").read_bytes()
        assert got == want
        layers = json.loads(got)["layers"]
        assert [sorted(layer) for layer in layers] == [["bias", "shape", "weights"]] * len(weights)
        for layer, w, b in zip(layers, weights, biases):
            assert layer["shape"] == list(w.shape)
            assert base64.b64decode(layer["weights"]) == w.astype("<f8").tobytes()
            assert base64.b64decode(layer["bias"]) == b.astype("<f8").tobytes()

    def test_every_config_field_round_trips(self, tmp_path):
        ds = gen_tort("regular", size=200, seed=3)
        cfg = NetworkConfig(10, (5, 4), init_seed=7, allow_nonstandard=True)
        tc = TrainConfig(learning_rate=0.002, batch_size=30, iterations=5, beta1=0.8,
                         beta2=0.99, epsilon=1e-7, shuffle_seed=9)
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
        path = save_model(train(gen_tort("regular", size=200, seed=3),
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

    @pytest.mark.parametrize("edit", ["unchained", "other-architecture"])
    def test_rejects_layers_that_do_not_fit_the_network(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(train(gen_tort("regular", size=200, seed=3),
                         NetworkConfig(10, (24, 6), init_seed=2),
                         TrainConfig(iterations=5, shuffle_seed=5)), path)
        path.write_text(json.dumps(mismatched_model_doc(json.loads(path.read_text()), edit)))
        with pytest.raises(ValueError, match="layer shapes"):
            load_model(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            load_model(path)


class TestFullBudgetBehaviour:
    """Single training runs at the published budget (50,000 steps)."""

    def test_tort_full_information_is_perfect(self):
        ds = gen_tort("unique")
        model = train(ds, NetworkConfig(10, (12,), init_seed=41),
                      TrainConfig(iterations=50_000, shuffle_seed=42))
        assert accuracy(model, ds) == 1.0

    def test_simplified_type_b_generalises(self):
        train_set = gen_welfare("type-b", size=50_000, seed=61, simplified=True)
        test_set = gen_welfare("type-a", size=50_000, seed=62, simplified=True)
        model = train(train_set, NetworkConfig(4, (24, 10, 3), init_seed=63),
                      TrainConfig(iterations=50_000, shuffle_seed=64))
        assert accuracy(model, test_set) >= 0.98
