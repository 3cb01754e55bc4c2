"""From-scratch feed-forward classifier: sigmoid layers, binary cross-entropy
loss, backpropagation, and mini-batch Adam.

Every layer, the output included, applies an elementwise sigmoid.  Inputs are
min-max scaled to [0, 1] using the schema-declared feature ranges
(:func:`schema_scaling`).  ``train`` and ``TrainedModel.outputs`` both take
that map from the model's schema, so train and test scaling are identical by
construction.  ``TrainedModel.outputs`` takes a matrix of raw case rows
only and scales it internally, so scaling can never be applied twice.

Training is single-threaded and bit-deterministic given (dataset, seeds,
config); distinct runs may execute concurrently with independent state.

Memory layout.  A :class:`ModelParams` views the float64 buffer it is given,
``flat``: layer 0's weights (fan_in x fan_out, row-major), then its bias,
then layer 1's, and so on.  ``weights[i]`` and ``biases[i]`` are views into
that buffer, so a write through either shows in ``flat``.  Gradients and the
two Adam moments use the same layout, which lets :func:`adam_update` run its
elementwise step once over whole buffers instead of once per array.  On
these small networks a training step costs in proportion to the numpy calls
it makes, not its flops.

Adam's two moments are the rows of one ``(2, P)`` buffer,
``AdamState.moments``; ``m`` and ``v`` view its rows in the parameter
layout.  The step stacks the gradient over its square in the same way, so
the decay and the increment each run once for both moments: eleven numpy
calls a step instead of fourteen, each element seeing the operations of a
per-array update in the same order.

One forward pass and one step kernel.  ``_forward_scaled`` is the only
forward pass: evaluation runs it too, on a whole scaled test set, so a
network is measured with the arithmetic it was trained with.
``_backprop`` (loss and gradients of one batch, through that pass) and
``AdamState.step`` hold all the arithmetic of a training step;
``AdamState`` allocates the step's buffers once, with the moments.
``train`` binds both once per run, gathers each epoch's rows into two
buffers reused across epochs, so that a batch is a slice, and enters
``np.errstate`` once.  The rows are gathered from the dataset's int matrix
a chunk at a time and scaled into the float buffer, so no scaled copy of
the whole dataset is kept beside it.  The public ``loss_and_grads`` and
``adam_update`` check their arguments and run the same kernels per call.
Matrix products use ``np.dot``: on the 2-d float64 operands of every
standard layer shape it gave the same bits as ``@``, for less call
overhead.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from ._jsonfile import read_json, typed_fields, write_json
from .domains import build_domain
from .generation import Dataset

STANDARD_HIDDEN_LAYERS = ((12,), (24, 6), (24, 10, 3))

# Adam's published constants (Kingma & Ba, 2015); every network trains with them.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

MODEL_FORMAT = "rationale-lab-model"
MODEL_FORMAT_VERSION = 4
_MODEL_KEYS = {"format", "format_version", "schema_id", "network", "training", "params"}


class TrainingDivergedError(RuntimeError):
    """Loss or gradients became non-finite during training."""


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths and the initialization seed of one network.

    ``hidden_layers`` must be one of the three standard shapes, (12,),
    (24, 6) or (24, 10, 3), unless ``allow_nonstandard`` is set.  The output
    layer always has width 1.
    """

    input_width: int
    hidden_layers: tuple[int, ...]
    init_seed: int = 0
    allow_nonstandard: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_width < 1:
            raise ValueError("input_width must be >= 1")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")
        if not self.allow_nonstandard and self.hidden_layers not in STANDARD_HIDDEN_LAYERS:
            raise ValueError(
                f"hidden layers {self.hidden_layers} are not one of the standard "
                f"shapes {STANDARD_HIDDEN_LAYERS}"
            )

    @property
    def layout(self) -> tuple[tuple[int, int], ...]:
        """Each layer's (fan_in, fan_out), input first: its ``ModelParams.layout``."""
        sizes = (self.input_width, *self.hidden_layers, 1)
        return tuple(zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class TrainConfig:
    """The learning rate and the batch schedule.  Adam's other constants
    are fixed: see ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``."""

    learning_rate: float = 0.001
    batch_size: int = 50
    iterations: int = 50_000
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:  # false for NaN
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class ModelParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors, as
    views into ``flat``, a 1-d float64 buffer laid out as the module
    docstring describes.  ``layout`` is the tuple of weight shapes.  The
    constructor views the buffer it is given and never copies it.
    """

    def __init__(self, flat: np.ndarray, layout: Sequence[tuple[int, int]]):
        layout = tuple(map(tuple, layout))
        if any(a[1] != b[0] for a, b in zip(layout, layout[1:])):
            raise ValueError(f"layer shapes {layout} do not chain")
        count = _param_count(layout)
        if not isinstance(flat, np.ndarray) or flat.dtype != np.float64 or flat.shape != (count,):
            raise ValueError(f"layout {layout} views a 1-d buffer of {count} float64s, not "
                             f"{getattr(flat, 'dtype', type(flat))} of shape {np.shape(flat)}")
        self.flat, self.layout = flat, layout
        self.weights, self.biases = [], []
        pos = 0
        for fan_in, fan_out in layout:
            self.weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            self.biases.append(flat[pos : pos + fan_out])
            pos += fan_out

    def empty_like(self) -> "ModelParams":
        """An uninitialised buffer of the same layout, e.g. for ``out=``."""
        return ModelParams(np.empty(self.flat.size), self.layout)


def _param_count(layout: tuple[tuple[int, int], ...]) -> int:
    """The length of a ``flat`` buffer of the given layout."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in layout)


def init_params(config: NetworkConfig) -> ModelParams:
    """Fan-balanced uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(config.init_seed)
    layout = config.layout
    params = ModelParams(np.zeros(_param_count(layout)), layout)
    for (fan_in, fan_out), w in zip(layout, params.weights):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return params


def _forward_scaled(params: ModelParams, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Activations of every layer plus the output layer's pre-activation.  A
    hidden layer's sigmoid overwrites its product's buffer; the output
    layer's writes a new array, so that its pre-activation survives."""
    activations, z = [x], None
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.dot(activations[-1], w)
        z += b
        activations.append(expit(z, out=None if layer == last else z))
    return activations, z


def _backprop(params: ModelParams, x: np.ndarray, y: np.ndarray, out: ModelParams) -> float:
    """The loss of one batch; its gradients go into ``out``.  ``y`` is a
    float64 column.  Run under ``np.errstate(invalid="ignore")``: a NaN is
    diagnosed from the loss, before any gradient is written."""
    activations, z = _forward_scaled(params, x)
    n = x.shape[0]
    loss = float(np.add.reduce(np.logaddexp(0.0, z) - y * z, axis=None)) / n
    if not math.isfinite(loss):
        raise TrainingDivergedError("non-finite loss on batch")

    delta = (activations[-1] - y) / n  # dLoss/dz at the output layer
    weights, grad_w, grad_b = params.weights, out.weights, out.biases
    for layer in range(len(weights) - 1, -1, -1):
        a_prev = activations[layer]
        np.dot(a_prev.T, delta, out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        if layer > 0:
            delta = np.dot(delta, weights[layer].T) * a_prev * (1.0 - a_prev)
    return loss


def loss_and_grads(params: ModelParams, x: np.ndarray, y: np.ndarray) -> tuple[float, ModelParams]:
    """Mean binary cross-entropy over a batch and its backprop gradients.

    ``x`` is already scaled, shape (n, input_width); ``y`` holds 0/1 labels.
    The loss is evaluated from the output pre-activation z as
    softplus(z) - y*z, which is exact and overflow-free.  The gradients go
    to a new buffer that nothing else references.
    """
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2-d array")
    out = params.empty_like()
    with np.errstate(invalid="ignore"):
        loss = _backprop(params, x, np.asarray(y, dtype=np.float64).reshape(-1, 1), out)
    return loss, out


class AdamState:
    """Adam's state for one network, and its step.

    The first and second moments are the two rows of one ``(2, P)`` buffer
    ``moments``, viewed in the parameter layout as ``m`` and ``v``.
    ``grads`` views, in the same layout, the gradient half of the stack
    that the step reads; ``step(flat, t, learning_rate)`` overwrites that
    stack and updates ``flat`` and both moments in place.  The decay and
    the increment multiply by full-length factor rows: a broadcast
    ``(2, 1)`` factor measured more than twice as slow.
    """

    def __init__(self, params: ModelParams):
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        size, layout = params.flat.size, params.layout
        self.moments = np.zeros((2, size))
        self.m = ModelParams(self.moments[0], layout)
        self.v = ModelParams(self.moments[1], layout)
        moments = self.moments.reshape(-1)
        m, v = self.moments
        stack = np.empty(2 * size)  # the gradient, then its square
        g, g_sq = stack[:size], stack[size:]
        self.grads = ModelParams(g, layout)
        m_hat, v_hat = np.empty(size), np.empty(size)
        decay = np.repeat([b1, b2], size)
        keep = np.repeat([1.0 - b1, 1.0 - b2], size)

        def step(flat: np.ndarray, t: int, learning_rate: float) -> None:
            np.square(g, out=g_sq)
            np.multiply(stack, keep, out=stack)
            np.multiply(moments, decay, out=moments)
            np.add(moments, stack, out=moments)
            np.divide(m, 1.0 - b1 ** t, out=m_hat)
            np.divide(v, 1.0 - b2 ** t, out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            np.add(v_hat, eps, out=v_hat)
            np.multiply(m_hat, learning_rate, out=m_hat)
            np.divide(m_hat, v_hat, out=m_hat)
            np.subtract(flat, m_hat, out=flat)

        self.step = step


def adam_update(
    params: ModelParams,
    state: AdamState,
    grads: ModelParams,
    t: int,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam step (t counts from 1); updates in place.

    Adam is elementwise, so the step runs once over the whole buffers; each
    element sees the same operations, in the same order, as a per-array
    update.
    """
    if t < 1:
        raise ValueError("step index t counts from 1")
    if grads.layout != params.layout:
        raise ValueError(f"gradient layout {grads.layout} differs from {params.layout}")
    if state.m.layout != params.layout:
        raise ValueError(f"Adam state layout {state.m.layout} differs from {params.layout}")
    state.grads.flat[...] = grads.flat
    state.step(params.flat, t, config.learning_rate)
    return params, state


@dataclass(frozen=True)
class FeatureScaling:
    """Per-feature affine map to [0, 1]: scaled = (raw - offset) / scale."""

    offsets: np.ndarray
    scales: np.ndarray

    def apply(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The scaled rows of ``values``, in ``out`` (a float64 array of its
        shape) or a new float64 matrix; ``values`` is not written unless it
        is ``out``.  The subtraction writes the one float copy and the
        division scales it in place, with the same bits as
        ``(values - offsets) / scales``."""
        out = np.subtract(values, self.offsets, out=out, dtype=np.float64)
        np.divide(out, self.scales, out=out)
        return out


def schema_scaling(schema_id: str) -> FeatureScaling:
    """Min-max scaling from the schema-declared ranges (not from data)."""
    schema = build_domain(schema_id)
    offsets = np.array([f.lo for f in schema.features], dtype=np.float64)
    scales = np.array([max(f.hi - f.lo, 1) for f in schema.features], dtype=np.float64)
    return FeatureScaling(offsets, scales)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Final parameters plus everything needed to reproduce the run."""

    config: NetworkConfig
    train_config: TrainConfig
    params: ModelParams
    schema_id: str
    loss_trace: np.ndarray | None = field(default=None, repr=False)

    def outputs(self, values) -> np.ndarray:
        """Probabilities for an (n, input_width) matrix of raw case rows,
        scaled by :func:`schema_scaling` of the model's schema."""
        x = np.asarray(values)  # scaling makes the one float copy
        if x.ndim != 2 or x.shape[1] != self.config.input_width:
            raise ValueError(
                f"expected an (n, {self.config.input_width}) matrix, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("non-finite input value")
        x = schema_scaling(self.schema_id).apply(x)
        return _forward_scaled(self.params, x)[0][-1][:, 0]


_GATHER_ROWS = 4096  # rows of a dataset that ``train`` gathers per chunk


def train(
    dataset: Dataset,
    network_config: NetworkConfig,
    train_config: TrainConfig,
) -> TrainedModel:
    """Run ``iterations`` Adam steps over seeded shuffled mini-batches.

    One iteration is one gradient update on one mini-batch.  The case order
    is reshuffled on every pass through the dataset; a final short batch is
    used rather than dropped.  Raises :class:`TrainingDivergedError` as soon
    as a batch loss turns non-finite.
    """
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    schema = build_domain(dataset.schema_id)
    if network_config.input_width != schema.n_features:
        raise ValueError(
            f"network expects {network_config.input_width} inputs but domain "
            f"{dataset.schema_id!r} has {schema.n_features} features"
        )
    scaling = schema_scaling(dataset.schema_id)
    values = dataset.values
    y = dataset.labels.astype(np.float64)[:, None]

    params = init_params(network_config)
    state = AdamState(params)
    grads, adam_step = state.grads, state.step
    flat, learning_rate = params.flat, train_config.learning_rate
    rng = np.random.default_rng(train_config.shuffle_seed)
    n = len(dataset)
    bs = train_config.batch_size
    trace = np.empty(train_config.iterations)

    # a permutation's indices are in range, so "clip" never clips; unlike
    # "raise", it lets ``take`` write straight into ``out``
    x_epoch, y_epoch = np.empty(values.shape), np.empty(y.shape)
    rows = np.empty((min(n, _GATHER_ROWS), values.shape[1]), dtype=values.dtype)
    parts = [slice(start, start + _GATHER_ROWS) for start in range(0, n, _GATHER_ROWS)]
    chunks = [(part, rows[:len(x_epoch[part])], x_epoch[part]) for part in parts]
    pos = n
    with np.errstate(invalid="ignore"):  # a NaN is diagnosed from the loss
        for step in range(1, train_config.iterations + 1):
            if pos >= n:
                order = rng.permutation(n)
                for part, chunk, x_part in chunks:
                    np.take(values, order[part], axis=0, out=chunk, mode="clip")
                    scaling.apply(chunk, out=x_part)
                np.take(y, order, axis=0, out=y_epoch, mode="clip")
                pos = 0
            end = pos + bs
            try:
                trace[step - 1] = _backprop(params, x_epoch[pos:end], y_epoch[pos:end], grads)
            except TrainingDivergedError as err:
                raise TrainingDivergedError(f"step {step}: {err}") from None
            pos = end
            adam_step(flat, step, learning_rate)

    return TrainedModel(
        config=network_config,
        train_config=train_config,
        params=params,
        schema_id=dataset.schema_id,
        loss_trace=trace,
    )


# ---------------------------------------------------------------------------
# Model persistence: a single JSON file, ``params`` the base64 of the ``flat``
# buffer as little-endian float64, so that save -> load round-trips
# bit-exactly.  The file holds no copy of what the schema and the ``network``
# section fix: the input scaling comes from the schema, the layout from the
# layer widths.
# ---------------------------------------------------------------------------

def _config_from_block(cls, block: dict):
    """A config from its model-file block, which must name every field of
    ``cls`` and nothing else, each with its field's JSON type."""
    names = sorted(f.name for f in fields(cls))
    if sorted(block) != names:
        raise ValueError(f"{cls.__name__} keys {sorted(block)} differ from its fields {names}")
    return cls(**typed_fields(cls, block, cls.__name__))


def save_model(model: TrainedModel, path: str | Path) -> Path:
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "schema_id": model.schema_id,
        "network": asdict(model.config),
        "training": asdict(model.train_config),
        "params": base64.b64encode(model.params.flat.astype("<f8").tobytes()).decode(),
    }
    return write_json(path, doc)


def load_model(path: str | Path) -> TrainedModel:
    """The model in ``path``; every error that refuses it starts with the path."""
    doc = read_json(path, f"a {MODEL_FORMAT} file")
    try:
        return _model_from_doc(doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _model_from_doc(doc: dict) -> TrainedModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if type(version := doc.get("format_version")) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    if unknown := sorted(set(doc) - _MODEL_KEYS):
        raise ValueError(f"unknown model key(s) {unknown}")

    def section(key: str, kind: type):
        if not isinstance(doc.get(key), kind):
            raise ValueError(f"model key {key!r} must be a {kind.__name__}")
        return doc[key]

    config = _config_from_block(NetworkConfig, section("network", dict))
    train_config = _config_from_block(TrainConfig, section("training", dict))
    schema_id = section("schema_id", str)
    n_features = build_domain(schema_id).n_features
    if config.input_width != n_features:
        raise ValueError(f"network input_width {config.input_width} differs from the "
                         f"{n_features} features of schema {schema_id!r}")
    try:
        raw = base64.b64decode(section("params", str), validate=True)
    except ValueError as err:  # a character outside the alphabet, or bad padding
        raise ValueError(f"model key 'params' is not base64: {err}") from None
    layout = config.layout  # from the file: check its size before allocating it
    if len(raw) != 8 * (count := _param_count(layout)):
        raise ValueError(f"model key 'params' holds {len(raw)} bytes, not the {count} "
                         f"float64s of the network's layout {layout}")
    params = ModelParams(np.frombuffer(raw, dtype="<f8").astype(np.float64), layout)
    return TrainedModel(config=config, train_config=train_config, params=params,
                        schema_id=schema_id)
