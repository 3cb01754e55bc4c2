"""From-scratch feed-forward classifier: sigmoid layers, binary cross-entropy
loss, backpropagation, and mini-batch Adam.

Every layer, the output included, applies an elementwise sigmoid.  Inputs are
min-max scaled to [0, 1] using the schema-declared feature ranges, recorded
on the trained model so that train and test scaling are identical by
construction.  Trained models accept raw case values only and scale
internally, so scaling can never be applied twice.

Training is single-threaded and bit-deterministic given (dataset, seeds,
config); distinct runs may execute concurrently with independent state.

Memory layout.  A :class:`ModelParams` owns one contiguous float64 buffer,
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

One step kernel.  ``_backprop`` (loss and gradients of one batch) and the
step ``_adam_kernel`` builds hold all the arithmetic of a training step.
``train`` binds them once per run, gathers each epoch's rows once so that a
batch is a slice, and enters ``np.errstate`` once.  The public
``loss_and_grads`` and ``adam_update`` check their arguments and run the
same kernels per call.  Matrix products use ``np.dot``: on the 2-d
float64 operands of every standard layer shape it gave the same bits as
``@``, for less call overhead.

Buffer ownership.  ``loss_and_grads(params, x, y, out=grads)`` writes the
gradients into the caller's ``grads`` and returns it.  Without ``out`` the
gradients go to a new buffer that nothing else references, so the result
of one call is never overwritten by the next.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np
from scipy.special import expit

from .domains import Case, build_domain
from .generation import Dataset

STANDARD_HIDDEN_LAYERS = ((12,), (24, 6), (24, 10, 3))

MODEL_FORMAT = "rationale-lab-model"
MODEL_FORMAT_VERSION = 1


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
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_width, *self.hidden_layers, 1)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer constants and the batch schedule."""

    learning_rate: float = 0.001
    batch_size: int = 50
    iterations: int = 50_000
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class ModelParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors, as
    views into one float64 buffer ``flat`` laid out as the module docstring
    describes.  ``layout`` is the tuple of weight shapes.  The constructor
    copies its arguments into a new buffer.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(biases):
            raise ValueError("one bias vector per weight matrix required")
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")
        for w, w_next in zip(weights[:-1], weights[1:]):
            if w.shape[1] != w_next.shape[0]:
                raise ValueError(f"layer shapes {w.shape} -> {w_next.shape} do not chain")
        layout = tuple(w.shape for w in weights)
        self._bind(np.empty(sum(w.size + b.size for w, b in zip(weights, biases))), layout)
        for dst, src in zip(self.weights + self.biases, weights + biases):
            dst[...] = src

    def _bind(self, flat: np.ndarray, layout: tuple[tuple[int, int], ...]) -> None:
        self.flat = flat
        self.layout = layout
        self.weights, self.biases = [], []
        pos = 0
        for fan_in, fan_out in layout:
            self.weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            self.biases.append(flat[pos : pos + fan_out])
            pos += fan_out

    @classmethod
    def _on(cls, flat: np.ndarray, layout: tuple[tuple[int, int], ...]) -> "ModelParams":
        """Views over an existing buffer of the given layout, no copy."""
        params = cls.__new__(cls)
        params._bind(flat, layout)
        return params

    def zeros_like(self) -> "ModelParams":
        """A zero-filled buffer of the same layout."""
        return ModelParams._on(np.zeros(self.flat.size), self.layout)

    def empty_like(self) -> "ModelParams":
        """An uninitialised buffer of the same layout, e.g. for ``out=``."""
        return ModelParams._on(np.empty(self.flat.size), self.layout)


def init_params(config: NetworkConfig) -> ModelParams:
    """Fan-balanced uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(config.init_seed)
    weights, biases = [], []
    sizes = config.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def _forward_scaled(params: ModelParams, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Activations of every layer plus the output layer's pre-activation."""
    activations = [x]
    z = None
    for w, b in zip(params.weights, params.biases):
        z = np.dot(activations[-1], w) + b
        activations.append(expit(z))
    return activations, z


def _scaled_outputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Network outputs, one per row of an already scaled matrix."""
    return _forward_scaled(params, x)[0][-1][:, 0]


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


def loss_and_grads(
    params: ModelParams, x: np.ndarray, y: np.ndarray, out: ModelParams | None = None
) -> tuple[float, ModelParams]:
    """Mean binary cross-entropy over a batch and its backprop gradients.

    ``x`` is already scaled, shape (n, input_width); ``y`` holds 0/1 labels.
    The loss is evaluated from the output pre-activation z as
    softplus(z) - y*z, which is exact and overflow-free.

    The gradients are written into ``out`` when given (it must have the
    layout of ``params``, and is returned); otherwise into a new buffer.
    """
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2-d array")
    if out is None:
        out = params.empty_like()
    elif out.layout != params.layout:
        raise ValueError(f"gradient layout {out.layout} differs from {params.layout}")
    with np.errstate(invalid="ignore"):
        loss = _backprop(params, x, np.asarray(y, dtype=np.float64).reshape(-1, 1), out)
    return loss, out


class AdamState:
    """First and second moment accumulators: the two rows of one ``(2, P)``
    buffer ``moments``, viewed in the parameter layout as ``m`` and ``v``."""

    def __init__(self, params: ModelParams):
        self.moments = np.zeros((2, params.flat.size))
        self.m = ModelParams._on(self.moments[0], params.layout)
        self.v = ModelParams._on(self.moments[1], params.layout)
        self._kernel = None  # (config, gradient buffer, step), set by _adam_kernel


def _adam_kernel(state: AdamState, config: TrainConfig):
    """The Adam step of ``state`` under ``config``, built once and kept on
    the state.

    Returns ``(g, step)``: ``step(flat, t)`` reads the gradient from the
    flat buffer ``g`` (overwriting it) and updates ``flat`` and both moments
    in place.  The decay and the increment multiply by full-length factor
    rows: a broadcast ``(2, 1)`` factor measured more than twice as slow.
    """
    if state._kernel is not None and state._kernel[0] == config:
        return state._kernel[1:]
    b1, b2, eps, lr = config.beta1, config.beta2, config.epsilon, config.learning_rate
    size = state.moments.shape[1]
    moments = state.moments.reshape(-1)
    m, v = state.moments
    stack = np.empty(2 * size)  # the gradient, then its square
    g, g_sq = stack[:size], stack[size:]
    m_hat, v_hat = np.empty(size), np.empty(size)
    decay = np.repeat([b1, b2], size)
    keep = np.repeat([1.0 - b1, 1.0 - b2], size)

    def step(flat: np.ndarray, t: int) -> None:
        np.square(g, out=g_sq)
        np.multiply(stack, keep, out=stack)
        np.multiply(moments, decay, out=moments)
        np.add(moments, stack, out=moments)
        np.divide(m, 1.0 - b1 ** t, out=m_hat)
        np.divide(v, 1.0 - b2 ** t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        np.add(v_hat, eps, out=v_hat)
        np.multiply(m_hat, lr, out=m_hat)
        np.divide(m_hat, v_hat, out=m_hat)
        np.subtract(flat, m_hat, out=flat)

    state._kernel = (config, g, step)
    return g, step


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
    g, step = _adam_kernel(state, config)
    g[...] = grads.flat
    step(params.flat, t)
    return params, state


@dataclass(frozen=True)
class FeatureScaling:
    """Per-feature affine map to [0, 1]: scaled = (raw - offset) / scale."""

    offsets: np.ndarray
    scales: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.offsets) / self.scales


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
    scaling: FeatureScaling
    schema_id: str
    feature_names: tuple[str, ...]
    loss_trace: np.ndarray | None = field(default=None, repr=False)

    def _encode(self, cases) -> np.ndarray:
        if isinstance(cases, Mapping):
            schema = build_domain(self.schema_id)
            return schema.case_to_row(cases)[None, :]
        arr = np.asarray(cases, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.config.input_width:
            raise ValueError(
                f"expected {self.config.input_width}-wide input, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("non-finite input value")
        return arr

    def outputs(self, cases) -> np.ndarray:
        """Probabilities for raw cases: a Case mapping, a row, or a matrix."""
        return _scaled_outputs(self.params, self.scaling.apply(self._encode(cases)))


def forward(model: TrainedModel, case) -> float | np.ndarray:
    """Network output in (0, 1) for one raw case, or per row of a matrix."""
    out = model.outputs(case)
    if isinstance(case, Mapping) or np.asarray(case).ndim == 1:
        return float(out[0])
    return out


def predict(model: TrainedModel, case: Case) -> bool:
    """Thresholded decision; an output of exactly 0.5 counts as positive."""
    return bool(model.outputs(case)[0] >= 0.5)


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
    x = scaling.apply(dataset.values)
    y = dataset.labels.astype(np.float64)[:, None]

    params = init_params(network_config)
    g, adam_step = _adam_kernel(AdamState(params), train_config)
    grads = ModelParams._on(g, params.layout)
    flat = params.flat
    rng = np.random.default_rng(train_config.shuffle_seed)
    n = len(dataset)
    bs = train_config.batch_size
    trace = np.empty(train_config.iterations)

    pos = n
    with np.errstate(invalid="ignore"):  # a NaN is diagnosed from the loss
        for step in range(1, train_config.iterations + 1):
            if pos >= n:  # a new epoch: its rows gathered once, each batch a slice
                order = rng.permutation(n)
                x_epoch, y_epoch = x[order], y[order]
                pos = 0
            end = pos + bs
            try:
                trace[step - 1] = _backprop(params, x_epoch[pos:end], y_epoch[pos:end], grads)
            except TrainingDivergedError as err:
                raise TrainingDivergedError(f"step {step}: {err}") from None
            pos = end
            adam_step(flat, step)

    return TrainedModel(
        config=network_config,
        train_config=train_config,
        params=params,
        scaling=scaling,
        schema_id=dataset.schema_id,
        feature_names=schema.feature_names,
        loss_trace=trace,
    )


# ---------------------------------------------------------------------------
# Model persistence: a single JSON file, arrays as base64 little-endian
# float64, so that save -> load round-trips bit-exactly.
# ---------------------------------------------------------------------------

def _pack(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode()


def _unpack(s: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(base64.b64decode(s), dtype="<f8").reshape(shape)


def _config_block(config: NetworkConfig | TrainConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _config_from_block(cls, block: dict, path: str | Path):
    """A config from its model-file block, which must name every field of
    ``cls`` and nothing else; each value is cast to its field's type."""
    names = [f.name for f in fields(cls)]
    if sorted(block) != sorted(names):
        raise ValueError(
            f"{path}: {cls.__name__} keys {sorted(block)} differ from its fields {sorted(names)}"
        )
    types = get_type_hints(cls)
    return cls(**{name: types[name](block[name]) for name in names})


def save_model(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "float_encoding": "base64 little-endian float64",
        "schema_id": model.schema_id,
        "feature_names": list(model.feature_names),
        "network": _config_block(model.config),
        "training": _config_block(model.train_config),
        "scaling": {
            "offsets": _pack(model.scaling.offsets),
            "scales": _pack(model.scaling.scales),
        },
        "layers": [
            {"shape": list(w.shape), "weights": _pack(w), "bias": _pack(b)}
            for w, b in zip(model.params.weights, model.params.biases)
        ],
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def load_model(path: str | Path) -> TrainedModel:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {doc.get('format_version')}")
    config = _config_from_block(NetworkConfig, doc["network"], path)
    train_config = _config_from_block(TrainConfig, doc["training"], path)
    n_features = len(doc["feature_names"])
    scaling = FeatureScaling(
        offsets=_unpack(doc["scaling"]["offsets"], (n_features,)),
        scales=_unpack(doc["scaling"]["scales"], (n_features,)),
    )
    shapes = [tuple(layer["shape"]) for layer in doc["layers"]]
    sizes = config.layer_sizes
    if shapes != list(zip(sizes[:-1], sizes[1:])):
        raise ValueError(
            f"{path}: layer shapes {shapes} do not match the network's layer sizes {sizes}"
        )
    weights = [_unpack(layer["weights"], shape) for layer, shape in zip(doc["layers"], shapes)]
    biases = [_unpack(layer["bias"], (shape[1],)) for layer, shape in zip(doc["layers"], shapes)]
    return TrainedModel(
        config=config,
        train_config=train_config,
        params=ModelParams(weights, biases),
        scaling=scaling,
        schema_id=doc["schema_id"],
        feature_names=tuple(doc["feature_names"]),
        loss_trace=None,
    )
