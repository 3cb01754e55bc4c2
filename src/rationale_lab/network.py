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

Buffer ownership.  ``loss_and_grads(params, x, y, out=grads)`` writes the
gradients into the caller's ``grads`` and returns it; ``train`` allocates
one such buffer per run and reuses it every step.  Without ``out`` the
gradients go to a new buffer that nothing else references, so the result
of one call is never overwritten by the next.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

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

    @property
    def n_layers(self) -> int:
        return len(self.layout)

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
        z = activations[-1] @ w + b
        activations.append(expit(z))
    return activations, z


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
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    activations, z_out = _forward_scaled(params, x)
    n = x.shape[0]
    with np.errstate(invalid="ignore"):  # a NaN here is diagnosed right below
        loss = float((np.logaddexp(0.0, z_out) - y * z_out).mean())
    if not math.isfinite(loss):
        raise TrainingDivergedError("non-finite loss on batch")

    delta = (activations[-1] - y) / n  # dLoss/dz at the output layer
    for layer in range(params.n_layers - 1, -1, -1):
        a_prev = activations[layer]
        np.matmul(a_prev.T, delta, out=out.weights[layer])
        delta.sum(axis=0, out=out.biases[layer])
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * a_prev * (1.0 - a_prev)
    return loss, out


class AdamState:
    """First and second moment accumulators, each one buffer laid out like
    the parameters."""

    def __init__(self, params: ModelParams):
        self.m = params.zeros_like()
        self.v = params.zeros_like()


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
    b1, b2, eps, lr = config.beta1, config.beta2, config.epsilon, config.learning_rate
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v, g = state.m.flat, state.v.flat, grads.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
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
        x = self.scaling.apply(self._encode(cases))
        _, z = _forward_scaled(self.params, x)
        return expit(z)[:, 0]


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
    y = dataset.labels.astype(np.float64)

    params = init_params(network_config)
    state = AdamState(params)
    grads = params.empty_like()
    rng = np.random.default_rng(train_config.shuffle_seed)
    n = len(dataset)
    bs = train_config.batch_size
    trace = np.empty(train_config.iterations)

    order = rng.permutation(n)
    pos = 0
    for step in range(1, train_config.iterations + 1):
        if pos >= n:
            order = rng.permutation(n)
            pos = 0
        batch = order[pos : pos + bs]
        pos += bs
        try:
            loss, _ = loss_and_grads(params, x[batch], y[batch], out=grads)
        except TrainingDivergedError as err:
            raise TrainingDivergedError(f"step {step}: {err}") from None
        trace[step - 1] = loss
        adam_update(params, state, grads, step, train_config)

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


def save_model(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "float_encoding": "base64 little-endian float64",
        "schema_id": model.schema_id,
        "feature_names": list(model.feature_names),
        "network": {
            "input_width": model.config.input_width,
            "hidden_layers": list(model.config.hidden_layers),
            "init_seed": model.config.init_seed,
            "allow_nonstandard": model.config.allow_nonstandard,
        },
        "training": {
            "learning_rate": model.train_config.learning_rate,
            "batch_size": model.train_config.batch_size,
            "iterations": model.train_config.iterations,
            "beta1": model.train_config.beta1,
            "beta2": model.train_config.beta2,
            "epsilon": model.train_config.epsilon,
            "shuffle_seed": model.train_config.shuffle_seed,
        },
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
    net = doc["network"]
    config = NetworkConfig(
        input_width=int(net["input_width"]),
        hidden_layers=tuple(net["hidden_layers"]),
        init_seed=int(net["init_seed"]),
        allow_nonstandard=bool(net.get("allow_nonstandard", False)),
    )
    tr = doc["training"]
    train_config = TrainConfig(
        learning_rate=float(tr["learning_rate"]),
        batch_size=int(tr["batch_size"]),
        iterations=int(tr["iterations"]),
        beta1=float(tr["beta1"]),
        beta2=float(tr["beta2"]),
        epsilon=float(tr["epsilon"]),
        shuffle_seed=int(tr["shuffle_seed"]),
    )
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
