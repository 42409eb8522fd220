"""MLP regression head trained with AdamW, identical for every embedder.

The architecture is fixed at two ReLU hidden layers; only the input width
varies with the feature representation. Training normalizes targets with
train-split statistics, sweeps a learning-rate x weight-decay grid, applies
validation-based early stopping, and restores the best weights seen. All of it
runs in float64 and is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from .metrics import bundle
from .tasks import check_integers, from_json

HIDDEN_WIDTH = 256
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FULL_BATCH_MAX = 1024
#: Elements per block of ``adamw_step``: each block of the parameter, moment
#: and gradient buffers stays in cache through all of the step's passes.
ADAMW_BLOCK = 32_768

_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")
#: This thread's training arena and forward/backward workspace; see ``_thread_buffer``.
_THREAD = threading.local()


class TrainingDivergedError(RuntimeError):
    """A gradient went non-finite during optimization."""


class TrainingFailedError(RuntimeError):
    """Every sweep cell diverged; carries the sweep table for inspection."""

    def __init__(self, message: str, sweep: list[dict]):
        super().__init__(message)
        self.sweep = sweep


def _param_shapes(input_dim: int) -> tuple[tuple[int, ...], ...]:
    h = HIDDEN_WIDTH
    return (input_dim, h), (h,), (h, h), (h,), (h, 1), (1,)


class MlpModel(dict):
    """Weights ``w1`` ... ``b3`` (also attributes) as reshaped views into one
    flat float64 buffer ``flat``, in ``_PARAM_NAMES`` order; gradients share
    the type. ``forward`` and ``loss_and_grad`` keep their scratch in the
    calling thread's workspace, so several threads may run one model at once;
    only training writes to a model.
    """

    def __init__(self, input_dim: int, flat: np.ndarray | None = None):
        shapes = _param_shapes(input_dim)
        bounds = np.cumsum([0] + [math.prod(s) for s in shapes])
        self.flat = np.zeros(bounds[-1]) if flat is None else flat
        for name, shape, start, end in zip(_PARAM_NAMES, shapes, bounds, bounds[1:]):
            self[name] = self.flat[start:end].reshape(shape)
        self.__dict__.update(self)
        self.input_dim = input_dim


def _draw_init(model: MlpModel, seed: int) -> None:
    """He-style uniform init, seeded; biases start at zero."""
    rng = np.random.default_rng(seed)
    for w, b in ((model.w1, model.b1), (model.w2, model.b2), (model.w3, model.b3)):
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
        b[...] = 0.0


def init_model(input_dim: int, seed: int) -> MlpModel:
    model = MlpModel(input_dim)
    _draw_init(model, seed)
    return model


def _thread_buffer(name: str, size: int) -> np.ndarray:
    """The first ``size`` elements of this thread's float64 buffer ``name``.

    The buffer grows to fit and never shrinks, so a thread keeps its largest
    footprint until it ends and later calls fault in no new pages. A later
    call overwrites the view, so none may outlive its caller.
    """
    buf = getattr(_THREAD, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_THREAD, name, buf)
    return buf[:size]


def _layers(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three layer products for the rows of ``x``, in this thread's
    workspace: the hidden activations h1 and h2, room for one ReLU mask, and
    the output without its bias."""
    n, h = x.shape[0], x.shape[0] * HIDDEN_WIDTH
    buf = _thread_buffer("workspace", 2 * h + h // 8 + n)
    h1, h2 = buf[: 2 * h].reshape(2, n, HIDDEN_WIDTH)
    mask = buf[2 * h : 2 * h + h // 8].view(bool).reshape(n, HIDDEN_WIDTH)
    np.maximum(np.add(np.matmul(x, model.w1, out=h1), model.b1, out=h1), 0.0, out=h1)
    np.maximum(np.add(np.matmul(h1, model.w2, out=h2), model.b2, out=h2), 0.0, out=h2)
    return h1, h2, mask, np.matmul(h2, model.w3, out=buf[-n:].reshape(n, 1)).ravel()


def forward(model: MlpModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"features must be (n, {model.input_dim}), got {x.shape}")
    return _layers(model, x)[3] + model.b3[0]


def loss_and_grad(
    model: MlpModel, features, targets, grads: MlpModel | None = None
) -> tuple[float, MlpModel]:
    """Mean squared error and its gradient by reverse accumulation.

    ReLU uses subgradient 0 at the kink. The gradient fills ``grads`` when
    given, and a new buffer otherwise, so no later call overwrites one it returned.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = y.size
    if x.shape[0] != n:
        raise ValueError(f"row count mismatch: {x.shape[0]} features vs {n} targets")
    grads = MlpModel(model.input_dim) if grads is None else grads
    h1, h2, mask, resid = _layers(model, x)
    resid += model.b3[0]
    resid -= y
    loss = float(resid @ resid) / n

    # Each delta keeps the unfused code's operands and float*bool ReLU mask,
    # and overwrites its layer's activations once their mask is taken.
    d_yhat = np.multiply(resid, 2.0 / n, out=resid)
    np.matmul(h2.T, d_yhat[:, None], out=grads.w3)
    grads.b3[0] = d_yhat.sum()
    np.greater(h2, 0.0, out=mask)
    d_z2 = np.multiply(d_yhat[:, None], model.w3.ravel(), out=h2)  # np.outer as a broadcast
    np.multiply(d_z2, mask, out=d_z2)
    np.matmul(h1.T, d_z2, out=grads.w2)
    np.sum(d_z2, axis=0, out=grads.b2)
    np.greater(h1, 0.0, out=mask)
    d_z1 = np.matmul(d_z2, model.w2.T, out=h1)
    np.multiply(d_z1, mask, out=d_z1)
    np.matmul(x.T, d_z1, out=grads.w1)
    np.sum(d_z1, axis=0, out=grads.b1)
    return loss, grads


@dataclass
class AdamState:
    """AdamW moments as flat buffers the size of the model's, plus two rows
    of scratch of up to ``ADAMW_BLOCK`` elements."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, model: MlpModel) -> "AdamState":
        size = model.flat.size
        return cls(np.zeros(size), np.zeros(size), np.empty((2, min(size, ADAMW_BLOCK))))


def adamw_step(model: MlpModel, grads: MlpModel, lr: float, weight_decay: float, state: AdamState) -> None:
    """One AdamW update in place: decoupled decay plus bias-corrected moments."""
    g = grads.flat
    if not np.isfinite(g).all():
        raise TrainingDivergedError("non-finite gradient")
    state.step += 1
    bc1, bc2 = 1.0 - ADAM_BETA1**state.step, 1.0 - ADAM_BETA2**state.step
    for lo in range(0, g.size, ADAMW_BLOCK):
        block = slice(lo, lo + ADAMW_BLOCK)
        p, m, v, gb = model.flat[block], state.m[block], state.v[block], g[block]
        s, d = state.scratch[:, : gb.size]
        # Each pass keeps the operand order of the per-tensor update, so
        # results stay bit-identical: m = b1*m + (1-b1)*g,
        # v = b2*v + ((1-b2)*g)*g, p -= (lr*wd)*p, then
        # p -= (lr*m_hat) / (sqrt(v_hat) + eps).
        m *= ADAM_BETA1
        m += np.multiply(gb, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(gb, 1.0 - ADAM_BETA2, out=s), gb, out=s)
        p -= np.multiply(p, lr * weight_decay, out=s)
        s = np.multiply(np.divide(m, bc1, out=s), lr, out=s)
        d = np.add(np.sqrt(np.divide(v, bc2, out=d), out=d), ADAM_EPS, out=d)
        p -= np.divide(s, d, out=s)


@dataclass(frozen=True)
class YNormalizer:
    """Affine target transform fit on the training split only."""

    mu: float
    sigma: float

    def normalize(self, y) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.mu) / self.sigma

    def denormalize(self, y_norm) -> np.ndarray:
        return np.asarray(y_norm, dtype=np.float64) * self.sigma + self.mu


def fit_normalizer(train_y) -> YNormalizer:
    y = np.asarray(train_y, dtype=np.float64)
    if y.size < 2:
        raise ValueError("need at least 2 target values")
    sigma = float(y.std())
    if sigma < 1e-12:
        sigma = 1.0  # constant targets: shift only
    return YNormalizer(mu=float(y.mean()), sigma=sigma)


@dataclass(frozen=True)
class TrainConfig:
    learning_rates: tuple[float, ...] = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
    weight_decays: tuple[float, ...] = (0.0, 1e-1, 1.0)
    max_epochs: int = 300
    patience: int = 20
    batch_size: int = 256

    def __post_init__(self) -> None:
        if not self.learning_rates or not self.weight_decays:
            raise ValueError("hyperparameter grids must be non-empty")
        grids = (("learning_rates", self.learning_rates, "> 0"), ("weight_decays", self.weight_decays, ">= 0"))
        for name, values, rule in grids:
            bad = [
                v for v in values
                if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v)
                or v < 0 or (v == 0 and rule == "> 0")
            ]
            if bad:
                raise ValueError(f"{name} must be finite numbers {rule}, got {bad}")
        check_integers(vars(self), max_epochs=1, patience=1, batch_size=1)

    @classmethod
    def from_overrides(cls, overrides: dict | None) -> "TrainConfig":
        if isinstance(overrides, dict) and "seed" in overrides:
            raise ValueError("train takes no 'seed': the seed comes from `seeds` (--seed in the CLI)")
        return from_json(cls, {} if overrides is None else overrides, "train")


@dataclass
class RegressionReport:
    sweep: list[dict]
    chosen_lr: float
    chosen_wd: float
    epochs_run: int
    metrics: dict = field(default_factory=dict)


def _seed_for_cell(seed: int, lr_idx: int, wd_idx: int) -> int:
    return (seed * 1_000_003 + lr_idx * 101 + wd_idx) % (2**31 - 1)


def _train_one_cell(
    model: MlpModel, grads: MlpModel, state: AdamState, best: np.ndarray,
    x, y_norm, xv, yv_norm, lr: float, wd: float, cfg: TrainConfig, shuffle_seed: int,
) -> tuple[float, int]:
    """Train ``model`` in place from its current weights and zeroed AdamW
    moments, copying the weights of each new best validation epoch into
    ``best``; return the best validation MSE and its epoch, or inf and the
    epoch where training diverged."""
    state.m.fill(0.0)
    state.v.fill(0.0)
    state.step = 0
    rng = np.random.default_rng(shuffle_seed)
    n = x.shape[0]

    best_val, best_epoch, stale = np.inf, 0, 0
    # A diverging cell overflows before the checks below catch it; they report it, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            if n <= FULL_BATCH_MAX:
                batches = [slice(None)]
            else:
                order = rng.permutation(n)
                batches = [order[start : start + cfg.batch_size] for start in range(0, n, cfg.batch_size)]
            try:
                for idx in batches:
                    loss_and_grad(model, x[idx], y_norm[idx], grads)
                    adamw_step(model, grads, lr, wd, state)
            except TrainingDivergedError:
                return np.inf, epoch

            val_pred = forward(model, xv)
            val_mse = float(np.mean((val_pred - yv_norm) ** 2))
            if not np.isfinite(val_mse):
                return np.inf, epoch
            if val_mse < best_val:
                best_val, best_epoch, stale = val_mse, epoch, 0
                np.copyto(best, model.flat)
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    return best_val, best_epoch


def train(
    train_data: tuple,
    val_data: tuple,
    cfg: TrainConfig | None = None,
    seed: int = 0,
) -> tuple[MlpModel, YNormalizer, RegressionReport]:
    """Sweep the hyperparameter grid, early-stop each cell on validation MSE,
    and return the best cell's weights at its best epoch.

    ``train_data`` and ``val_data`` are (features, y) pairs; targets are
    normalized internally with train-split statistics. Deterministic given
    ``seed``: every cell starts from the same init seeded by it, and cell
    ``(i, j)`` shuffles minibatches with ``_seed_for_cell(seed, i, j)``. The
    model, gradient, the current cell's best weights and AdamW state live in
    this thread's arena; a cell that beats the sweep's best so far copies its
    best weights into the buffer the returned model owns.
    """
    cfg = cfg or TrainConfig()
    x, y = np.asarray(train_data[0], dtype=np.float64), np.asarray(train_data[1], dtype=np.float64)
    xv, yv = np.asarray(val_data[0], dtype=np.float64), np.asarray(val_data[1], dtype=np.float64)
    if x.shape[0] == 0 or xv.shape[0] == 0:
        raise ValueError("train and validation sets must be non-empty")

    normalizer = fit_normalizer(y)
    y_norm = normalizer.normalize(y)
    yv_norm = normalizer.normalize(yv)

    dim = x.shape[1]
    size = sum(math.prod(shape) for shape in _param_shapes(dim))
    arena = _thread_buffer("arena", 5 * size + 2 * min(size, ADAMW_BLOCK))
    flat, grad, cell_best, m, v = arena[: 5 * size].reshape(5, size)
    model, grads = MlpModel(dim, flat), MlpModel(dim, grad)
    state = AdamState(m, v, arena[5 * size :].reshape(2, -1))
    sweep_best = np.empty(size)  # the returned model's own buffer, so no later call writes to it

    sweep: list[dict] = []
    best = (np.inf, 0, None, None)  # (val_mse, epochs, lr, wd); sweep_best holds its weights
    for i, lr in enumerate(cfg.learning_rates):
        for j, wd in enumerate(cfg.weight_decays):
            _draw_init(model, seed)
            val_mse, epochs = _train_one_cell(
                model, grads, state, cell_best, x, y_norm, xv, yv_norm, lr, wd, cfg,
                _seed_for_cell(seed, i, j),
            )
            sweep.append(
                {"lr": lr, "weight_decay": wd, "val_mse": float(val_mse), "epochs": epochs}
            )
            if val_mse < best[0]:
                best = (val_mse, epochs, lr, wd)
                np.copyto(sweep_best, cell_best)

    if best[2] is None:
        raise TrainingFailedError("every sweep cell diverged", sweep)

    report = RegressionReport(
        sweep=sweep, chosen_lr=best[2], chosen_wd=best[3], epochs_run=best[1]
    )
    return MlpModel(dim, sweep_best), normalizer, report


def evaluate(model: MlpModel, normalizer: YNormalizer, features, y) -> dict[str, float]:
    """Score denormalized predictions against raw targets."""
    preds = normalizer.denormalize(forward(model, features))
    return bundle(np.asarray(y, dtype=np.float64), preds)


def train_and_evaluate(
    train_data: tuple,
    val_data: tuple,
    test_data: tuple,
    cfg: TrainConfig | None = None,
    seed: int = 0,
) -> tuple[MlpModel, YNormalizer, RegressionReport]:
    model, normalizer, report = train(train_data, val_data, cfg, seed)
    report.metrics = evaluate(model, normalizer, test_data[0], test_data[1])
    return model, normalizer, report


MODEL_FORMAT_VERSION = 1


def save_model(path, model: MlpModel, normalizer: YNormalizer, provenance: str) -> None:
    """Persist weights plus normalizer and the embedder provenance they assume."""
    meta = {
        "version": MODEL_FORMAT_VERSION,
        "input_dim": model.input_dim,
        "mu": normalizer.mu,
        "sigma": normalizer.sigma,
        "provenance": provenance,
    }
    np.savez(path, meta=json.dumps(meta), **model)


def load_model(path) -> tuple[MlpModel, YNormalizer, str]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model file version: {meta.get('version')}")
        model = MlpModel(meta["input_dim"])
        for name, view in model.items():
            if data[name].shape != view.shape:
                raise ValueError(f"model file {name} has shape {data[name].shape}; this head needs {view.shape}")
            view[...] = data[name]
    normalizer = YNormalizer(mu=meta["mu"], sigma=meta["sigma"])
    return model, normalizer, meta["provenance"]
