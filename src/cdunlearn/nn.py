"""Architecture-independent numeric core: named parameter bundles, the sigmoid /
binary-cross-entropy pair, SGD and Adam, per-example squared-gradient
accumulation, and the shared early-stopping training loop.

Backward passes themselves are written per architecture (see ``model``); a
"wiring" object is anything exposing::

    layer_shapes() -> list[(layer_id, shape)]
    init_params(rng, seed) -> ParamStore
    forward(params, students, items, train=False, rng=None) -> (probs, cache)
    backward(params, cache, dz, mode) -> GradientBuffer   # mode: "sum" | "sq_sum"
    post_step(params) -> None                             # optional projection

where ``dz`` holds per-example values of d(loss)/d(final pre-activation).
With ``mode="sum"`` the returned buffer is the sum over the batch of
per-example gradients scaled by ``dz``; with ``mode="sq_sum"`` it is the sum of
elementwise squares of the per-example gradients. Parameters not touched by
any example in the batch come back exactly zero.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

PROB_EPS = 1e-7  # probability clamp applied before logs


def is_count(value, minimum: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``minimum``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function.

    ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` otherwise,
    computed in one pass: ``exp(-|x|)`` is ``exp(-x)`` or ``exp(x)`` exactly,
    so both branches share one exponential and one division per element.
    """
    x = np.asarray(x, dtype=np.float64)
    if not x.ndim:
        return float(sigmoid(x.reshape(1))[0])
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def scatter_rows(n_rows: int, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """An ``(n_rows, d)`` table holding the sum of ``rows[b]`` in row ``index[b]``.

    Equal to ``np.add.at`` into zeros: ``bincount`` adds the rows in batch
    order, starting from 0.0, so duplicate indices sum in the same order.
    (``bincount`` returns integers for an empty batch, hence the cast.)
    """
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    table = np.bincount(flat, weights=rows.ravel(), minlength=n_rows * d)
    return table.astype(np.float64, copy=False).reshape(n_rows, d)


def bce_loss(p: np.ndarray | float, y: np.ndarray | float) -> np.ndarray | float:
    """Binary cross-entropy with ``p`` clamped to [PROB_EPS, 1 - PROB_EPS].

    The clamp only guards against infinite logs from saturated sigmoids; the
    gradient used by training is taken through the unclamped sigmoid
    composition (d loss / d preactivation = p - y).
    """
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return out if out.ndim else float(out)


class ArrayBundle:
    """An ordered mapping of layer id -> float64 array with flat-vector views."""

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        items = list(arrays.items())
        ids = [k for k, _ in items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate layer ids")
        self._arrays: dict[str, np.ndarray] = {
            k: np.asarray(v, dtype=np.float64) for k, v in items
        }

    @property
    def layer_ids(self) -> tuple[str, ...]:
        return tuple(self._arrays)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {k: v.shape for k, v in self._arrays.items()}

    def __getitem__(self, layer_id: str) -> np.ndarray:
        return self._arrays[layer_id]

    def __setitem__(self, layer_id: str, value: np.ndarray) -> None:
        if layer_id not in self._arrays:
            raise KeyError(layer_id)
        if value.shape != self._arrays[layer_id].shape:
            raise ValueError(
                f"shape mismatch for {layer_id}: {value.shape} vs "
                f"{self._arrays[layer_id].shape}"
            )
        self._arrays[layer_id] = np.asarray(value, dtype=np.float64)

    def __contains__(self, layer_id: str) -> bool:
        return layer_id in self._arrays

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())

    @property
    def total_size(self) -> int:
        return sum(v.size for v in self._arrays.values())

    def congruent_with(self, other: "ArrayBundle") -> bool:
        return self.shapes() == other.shapes()

    def require_congruent(self, other: "ArrayBundle") -> None:
        if not self.congruent_with(other):
            raise ValueError("bundles are not shape-congruent")

    def to_vector(self) -> np.ndarray:
        return np.concatenate([v.ravel() for v in self._arrays.values()])

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._arrays.items()}


class ParamStore(ArrayBundle):
    """Model parameters grouped by named layer, plus the seed they grew from."""

    def __init__(self, arrays: Mapping[str, np.ndarray], rng_seed: int = 0):
        super().__init__(arrays)
        self.rng_seed = int(rng_seed)

    def copy(self) -> "ParamStore":
        return ParamStore(self.copy_arrays(), rng_seed=self.rng_seed)

    def with_vector(self, vec: np.ndarray) -> "ParamStore":
        """A new store with the same layout and values taken from a flat vector."""
        if vec.size != self.total_size:
            raise ValueError(f"vector has {vec.size} values, need {self.total_size}")
        arrays = {}
        offset = 0
        for k, v in self.items():
            arrays[k] = vec[offset : offset + v.size].reshape(v.shape).copy()
            offset += v.size
        return ParamStore(arrays, rng_seed=self.rng_seed)


class GradientBuffer(ArrayBundle):
    """Per-parameter reals laid out identically to a :class:`ParamStore`."""

    @classmethod
    def zeros_like(cls, template: ArrayBundle) -> "GradientBuffer":
        return cls({k: np.zeros_like(v) for k, v in template.items()})

    def add_(self, other: "GradientBuffer") -> "GradientBuffer":
        self.require_congruent(other)
        for k, v in self.items():
            v += other[k]
        return self

    def scale_(self, factor: float) -> "GradientBuffer":
        for _, v in self.items():
            v *= factor
        return self


@dataclass
class OptimizerState:
    """SGD or Adam state; moment buffers are congruent with the parameters."""

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: GradientBuffer | None = None
    v: GradientBuffer | None = None


def make_optimizer(
    kind: str,
    lr: float,
    params: ParamStore,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    state = OptimizerState(kind=kind, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    if kind == "adam":
        state.m = GradientBuffer.zeros_like(params)
        state.v = GradientBuffer.zeros_like(params)
    return state


def optimizer_step(
    params: ParamStore, grads: GradientBuffer, state: OptimizerState
) -> tuple[ParamStore, OptimizerState]:
    """Apply one in-place update; returns the same objects for chaining."""
    params.require_congruent(grads)
    if state.kind == "sgd":
        for k, p in params.items():
            p -= state.lr * grads[k]
        return params, state
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    assert state.m is not None and state.v is not None
    # In place, with the operations of
    #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g**2
    #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    # in that order, through two temporaries per layer.
    for k, p in params.items():
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        t = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += t
        np.square(g, out=t)
        t *= 1.0 - state.beta2
        v *= state.beta2
        v += t
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += state.eps
        u = np.divide(m, bc1)
        u *= state.lr
        u /= t
        p -= u
    return params, state


def example_gradient(wiring, params: ParamStore, student: int, item: int, score: float) -> GradientBuffer:
    """Exact loss gradient for a single example; untouched parameters are 0."""
    s = np.asarray([student], dtype=np.int64)
    q = np.asarray([item], dtype=np.int64)
    p, cache = wiring.forward(params, s, q, train=False)
    dz = p - np.asarray([score], dtype=np.float64)
    return wiring.backward(params, cache, dz, mode="sum")


def sum_sq_grads(
    wiring,
    params: ParamStore,
    students: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    batch_size: int = 4096,
) -> GradientBuffer:
    """Sum over the dataset of squared per-example loss gradients.

    Batches are processed in dataset order and each batch reduces in a fixed
    order, so the result is reproducible bit-for-bit on one machine.
    """
    n = len(scores)
    if n == 0:
        raise ValueError("dataset is empty")
    total = GradientBuffer.zeros_like(params)
    for start in range(0, n, batch_size):
        sl = slice(start, start + batch_size)
        p, cache = wiring.forward(params, students[sl], items[sl], train=False)
        dz = p - scores[sl]
        total.add_(wiring.backward(params, cache, dz, mode="sq_sum"))
    return total


def accumulate_sq_grads(
    wiring,
    params: ParamStore,
    students: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    batch_size: int = 4096,
) -> GradientBuffer:
    """Mean over the dataset of squared per-example loss gradients: the
    :func:`sum_sq_grads` times ``1 / n``."""
    total = sum_sq_grads(wiring, params, students, items, scores, batch_size)
    return total.scale_(1.0 / len(scores))


@dataclass
class FitResult:
    """Bookkeeping from one training run."""

    epochs_run: int
    best_epoch: int
    monitor_value: float
    wall_seconds: float


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    lr: float = 0.002
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 5
    min_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        for name, minimum in (("batch_size", 1), ("max_epochs", 1), ("patience", 0)):
            if not is_count(value := getattr(self, name), minimum):
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def fit_params(
    wiring,
    train_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    monitor_arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: TrainConfig,
    seed: int,
    monitor_fn: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[ParamStore, FitResult]:
    """Mini-batch training with early stopping on a monitor score.

    The monitor score (higher is better) is evaluated once per epoch on
    ``monitor_arrays`` with dropout disabled; the best-scoring parameters are
    returned. One RNG seeded with ``seed`` drives initialization, the per-epoch
    shuffle, and dropout masks, so identical inputs give bit-identical output.
    """
    t0 = time.perf_counter()
    s_tr, q_tr, y_tr = train_arrays
    n = len(y_tr)
    if n == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(seed)
    params = wiring.init_params(rng, seed)
    state = make_optimizer(cfg.optimizer, cfg.lr, params)

    best_value = -np.inf
    best_params = params.copy()
    best_epoch = 0
    bad_epochs = 0
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            p, cache = wiring.forward(params, s_tr[idx], q_tr[idx], train=True, rng=rng)
            dz = (p - y_tr[idx]) / len(idx)
            grads = wiring.backward(params, cache, dz, mode="sum")
            optimizer_step(params, grads, state)
            wiring.post_step(params)
        value = monitor_fn(_predict_all(wiring, params, monitor_arrays), monitor_arrays[2])
        if value > best_value + cfg.min_delta:
            best_value = value
            best_params = params.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    wall = time.perf_counter() - t0
    return best_params, FitResult(epochs_run, best_epoch, best_value, wall)


def _predict_all(
    wiring,
    params: ParamStore,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
    chunk: int = 65536,
) -> np.ndarray:
    s, q, _ = arrays
    out = np.empty(len(s), dtype=np.float64)
    for start in range(0, len(s), chunk):
        sl = slice(start, start + chunk)
        out[sl], _ = wiring.forward(params, s[sl], q[sl], train=False)
    return out
