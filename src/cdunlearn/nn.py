"""Architecture-independent numeric core: named parameter bundles, the sigmoid /
binary-cross-entropy pair, SGD and Adam, per-example squared-gradient
accumulation, and the shared early-stopping training loop.

Backward passes themselves are written per architecture (see ``model``); a
"wiring" object is anything exposing::

    layer_shapes() -> list[(layer_id, shape)]
    init_params(rng) -> ArrayBundle
    forward(params, students, items, train=False, rng=None) -> (probs, cache)
    backward(params, cache, dz, mode) -> dict             # mode: "sum" | "sq_sum"
    post_step(params) -> None                             # optional in-place projection

where ``dz`` holds per-example values of d(loss)/d(final pre-activation).
``backward`` returns a plain dict of layer id -> gradient, in layer order:
with ``mode="sum"`` the sum over the batch of per-example gradients scaled by
``dz``, with ``mode="sq_sum"`` the sum of their elementwise squares.
Parameters not touched by any example in the batch are exactly zero. A
row-indexed table that is large next to the batch may come back as a
:class:`RowGrad`, which holds only the rows the batch touched (see
:func:`row_grads`); :func:`dense` turns such a map into a bundle.

An :class:`ArrayBundle` is flat: its layers are views of one contiguous
vector from construction on. ``optimizer_step`` updates that vector, and
Adam's moments, with a few whole-vector operations.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator, Mapping

import numpy as np

PROB_EPS = 1e-7  # probability clamp applied before logs
PREDICT_ROWS = 512  # chunk alignment of _predict_all
# row_grads gives a table its gradient as a RowGrad when it holds at least this
# many entries per record of the batch, and the dense scatter_rows table
# otherwise. Per-batch training-step times at batch 256 (2-vCPU x86-64 VM)
# crossed over at 250-310 entries per record with 32 columns (decoupled) and
# at 250-375 with 8 (neuralcdm): about 8 and 32 rows per record.
ROW_GRAD_MIN_ENTRIES_PER_RECORD = 256


def is_count(value, minimum: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``minimum``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function.

    ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` otherwise,
    computed in one pass: ``e = exp(-|x|)`` is ``exp(-x)`` or ``exp(x)`` exactly,
    so both branches share one exponential and one division per element. The
    numerator ``max(e, [x >= 0])`` needs no branch: ``e`` lies in [0, 1] and is
    1.0 at ``x = ±0``, so it is exactly 1.0 for x >= 0 and ``e`` otherwise,
    also where ``e`` rounds to 1.0 or 0.0; a NaN comes through from ``e``.
    """
    x = np.asarray(x, dtype=np.float64)
    if not x.ndim:
        return float(sigmoid(x.reshape(1))[0])
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
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


@dataclass
class RowGrad:
    """The gradient of a row-indexed table, held as the rows a batch touched.

    ``rows`` holds sorted unique row ids and ``values[i]`` the gradient of row
    ``rows[i]``; every other row of the ``n_rows``-row table is exactly zero.
    """

    n_rows: int
    rows: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.values.shape[1])

    def dense(self) -> np.ndarray:
        table = np.zeros(self.shape)
        table[self.rows] = self.values
        return table


# A wiring's ``backward`` result: layer id -> dense array or RowGrad, in layer order.
GradMap = Mapping[str, "np.ndarray | RowGrad"]


def row_grads(
    n_rows: int, index: np.ndarray, *per_record: np.ndarray
) -> list[np.ndarray | RowGrad]:
    """For each ``(batch, d)`` array of ``per_record``, the gradient of an
    ``n_rows``-row table to whose row ``index[b]`` record ``b`` adds its row.

    When the tables hold at least :data:`ROW_GRAD_MIN_ENTRIES_PER_RECORD`
    entries, all together, per record of the batch, each comes back as a
    :class:`RowGrad`, whose cost follows the batch and not the table, and
    otherwise as the dense :func:`scatter_rows` table. The row form runs
    ``scatter_rows`` over the batch's unique rows, so each row sums the same
    values in the same order and ``RowGrad.dense()`` gives the dense bits.
    """
    entries = n_rows * sum(values.shape[1] for values in per_record)
    if entries < ROW_GRAD_MIN_ENTRIES_PER_RECORD * len(index):
        return [scatter_rows(n_rows, index, values) for values in per_record]
    rows, inverse = np.unique(index, return_inverse=True)
    return [RowGrad(n_rows, rows, scatter_rows(len(rows), inverse, v)) for v in per_record]


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
    """An ordered mapping of layer id -> float64 array (parameters, Adam's
    moments, importance maps) held in one C-contiguous vector, ``vector``, in
    layer order, of which each layer is a view; elementwise math runs on the
    vector. Construction copies the given arrays, with their bits."""

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        layout = [(k, np.shape(v)) for k, v in arrays.items()]
        self._place(np.empty(sum(math.prod(shape) for _, shape in layout)), layout)
        for k, v in self.items():
            v[...] = arrays[k]

    def _place(self, vec: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]) -> None:
        """Make ``vec`` the vector and each layer of ``layout`` a view of its slice."""
        self.vector = vec
        self._arrays = {}
        offset = 0
        for k, shape in layout:
            size = math.prod(shape)
            self._arrays[k] = vec[offset : offset + size].reshape(shape)
            offset += size

    @property
    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        """The layers' ids and shapes, in layer order."""
        return [(k, v.shape) for k, v in self._arrays.items()]

    def __getitem__(self, layer_id: str) -> np.ndarray:
        return self._arrays[layer_id]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())

    @property
    def total_size(self) -> int:
        return self.vector.size

    def require_same_layout(self, other: "ArrayBundle | GradMap") -> None:
        """Raise ValueError unless ``other``, a bundle or a gradient map, has
        this bundle's layer ids and shapes in this bundle's layer order."""
        if self.layout != [(k, v.shape) for k, v in other.items()]:
            raise ValueError("bundles do not share one layout")

    def nonfinite_layers(self) -> list[str]:
        """Ids of the layers holding a NaN or an infinity, in layer order."""
        if np.isfinite(self.vector).all():
            return []
        return [k for k, v in self.items() if not np.isfinite(v).all()]

    def copy(self) -> "ArrayBundle":
        return self.with_vector(self.vector.copy())

    def zeros(self) -> "ArrayBundle":
        """A bundle of the same layout holding zeros."""
        return self.with_vector(np.zeros(self.total_size))

    def with_vector(self, vec: np.ndarray) -> "ArrayBundle":
        """A bundle of this layout over the flat vector ``vec``, which it does
        not copy when ``vec`` is already C-contiguous float64."""
        if np.shape(vec) != (self.total_size,):
            raise ValueError(f"vector has shape {np.shape(vec)}, need ({self.total_size},)")
        bundle = ArrayBundle.__new__(ArrayBundle)
        bundle._place(np.ascontiguousarray(vec, dtype=np.float64), self.layout)
        return bundle

    def scale_(self, factor: float) -> "ArrayBundle":
        self.vector *= factor
        return self


def dense(grads: GradMap) -> ArrayBundle:
    """A gradient map from a wiring's ``backward`` as a bundle, with every
    :class:`RowGrad` layer as its dense table."""
    return ArrayBundle({k: g.dense() if isinstance(g, RowGrad) else g for k, g in grads.items()})


# Adam's moment decays and denominator guard; no caller varies them.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """SGD or Adam state for the parameters given to :func:`make_optimizer`.

    Adam's moments ``m`` and ``v`` are bundles of the parameters' layout.
    ``scratch`` holds two vectors of the parameters' size: one step gathers
    the dense gradient into the first and computes its terms in both.
    """

    kind: str
    lr: float
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0
    m: ArrayBundle | None = None
    v: ArrayBundle | None = None


def make_optimizer(kind: str, lr: float, params: ArrayBundle) -> OptimizerState:
    """A fresh SGD or Adam state for ``params``, which it leaves as it is."""
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    n = params.total_size
    state = OptimizerState(kind=kind, lr=lr, scratch=(np.empty(n), np.empty(n)))
    if kind == "adam":
        state.m, state.v = params.zeros(), params.zeros()
    return state


def _gather_dense(
    params: ArrayBundle, grads: GradMap, out: np.ndarray
) -> tuple[list[slice], list[tuple[str, RowGrad]]]:
    """Copy each run of adjacent dense layers of ``grads`` into ``out``, at the
    offsets those layers have in ``params.vector``, with one ``concatenate``
    per run. Returns the runs' slices and the :class:`RowGrad` layers."""
    slices, row_layers = [], []
    offset = 0
    for is_rows, run in groupby(params.items(), lambda kv: isinstance(grads[kv[0]], RowGrad)):
        ids = [k for k, _ in run]
        size = sum(params[k].size for k in ids)
        if is_rows:
            row_layers += [(k, grads[k]) for k in ids]
        else:
            sl = slice(offset, offset + size)
            np.concatenate([grads[k].ravel() for k in ids], out=out[sl])
            slices.append(sl)
        offset += size
    return slices, row_layers


def optimizer_step(params: ArrayBundle, grads: GradMap, state: OptimizerState) -> None:
    """Apply one in-place update to ``params`` and ``state``.

    ``grads`` is a gradient map from a wiring's ``backward``, whose layers
    come in the parameters' layer order (ValueError otherwise). The step runs
    over ``params.vector``: the dense gradient layers are gathered run by run
    into a scratch vector, and a :class:`RowGrad` layer is applied to its rows
    alone, with the bits of its dense table (see the comment in the Adam
    branch).
    """
    params.require_same_layout(grads)
    p = params.vector
    u, t = state.scratch
    slices, row_layers = _gather_dense(params, grads, u)
    if state.kind == "sgd":
        for sl in slices:
            g, ps = u[sl], p[sl]
            g *= state.lr
            ps -= g
        for k, g in row_layers:
            params[k][g.rows] -= state.lr * g.values  # p - 0.0 == p, also for p == -0.0
        return
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    assert state.m is not None and state.v is not None
    m, v = state.m.vector, state.v.vector
    # In place, with the operations of
    #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g**2
    #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    # in that order for every element, through the two scratch vectors u
    # (which holds g for the dense runs) and t.
    #
    # A RowGrad's untouched rows have g == +0.0, so the dense form adds +0.0
    # to beta1*m and beta2*v there; the row form skips that add, which keeps
    # the bits: x + 0.0 == x for every x but -0.0. beta1*m is -0.0 only when
    # m is (0.9 times one ulp still rounds to one ulp), and a sum is -0.0
    # only when both addends are, so moments that start at +0.0 never become
    # -0.0; v is never negative at all. The decay and the update read every
    # entry and stay dense.
    m *= ADAM_BETA1
    v *= ADAM_BETA2
    for sl in slices:
        g, ts, ms, vs = u[sl], t[sl], m[sl], v[sl]
        np.multiply(g, 1.0 - ADAM_BETA1, out=ts)
        ms += ts
        np.square(g, out=ts)
        ts *= 1.0 - ADAM_BETA2
        vs += ts
    for k, g in row_layers:
        state.m[k][g.rows] += g.values * (1.0 - ADAM_BETA1)
        state.v[k][g.rows] += np.square(g.values) * (1.0 - ADAM_BETA2)
    np.divide(v, bc2, out=t)
    np.sqrt(t, out=t)
    t += ADAM_EPS
    np.divide(m, bc1, out=u)
    u *= state.lr
    u /= t
    p -= u


def example_gradient(wiring, params: ArrayBundle, student: int, item: int, score: float) -> ArrayBundle:
    """Exact loss gradient for a single example; untouched parameters are 0."""
    s = np.asarray([student], dtype=np.int64)
    q = np.asarray([item], dtype=np.int64)
    p, cache = wiring.forward(params, s, q, train=False)
    dz = p - np.asarray([score], dtype=np.float64)
    return dense(wiring.backward(params, cache, dz, mode="sum"))


def sum_sq_grads(
    wiring,
    params: ArrayBundle,
    students: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    batch_size: int = 4096,
) -> ArrayBundle:
    """Sum over the dataset of squared per-example loss gradients.

    Batches are processed in dataset order and each batch reduces in a fixed
    order, so the result is reproducible bit-for-bit on one machine.
    """
    if not is_count(batch_size, 1):
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    n = len(scores)
    if n == 0:
        raise ValueError("dataset is empty")
    total = params.zeros()
    for start in range(0, n, batch_size):
        sl = slice(start, start + batch_size)
        p, cache = wiring.forward(params, students[sl], items[sl], train=False)
        dz = p - scores[sl]
        batch = wiring.backward(params, cache, dz, mode="sq_sum")
        for k, v in total.items():
            g = batch[k]
            if isinstance(g, RowGrad):  # exact: v + 0.0 == v, as v >= 0
                v[g.rows] += g.values
            else:
                v += g
    return total


def accumulate_sq_grads(
    wiring,
    params: ArrayBundle,
    students: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    batch_size: int = 4096,
) -> ArrayBundle:
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr!r}")
        if not math.isfinite(self.min_delta):
            raise ValueError(f"min_delta must be a finite number, got {self.min_delta!r}")
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
) -> tuple[ArrayBundle, FitResult]:
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
    params = wiring.init_params(rng)
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
        nonfinite = params.nonfinite_layers()
        if nonfinite:
            raise ValueError(
                f"training diverged: epoch {epoch} left non-finite values in layers {nonfinite}"
            )
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
    params: ArrayBundle,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Dropout-free predictions for every row, in chunks of 512 to 1,023 rows.

    Chunks start at multiples of :data:`PREDICT_ROWS` and the last one takes
    the remainder, so no chunk is smaller than 512 rows unless the whole set
    is. BLAS picks its kernel by row count, and chunks of a few rows gave bits
    that differed from one ``forward`` over every row; aligned chunks of 512
    rows or more gave the same bits. Small chunks also keep the temporaries
    of a forward pass in memory that is reused from chunk to chunk.
    """
    s, q, _ = arrays
    n = len(s)
    out = np.empty(n, dtype=np.float64)
    edges = [0, *range(PREDICT_ROWS, n - PREDICT_ROWS + 1, PREDICT_ROWS), n]
    for start, stop in zip(edges, edges[1:]):
        out[start:stop], _ = wiring.forward(params, s[start:stop], q[start:stop], train=False)
    return out
