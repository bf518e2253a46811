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
row-indexed table that is large next to the batch, and every one in
``sq_sum`` mode, may come back as a :class:`RowGrad`, which holds only the
rows the batch touched (see :func:`row_grads`); :func:`dense` turns such a
map into a bundle. ``backward`` uses the cache up, freeing what it holds as
it goes, so a cache serves one ``backward`` call.

An :class:`ArrayBundle` is flat: its layers are views of one contiguous
vector from construction on. ``optimizer_step`` updates that vector, and
Adam's moments, with a few whole-vector operations. Adam's step has a
gradient-free phase (the moment decay, and the update of every row the batch
does not touch) and a gradient phase (the batch's terms, the update of what
it touches, and ``p -= u``). In a fit of at least twice
:data:`ADAM_MIN_ENTRIES_PER_THREAD` parameters, when the CPUs allow it
(:func:`adam_threads`), the gradient-free phase runs in chunks on the fit's
pool during the batch's forward and backward, which read only the
parameters (:func:`_alongside`). The bits cannot move: each element still
gets the same correctly rounded IEEE operations, in the same order, on one
thread. :func:`sum_sq_grads` likewise runs its batches on threads
(:func:`sq_sum_threads`) and adds them up in batch order, and
:func:`_predict_all` its chunks of rows (:func:`predict_threads`), each into
its own slice of the result, both through :func:`_over_chunks`.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import numbers
import os
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor

PROB_EPS = 1e-7  # probability clamp applied before logs
# _predict_all runs its rows in chunks of PREDICT_ROWS on one thread and of
# PREDICT_CHUNK_ROWS on several, the last chunk taking a remainder under
# PREDICT_ROWS: no chunk is smaller than that unless the whole set is (see
# _predict_all for why it matters to the bits). On one thread (2-vCPU x86-64
# VM, one BLAS thread) 6,891 rows of the 536-student model took 6.2 ms in
# chunks of 512 rows and 8.6 ms in chunks of 2,048.
PREDICT_ROWS = 512
PREDICT_CHUNK_ROWS = 2048
# row_grads gives a table its gradient as a RowGrad when it holds at least this
# many entries per record of the batch, and the dense scatter_rows table
# otherwise. Per-batch training-step times at batch 256 (2-vCPU x86-64 VM)
# crossed over at 250-310 entries per record with 32 columns (decoupled) and
# at 250-375 with 8 (neuralcdm): about 8 and 32 rows per record.
ROW_GRAD_MIN_ENTRIES_PER_RECORD = 256
# Adam's step runs on one thread per this many parameter entries, up to the
# CPUs BLAS leaves free (adam_threads). On a 2-vCPU x86-64 VM at one BLAS
# thread, decoupled models of n students x 100 items at embed_dim 32: a lone
# step on 2 threads lost at n = 2,000 (70k entries, 0.55 -> 0.60 ms) and won
# from 2,500 (86k); 2-epoch fits at density 0.2 lost at 3,000 (102k, 0.91 ->
# 0.95-1.12 s), tied at 4,000 (134k) and won from 5,000 (166k, 1.74 -> 1.59 s).
ADAM_MIN_ENTRIES_PER_THREAD = 2**16
# Adam's gradient-free phase runs in chunks of about this many entries, of
# which a threaded state's threads take shares (make_optimizer, _alongside).
# On one thread (2-vCPU x86-64 VM) a step of the 326k-entry deletions-m model
# took 1.77-1.86 ms in chunks of 2**15 entries and 1.79-1.87 ms in one.
ADAM_CHUNK_ENTRIES = 2**15
# sum_sq_grads runs on one thread per this many batches, up to the CPUs BLAS
# leaves free (sq_sum_threads). On a 2-vCPU x86-64 VM at one BLAS thread, with
# the default widths, 2 threads beat one from 2 batches of 4,096 records up
# (-21% to -33% at 2 batches, -29% to -38% at 8). A pool thread keeps up to
# one batch's working set resident in its malloc arena, though (trim_heap),
# so a pass of 3 batches or fewer stays on one thread: the 536-student
# model's largest, the 6,881-record union, is 2.
SQ_SUM_MIN_BATCHES_PER_THREAD = 2
# _predict_all runs on one thread per this many full chunks, up to the CPUs
# BLAS leaves free (predict_threads). On a 2-vCPU x86-64 VM at one BLAS
# thread, 38,773 rows at embed_dim 32 took 37.5-41.8 ms on one thread, and on
# 2 threads 22.6-33 ms in chunks of 2,048 rows, 30-36 ms in chunks of 1,024
# and more again in chunks of 8,192. With 2 chunks per thread, every set of
# the 536-student model (6,891 rows at most) stays on one thread.
PREDICT_MIN_CHUNKS_PER_THREAD = 2


def is_count(value, minimum: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``minimum``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def sigmoid(x: np.ndarray | float, out: np.ndarray | None = None) -> np.ndarray | float:
    """Numerically stable logistic function, into ``out`` when given (which
    may be ``x`` itself, so a pre-activation nothing else holds becomes its
    activation in place).

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
    nonnegative = x >= 0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = e + 1.0
    np.maximum(e, nonnegative, out=e)
    e /= denominator
    return e


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
    n_rows: int, index: np.ndarray, *per_record: np.ndarray, always_rows: bool = False
) -> list[np.ndarray | RowGrad]:
    """For each ``(batch, d)`` array of ``per_record``, the gradient of an
    ``n_rows``-row table to whose row ``index[b]`` record ``b`` adds its row.

    When the tables hold at least :data:`ROW_GRAD_MIN_ENTRIES_PER_RECORD`
    entries, all together, per record of the batch, or ``always_rows`` is
    set, each comes back as a :class:`RowGrad`, whose cost follows the batch
    and not the table, and otherwise as the dense :func:`scatter_rows` table.
    The row form runs ``scatter_rows`` over the batch's unique rows, so each
    row sums the same values in the same order and ``RowGrad.dense()`` gives
    the dense bits.
    """
    entries = n_rows * sum(values.shape[1] for values in per_record)
    if not always_rows and entries < ROW_GRAD_MIN_ENTRIES_PER_RECORD * len(index):
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

    # A pickle or deep copy holds the vector once and makes the layers views
    # of its copy again.
    def __getstate__(self):
        return self.vector, self.layout

    def __setstate__(self, state) -> None:
        self._place(*state)

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


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS's thread-count queries: NumPy 2 wheels, NumPy 1 wheels, a system OpenBLAS.
_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """The threads NumPy's OpenBLAS runs a product on, or None when it cannot
    be asked (another BLAS, or a platform where the query is not found)."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.CDLL(umath.__file__)  # its symbol lookup reaches the BLAS it links
    except (AttributeError, OSError):
        return None
    for symbol in _BLAS_THREAD_QUERIES:
        query = getattr(lib, symbol, None)
        if query is not None:
            query.restype = ctypes.c_int
            return int(query())
    return None


# The CPUs the thread gates may fill in this context (cpu_share); None means
# every usable CPU.
_CPU_SHARE: contextvars.ContextVar[int | None] = contextvars.ContextVar("cpu_share", default=None)


@contextmanager
def cpu_share(cpus: int | None) -> Iterator[None]:
    """Within the block, and in the threads it starts, the thread gates fill
    at most ``cpus`` CPUs (an integer >= 1), for a caller that runs other
    work next to it; None means every usable CPU."""
    if cpus is not None and not is_count(cpus, 1):
        raise ValueError(f"cpus must be an integer >= 1 or None, got {cpus!r}")
    token = _CPU_SHARE.set(cpus)
    try:
        yield
    finally:
        _CPU_SHARE.reset(token)


def _threads(work: int, min_work_per_thread: int) -> int:
    """One thread per ``min_work_per_thread`` units of ``work``, at most the
    CPUs of this context over BLAS's threads (OpenBLAS's idle threads spin),
    and one when BLAS cannot be asked."""
    by_work = work // min_work_per_thread
    if by_work < 2:
        return 1
    blas = blas_threads()
    if blas is None:
        return 1
    cpus = _CPU_SHARE.get() or usable_cpus()
    return max(1, min(cpus // blas, by_work))


def adam_threads(total_size: int) -> int:
    """The threads an Adam step over ``total_size`` parameters runs on: one
    per :data:`ADAM_MIN_ENTRIES_PER_THREAD` entries (see :func:`_threads`)."""
    return _threads(total_size, ADAM_MIN_ENTRIES_PER_THREAD)


def sq_sum_threads(n_records: int, batch_size: int = 4096) -> int:
    """The threads :func:`sum_sq_grads` runs ``n_records`` records on: one per
    :data:`SQ_SUM_MIN_BATCHES_PER_THREAD` batches (see :func:`_threads`)."""
    return _threads(-(-n_records // batch_size), SQ_SUM_MIN_BATCHES_PER_THREAD)


def predict_threads(n_rows: int) -> int:
    """The threads :func:`_predict_all` runs ``n_rows`` rows on: one per
    :data:`PREDICT_MIN_CHUNKS_PER_THREAD` chunks of
    :data:`PREDICT_CHUNK_ROWS` rows (see :func:`_threads`)."""
    return _threads(n_rows // PREDICT_CHUNK_ROWS, PREDICT_MIN_CHUNKS_PER_THREAD)


def _ignore(result: object) -> None:
    pass


def _over_chunks(
    run: Callable[[slice], object], chunks: Sequence[slice], threads: int,
    take: Callable[[object], None] = _ignore, pool: Executor | None = None,
) -> None:
    """``take(run(chunk))`` for every chunk, with ``take`` called in chunk
    order on this thread: the thread runner of :func:`sum_sq_grads` and of
    :func:`_predict_all`.

    With ``threads`` k >= 2 the chunks go in rounds of k: the first of a
    round runs on this thread and the others on ``pool``, each in a copy of
    this thread's context (so NumPy's ``errstate`` and :func:`cpu_share`
    hold there too), and the round is taken once all of it has ended. So at
    most k chunks are in flight, and no chunk outlives the call, whether it
    returns or raises; a raise is the exception of the first chunk, in chunk
    order, that raised one (or of ``take``). ``pool`` is owned by the
    caller and should have at least k - 1 threads. Without one, the call
    makes a pool of k - 1 threads that ends with it, importing
    ``concurrent.futures``, and then hands the freed pages back
    (:func:`trim_heap`).
    """
    if threads < 2 or len(chunks) < 2:
        for chunk in chunks:
            take(run(chunk))
        return
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor

        try:
            with ThreadPoolExecutor(threads - 1) as own:
                _over_chunks(run, chunks, threads, take, own)
        finally:
            trim_heap()
        return
    for start in range(0, len(chunks), threads):
        first, *rest = chunks[start : start + threads]
        futures = [pool.submit(contextvars.copy_context().run, run, chunk) for chunk in rest]
        try:
            result = run(first)
        finally:
            for future in futures:
                future.exception()  # waits for the chunk to end, without raising
        take(result)
        for future in futures:
            take(future.result())


def trim_heap() -> None:
    """Hand the free pages of the C heap back to the system, where the C
    library is glibc (``malloc_trim``); elsewhere do nothing.

    glibc keeps freed memory resident up to a threshold that grows with the
    largest block the process has freed, so after loading a data set it may
    keep tens of MB. ``malloc_trim`` returns the main heap's free pages and
    every arena's free chunks, but not the free top of a thread's arena:
    a pool thread keeps up to one chunk's working set resident.
    """
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):  # no C library to ask
        return
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


@dataclass
class OptimizerState:
    """SGD or Adam state for the parameters given to :func:`make_optimizer`.

    Adam's moments ``m`` and ``v`` are bundles of the parameters' layout.
    ``scratch`` holds two vectors of the parameters' size, ``u`` and ``t``:
    a step gathers the dense gradient into ``u``, computes its terms and the
    update in both, and ends with ``p -= u``. Adam's step has two phases (see
    :func:`optimizer_step`). The gradient-free one runs over ``chunks``,
    contiguous ``(start, stop)`` ranges of the vector, on ``threads``
    threads: the calling one and ``threads - 1`` of ``pool``, which the
    caller owns. It computes the update over ``row_spans``, the ranges of the
    layers whose last gradient came as a :class:`RowGrad`. ``ahead`` says
    that step ``step``'s gradient-free phase has run and its gradient phase
    has not.
    """

    kind: str
    lr: float
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0
    m: ArrayBundle | None = None
    v: ArrayBundle | None = None
    chunks: tuple[tuple[int, int], ...] = ()
    threads: int = 1
    pool: Executor | None = None
    row_spans: frozenset[tuple[int, int]] = frozenset()
    ahead: bool = False


def make_optimizer(
    kind: str, lr: float, params: ArrayBundle, threads: int = 1, pool: Executor | None = None
) -> OptimizerState:
    """A fresh SGD or Adam state for ``params``, which it leaves as it is.

    Adam's gradient-free phase runs in chunks of about
    :data:`ADAM_CHUNK_ENTRIES` entries. With ``threads`` k >= 2, k threads
    share them, k - 1 of them ``pool``'s, which the caller owns and which
    should have k - 1 threads. SGD runs on the calling thread.
    """
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    if not is_count(threads, 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if threads > 1 and pool is None:
        raise ValueError("threads > 1 needs a pool")
    n = params.total_size
    state = OptimizerState(kind=kind, lr=lr, scratch=(np.empty(n), np.empty(n)))
    if kind == "adam":
        state.m, state.v = params.zeros(), params.zeros()
        count = max(1, round(n / ADAM_CHUNK_ENTRIES))
        edges = [0, *(n * i // count // 8 * 8 for i in range(1, count)), n]  # 64-byte lines
        state.chunks = tuple(zip(edges, edges[1:]))
        state.threads, state.pool = threads, pool
    return state


def _gather_dense(
    params: ArrayBundle, grads: GradMap, out: np.ndarray
) -> tuple[list[slice], list[tuple[slice, RowGrad]]]:
    """Copy each run of adjacent dense layers of ``grads`` into ``out``, at the
    offsets those layers have in ``params.vector``, with one ``concatenate``
    per run. Returns the runs' slices and the :class:`RowGrad` layers, each
    with its slice of the vector."""
    slices, row_layers = [], []
    offset = 0
    for is_rows, run in groupby(params.items(), lambda kv: isinstance(grads[kv[0]], RowGrad)):
        ids = [k for k, _ in run]
        if is_rows:
            for k in ids:
                row_layers.append((slice(offset, offset + params[k].size), grads[k]))
                offset += params[k].size
        else:
            sl = slice(offset, offset + sum(params[k].size for k in ids))
            np.concatenate([grads[k].ravel() for k in ids], out=out[sl])
            slices.append(sl)
            offset = sl.stop
    return slices, row_layers


def _bias_corrections(step: int) -> tuple[float, float]:
    return 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step


def _adam_update(m, v, u, t, bc1: float, bc2: float, lr: float) -> None:
    """``u = lr * (m / bc1) / (sqrt(v / bc2) + eps)`` elementwise, through
    ``t``. A divide by a bias correction that has rounded to 1.0 is skipped,
    as ``x / 1.0`` is ``x`` bit for bit: ``bc1`` from step 356 on, ``bc2``
    from step 37,412 on."""
    if bc2 == 1.0:
        np.sqrt(v, out=t)
    else:
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
    t += ADAM_EPS
    if bc1 == 1.0:
        np.multiply(m, lr, out=u)
    else:
        np.divide(m, bc1, out=u)
        u *= lr
    u /= t


def _start_adam_step(state: OptimizerState) -> Callable[[tuple[int, int]], None]:
    """Count the next Adam step; returns its gradient-free phase over one
    chunk ``(a, b)``: decay ``m`` and ``v`` there and compute the update
    where the chunk meets ``state.row_spans``. It writes ``m``, ``v`` and
    the scratch vectors, and never the parameters."""
    state.step += 1
    state.ahead = True
    bc1, bc2 = _bias_corrections(state.step)
    assert state.m is not None and state.v is not None
    m, v = state.m.vector, state.v.vector
    u, t = state.scratch
    spans, lr = state.row_spans, state.lr

    def gradient_free(chunk: tuple[int, int]) -> None:
        a, b = chunk
        ms, vs = m[a:b], v[a:b]
        ms *= ADAM_BETA1
        vs *= ADAM_BETA2
        for c, d in spans:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                _adam_update(m[lo:hi], v[lo:hi], u[lo:hi], t[lo:hi], bc1, bc2, lr)

    return gradient_free


@contextmanager
def _alongside(
    run: Callable[[tuple[int, int]], None], chunks: Sequence[tuple[int, int]],
    threads: int, pool: Executor | None,
) -> Iterator[None]:
    """``run`` over every chunk, on ``threads - 1`` threads of ``pool``
    while the block runs on this thread, each in a copy of this thread's
    context. ``chunks`` are contiguous ranges in order; a thread takes a
    ``1/threads`` share of those still queued (at least one) and runs it as
    one range, so a pool thread starts with few long NumPy calls, which take
    the interpreter lock back from the block's thread rarely, and the shares
    shrink towards the end. When the block ends, this thread runs the chunks
    no thread has taken yet (all of them at one thread), waits for the rest
    and raises the first exception a pool thread raised, if any. When the
    block raises, the chunks not yet taken are dropped and the block's
    exception is raised once the others have ended. Either way no chunk
    outlives the block.
    """
    queued = list(reversed(chunks))
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:  # take a 1/threads share of the queued chunks, as one range
                if not queued:
                    return
                count = max(1, len(queued) // threads)
                chunk = queued[-1][0], queued[-count][1]
                del queued[-count:]
            run(chunk)

    assert threads < 2 or pool is not None
    futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(threads - 1)]
    try:
        yield
    except BaseException:
        with lock:
            queued.clear()
        raise
    else:
        drain()
    finally:
        for future in futures:
            future.exception()  # waits for the thread's chunks to end, without raising
    for future in futures:
        future.result()


def _gradient_free(state: OptimizerState):
    """The next Adam step's gradient-free phase alongside the block, on
    ``state.threads`` threads (see :func:`_alongside`)."""
    return _alongside(_start_adam_step(state), state.chunks, state.threads, state.pool)


def optimizer_step(params: ArrayBundle, grads: GradMap, state: OptimizerState) -> None:
    """Apply one in-place update to ``params`` and ``state``.

    ``grads`` is a gradient map from a wiring's ``backward``, whose layers
    come in the parameters' layer order (ValueError otherwise). The step runs
    over ``params.vector``: the dense gradient layers are gathered run by run
    into a scratch vector, and a :class:`RowGrad` layer is applied to its rows
    alone, with the bits of its dense table (see the comment in the Adam
    branch).

    Adam's step has two phases. The gradient-free one decays both moments
    everywhere and computes the update over the layers whose last gradient
    came as a RowGrad; it writes ``state`` alone and may run before the
    gradient is known, as :func:`fit_params` runs it, on its pool, during
    the batch's forward and backward. This call runs it first, on
    ``state.threads`` threads, when the caller has not. The gradient phase
    adds the batch's terms to the dense layers and the touched rows,
    computes the update there (and over a RowGrad layer the first phase did
    not cover) and subtracts it from the parameters.
    """
    params.require_same_layout(grads)
    if state.kind == "adam" and not state.ahead:
        with _gradient_free(state):
            pass  # the chunks no pool thread took run here as the block ends
    p = params.vector
    u, t = state.scratch
    slices, row_layers = _gather_dense(params, grads, u)
    if state.kind == "sgd":
        for sl in slices:
            g, ps = u[sl], p[sl]
            g *= state.lr
            ps -= g
        for sl, g in row_layers:
            p[sl].reshape(g.shape)[g.rows] -= state.lr * g.values  # p - 0.0 == p, also for p == -0.0
        return
    state.ahead = False
    bc1, bc2 = _bias_corrections(state.step)
    assert state.m is not None and state.v is not None
    m, v = state.m.vector, state.v.vector
    # With the gradient-free phase, in place, with the operations of
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
    # -0.0; v is never negative at all. So the update the gradient-free
    # phase computed for an untouched row is final, and a touched row's is
    # computed again, from its moments with the batch's terms.
    for sl in slices:
        g, ts, ms, vs = u[sl], t[sl], m[sl], v[sl]
        np.multiply(g, 1.0 - ADAM_BETA1, out=ts)
        ms += ts
        np.square(g, out=ts)
        ts *= 1.0 - ADAM_BETA2
        vs += ts
        _adam_update(ms, vs, g, ts, bc1, bc2, state.lr)
    for sl, g in row_layers:
        ms, vs = m[sl].reshape(g.shape), v[sl].reshape(g.shape)
        mr, vr = ms[g.rows], vs[g.rows]
        mr += g.values * (1.0 - ADAM_BETA1)
        vr += np.square(g.values) * (1.0 - ADAM_BETA2)
        ms[g.rows], vs[g.rows] = mr, vr
        if (sl.start, sl.stop) in state.row_spans:
            ur, tr = np.empty_like(mr), np.empty_like(mr)
            _adam_update(mr, vr, ur, tr, bc1, bc2, state.lr)
            u[sl].reshape(g.shape)[g.rows] = ur
        else:  # the gradient-free phase computed no update here
            _adam_update(m[sl], v[sl], u[sl], t[sl], bc1, bc2, state.lr)
    p -= u
    state.row_spans = frozenset((sl.start, sl.stop) for sl, _ in row_layers)


def sum_sq_grads(
    wiring,
    params: ArrayBundle,
    students: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    batch_size: int = 4096,
) -> ArrayBundle:
    """Sum over the dataset of squared per-example loss gradients.

    Each batch of ``batch_size`` records, in dataset order, reduces in a
    fixed order, and the batches are added into the total in dataset order,
    so the result is reproducible bit-for-bit on one machine. The batches run
    on :func:`sq_sum_threads` threads (see :func:`_over_chunks`), at most one
    batch in flight per thread; that changes no bit, since each batch makes
    the same calls on the same inputs and the adds keep their order.
    """
    if not is_count(batch_size, 1):
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    n = len(scores)
    if n == 0:
        raise ValueError("dataset is empty")
    total = params.zeros()

    def batch(sl: slice) -> GradMap:
        p, cache = wiring.forward(params, students[sl], items[sl], train=False)
        p -= scores[sl]  # d(loss)/d(pre-activation)
        return wiring.backward(params, cache, p, mode="sq_sum")

    def add(grads: GradMap) -> None:  # on this thread, in batch order
        for k, v in total.items():
            g = grads[k]
            if isinstance(g, RowGrad):  # exact: v + 0.0 == v, as v >= 0
                v[g.rows] += g.values
            else:
                v += g

    batches = [slice(start, start + batch_size) for start in range(0, n, batch_size)]
    _over_chunks(batch, batches, sq_sum_threads(n, batch_size), add)
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


def _fit_pool(threads: int):
    """A pool of ``threads - 1`` threads for a fit, or a null context at one
    thread. Only a threaded fit imports ``concurrent.futures``."""
    if threads < 2:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads - 1)


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
    Adam runs on :func:`adam_threads` threads and the monitor predictions on
    :func:`predict_threads`, both on one pool that lives as long as the fit
    and has a thread fewer than the larger of the two: no second pool is
    alive during the fit, and no thread outlives it, whether it returns or
    raises. On k >= 2 threads each Adam step's gradient-free phase starts on
    the pool before the batch's forward; this thread runs the forward and
    the backward, then the chunks still queued, waits for the rest and runs
    the gradient phase (see :func:`optimizer_step`). A forward or backward
    that raises drops the queued chunks and waits for the running ones.
    """
    t0 = time.perf_counter()
    s_tr, q_tr, y_tr = train_arrays
    n = len(y_tr)
    if n == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(seed)
    params = wiring.init_params(rng)
    threads = adam_threads(params.total_size) if cfg.optimizer == "adam" else 1
    with _fit_pool(max(threads, predict_threads(len(monitor_arrays[0])))) as pool:
        state = make_optimizer(cfg.optimizer, cfg.lr, params, threads, pool)
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
                with _gradient_free(state) if state.threads > 1 else nullcontext():
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
            probs = _predict_all(wiring, params, monitor_arrays, pool)
            value = monitor_fn(probs, monitor_arrays[2])
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
    pool: Executor | None = None,
) -> np.ndarray:
    """Dropout-free predictions for every row, on :func:`predict_threads`
    threads, in chunks of :data:`PREDICT_ROWS` rows on one thread and of
    :data:`PREDICT_CHUNK_ROWS` rows on several.

    Chunks start at multiples of their size, and the last one takes a
    remainder under :data:`PREDICT_ROWS`, so no chunk is smaller than 512
    rows unless the whole set is. BLAS picks its kernel by row count, and
    chunks of a few rows gave bits that differed from one ``forward`` over
    every row; aligned chunks of 512 rows or more gave the same bits, so the
    chunk size moves none. Nor do threads: each chunk makes the calls it
    makes on one thread and writes only its own slice of the result, and
    nothing is summed across chunks. ``pool``, owned by the caller (a fit),
    should have at least a thread fewer than :func:`predict_threads`;
    without it a threaded call makes its own (see :func:`_over_chunks`).
    Chunks of 512 rows are too small for threads, whose turns at the GIL
    they then mostly wait for, and chunks of 2,048 rows are slower than
    those of 512 on one thread; they keep the working set a pool thread
    leaves in its malloc arena to a few MB.
    """
    s, q, _ = arrays
    n = len(s)
    out = np.empty(n, dtype=np.float64)
    threads = predict_threads(n)
    size = PREDICT_CHUNK_ROWS if threads > 1 else PREDICT_ROWS
    edges = [0, *range(size, n - PREDICT_ROWS + 1, size), n]

    def predict(chunk: slice) -> None:
        out[chunk], _ = wiring.forward(params, s[chunk], q[chunk], train=False)

    chunks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    _over_chunks(predict, chunks, threads, pool=pool)
    return out
