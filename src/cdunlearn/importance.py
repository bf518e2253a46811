"""Parameter-importance estimation.

Two estimators each return an :class:`nn.ArrayBundle` of the model's layout:

* the diagonal of the empirical Fisher information — the mean over a dataset
  of squared per-example loss gradients (always nonnegative), and
* a randomized Hessian-diagonal estimate (Hutchinson probes with
  finite-difference Hessian-vector products), which may be negative.

Both reject an estimate holding NaN or ±inf (:func:`require_finite`). On top
of the Fisher values sit per-layer means and a convex smoothing step that
shrinks each parameter's importance toward its layer mean.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Callable, Sequence

import numpy as np

from . import nn
from .data import Records, ResponseRecord, records_to_arrays
from .model import CDModel

# Records per batch of the Hutchinson gradient evaluations.
HUTCHINSON_BATCH_SIZE = 256


def require_finite(imp: nn.ArrayBundle) -> nn.ArrayBundle:
    """Return ``imp``; raise ValueError naming its first layer holding NaN or ±inf."""
    nonfinite = imp.nonfinite_layers()
    if nonfinite:
        raise ValueError(f"non-finite importance in layer {nonfinite[0]!r}")
    return imp


def fim_diag(
    model: CDModel,
    records: Records | Sequence[ResponseRecord],
    batch_size: int = 4096,
) -> nn.ArrayBundle:
    """Fisher-diagonal importance of every parameter with respect to ``records``.

    For each parameter this is the mean over records of the squared
    per-example loss gradient; parameters untouched by every record (for
    example embedding rows of students absent from ``records``) are exactly 0.
    """
    model._require_fitted()
    s, q, y = records_to_arrays(records)
    if len(y) == 0:
        raise ValueError("importance needs a nonempty dataset")
    sq = nn.accumulate_sq_grads(model.wiring_, model.params_, s, q, y, batch_size)
    return require_finite(sq)


# One entry per model: (digest of its parameters and of the record multiset,
# sum of squared per-example gradients over that multiset).
_WHOLE_SET_SUMS: "weakref.WeakKeyDictionary[CDModel, tuple[bytes, nn.ArrayBundle]]" = (
    weakref.WeakKeyDictionary()
)


def whole_set_sq_grads(
    model: CDModel, *sides: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> nn.ArrayBundle:
    """Sum of squared per-example loss gradients over the records of
    ``sides``, each given as its (students, items, scores) columns, memoized
    per model.

    The records are summed in a canonical order (by student, item, score), so
    the sum depends only on the parameters and on the multiset of records: a
    memoized sum has the bits of a fresh one. The memo keeps one entry per
    model, keyed by a digest of the parameter bytes and the sorted records; a
    different multiset, or parameters changed in place, recompute it. The
    sort keys are built side by side into one vector, so the union's columns
    are never concatenated. The returned arrays are read-only. Scores must
    be 0 or 1.

    The pass runs on :func:`nn.sq_sum_threads` threads with the bits of one
    (see :func:`nn.sum_sq_grads`); sorted by student, each 4,096-record batch
    touches few embedding rows, which it returns in the row form. At 10,000
    students and 156,920 records it took 0.44-0.48 s on one thread and
    0.29-0.33 s on 2 (2-vCPU x86-64 VM, one BLAS thread).
    """
    model._require_fitted()
    wiring = model.wiring_
    indexed = [wiring._indices(students, items) for students, items, _ in sides]
    n = sum(len(scores) for _, _, scores in sides)
    if n == 0:
        raise ValueError("importance needs a nonempty dataset")
    keys = np.empty(n, dtype=np.int64)
    start = 0
    for (s, q), (_, _, scores) in zip(indexed, sides):
        if not ((scores == 0.0) | (scores == 1.0)).all():
            raise ValueError("scores must be 0 or 1")
        part = keys[start : start + len(scores)]
        np.multiply(s, wiring.n_items, out=part)
        part += q
        part *= 2
        part += scores == 1.0
        start += len(scores)
    keys.sort()
    digest = hashlib.sha256(wiring.qrows.tobytes())
    digest.update(repr(model.params_.layout).encode())
    digest.update(model.params_.vector.data)
    digest.update(keys.data)
    key = digest.digest()
    cached = _WHOLE_SET_SUMS.get(model)
    if cached is None or cached[0] != key:
        pairs = keys >> 1
        total = nn.sum_sq_grads(
            wiring, model.params_, pairs // wiring.n_items, pairs % wiring.n_items,
            (keys & 1).astype(np.float64),
        )
        total.vector.setflags(write=False)
        for _, values in total.items():
            values.setflags(write=False)
        cached = _WHOLE_SET_SUMS[model] = (key, total)
    return cached[1]


def layer_importance(imp: nn.ArrayBundle) -> dict[str, float]:
    """Arithmetic mean of the importance values within each layer."""
    return {name: float(np.mean(values)) for name, values in imp.items()}


def smooth_importance(
    imp: nn.ArrayBundle, layer_means: dict[str, float], beta: float
) -> nn.ArrayBundle:
    """Convex combination of each value with its layer mean:
    ``(1 - beta) * value + beta * layer_mean``, in a new bundle.

    ``beta=0`` returns the input values bit-for-bit; ``beta=1`` floods every
    layer with its mean. The within-layer mean is invariant for any beta.
    """
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    missing = [name for name, _ in imp.layout if name not in layer_means]
    if missing:
        raise ValueError(f"layer means missing for {missing}")
    smoothed = imp.with_vector((1.0 - beta) * imp.vector)
    for name, values in smoothed.items():
        values += beta * layer_means[name]
    return smoothed


def _require_count(name: str, value) -> None:
    if not nn.is_count(value, 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _probe_counts(n_probe_samples) -> tuple[int, ...]:
    """``n_probe_samples``, an integer >= 1 or a nonempty tuple of them, as a tuple."""
    counts = n_probe_samples if isinstance(n_probe_samples, tuple) else (n_probe_samples,)
    if not counts:
        raise ValueError("n_probe_samples must be an integer >= 1 or a nonempty tuple of them")
    for count in counts:
        _require_count("n_probe_samples", count)
    return counts


def hutchinson_diag(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    n_probe_samples: int | tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Randomized estimate of the Hessian diagonal of a function at ``x0``.

    Uses n_probe_samples Rademacher probes z and the identity
    diag(H) ~= E[z * (H z)], with H z obtained by central finite differences
    of ``grad_fn``: (g(x0 + eps z) - g(x0 - eps z)) / (2 eps), where
    eps = 1e-3 * (1 + max|x0|); the probe products are summed in probe order.

    A tuple of counts runs the probes once, up to the largest count, and
    returns the running sum over the first n probes divided by n for each
    requested n, in the given order. Each of these has the bits of a call with
    that n alone on a generator in the same state: a k-probe estimate is the
    first k probes of any longer run.
    """
    counts = _probe_counts(n_probe_samples)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = 1e-3 * (1.0 + (np.max(np.abs(x0)) if x0.size else 0.0))
    total = None
    estimates: list = [None] * len(counts)
    for probe in range(1, max(counts) + 1):
        z = rng.integers(0, 2, size=x0.size).astype(np.float64) * 2.0 - 1.0
        hz = (grad_fn(x0 + eps * z) - grad_fn(x0 - eps * z)) / (2.0 * eps)
        if total is None:
            total = z * hz
        else:
            total += z * hz
        for i, count in enumerate(counts):
            if count == probe:
                estimates[i] = total / count
    return tuple(estimates) if isinstance(n_probe_samples, tuple) else estimates[0]


def hutchinson_hessian_diag(
    model: CDModel,
    records: Records | Sequence[ResponseRecord],
    n_probe_samples: int | tuple[int, ...],
    n_batches: int = 1,
    seed: int = 0,
) -> nn.ArrayBundle | tuple[nn.ArrayBundle, ...]:
    """Hessian-diagonal importance of the model's mean loss over ``records``.

    The gradient behind each Hessian-vector product is evaluated on
    ``n_batches`` batches of :data:`HUTCHINSON_BATCH_SIZE` records drawn
    (seeded) from ``records``. Values are signed; deterministic for a fixed
    seed, an integer >= 0. A tuple of probe counts returns one map per count,
    in the given order, from one probe loop (see :func:`hutchinson_diag`):
    each has the bits of a call with that count alone.
    """
    model._require_fitted()
    _probe_counts(n_probe_samples)
    _require_count("n_batches", n_batches)
    if not nn.is_count(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    s, q, y = records_to_arrays(records)
    if len(y) == 0:
        raise ValueError("importance needs a nonempty dataset")
    rng = np.random.default_rng(seed)
    take = min(len(y), n_batches * HUTCHINSON_BATCH_SIZE)
    chosen = rng.permutation(len(y))[:take]
    s, q, y = s[chosen], q[chosen], y[chosen]

    wiring = model.wiring_
    template = model.params_

    def grad_fn(vec: np.ndarray) -> np.ndarray:
        params = template.with_vector(vec)
        probs, cache = wiring.forward(params, s, q, train=False)
        dz = (probs - y) / len(y)
        return nn.dense(wiring.backward(params, cache, dz, mode="sum")).vector

    estimate = hutchinson_diag(grad_fn, template.vector, n_probe_samples, rng)
    if isinstance(estimate, tuple):
        return tuple(require_finite(template.with_vector(e)) for e in estimate)
    return require_finite(template.with_vector(estimate))
