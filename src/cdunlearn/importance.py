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
    model: CDModel, students: np.ndarray, items: np.ndarray, scores: np.ndarray
) -> nn.ArrayBundle:
    """Sum of squared per-example loss gradients over the records given as
    columns, memoized per model.

    The records are summed in a canonical order (by student, item, score), so
    the sum depends only on the parameters and on the multiset of records: a
    memoized sum has the bits of a fresh one. The memo keeps one entry per
    model, keyed by a digest of the parameter bytes and the sorted records; a
    different multiset, or parameters changed in place, recompute it. The
    returned arrays are read-only. Scores must be 0 or 1.
    """
    model._require_fitted()
    wiring = model.wiring_
    s, q = wiring._indices(students, items)
    if len(scores) == 0:
        raise ValueError("importance needs a nonempty dataset")
    if not ((scores == 0.0) | (scores == 1.0)).all():
        raise ValueError("scores must be 0 or 1")
    keys = np.sort((s * wiring.n_items + q) * 2 + scores.astype(np.int64))
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
    ``(1 - beta) * value + beta * layer_mean``.

    ``beta=0`` returns the input values bit-for-bit; ``beta=1`` floods every
    layer with its mean. The within-layer mean is invariant for any beta.
    """
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    missing = [name for name, _ in imp.layout if name not in layer_means]
    if missing:
        raise ValueError(f"layer means missing for {missing}")
    sizes = [values.size for _, values in imp.items()]
    smoothed = (1.0 - beta) * imp.vector
    smoothed += np.repeat([beta * layer_means[name] for name, _ in imp.layout], sizes)
    return imp.with_vector(smoothed)


def _require_count(name: str, value) -> None:
    if not nn.is_count(value, 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def hutchinson_diag(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    n_probe_samples: int,
    rng: np.random.Generator,
    return_samples: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Randomized estimate of the Hessian diagonal of a function at ``x0``.

    Uses n_probe_samples Rademacher probes z and the identity
    diag(H) ~= E[z * (H z)], with H z obtained by central finite differences
    of ``grad_fn``: (g(x0 + eps z) - g(x0 - eps z)) / (2 eps), where
    eps = 1e-3 * (1 + max|x0|).
    """
    _require_count("n_probe_samples", n_probe_samples)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = 1e-3 * (1.0 + (np.max(np.abs(x0)) if x0.size else 0.0))
    samples = np.empty((n_probe_samples, x0.size))
    for k in range(n_probe_samples):
        z = rng.integers(0, 2, size=x0.size).astype(np.float64) * 2.0 - 1.0
        hz = (grad_fn(x0 + eps * z) - grad_fn(x0 - eps * z)) / (2.0 * eps)
        samples[k] = z * hz
    estimate = samples.mean(axis=0)
    if return_samples:
        return estimate, samples
    return estimate


def hutchinson_hessian_diag(
    model: CDModel,
    records: Records | Sequence[ResponseRecord],
    n_probe_samples: int,
    n_batches: int = 1,
    seed: int = 0,
) -> nn.ArrayBundle:
    """Hessian-diagonal importance of the model's mean loss over ``records``.

    The gradient behind each Hessian-vector product is evaluated on
    ``n_batches`` batches of :data:`HUTCHINSON_BATCH_SIZE` records drawn
    (seeded) from ``records``. Values are signed; deterministic for a fixed
    seed.
    """
    model._require_fitted()
    _require_count("n_probe_samples", n_probe_samples)
    _require_count("n_batches", n_batches)
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
    return require_finite(template.with_vector(estimate))
