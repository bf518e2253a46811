"""Unlearning algorithms: importance-guided attenuation (with and without
layer smoothing), gradient ascent, and Hessian-guided attenuation.

The three attenuation algorithms share one core: an estimator yields a
(forget, retain) pair of importance bundles, and :func:`attenuate` smooths
the forget side and applies the select-and-dampen rule. They differ only in
the estimator (Fisher or |Hessian|) and in beta (fim and hessian use 0).

All algorithms take a fitted model plus the records to forget and return a new
model with a report; the input model is never mutated. Reported wall time
covers the whole operation including importance estimation, since that is the
cost a deployer actually pays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import importance as imp_mod
from . import nn
from .data import Records, ResponseRecord, records_to_arrays
from .model import CDModel


@dataclass(frozen=True)
class HIFConfig:
    """Hyperparameters of hierarchical importance-guided forgetting.

    alpha    selection threshold: a parameter is attenuated when its smoothed
             forget-importance exceeds ``alpha`` times its retain-importance.
    lambda_  unlearning strength in [0, 1]; scales the attenuation.
    beta     smoothing factor in [0, 1]; how far forget-importance is shrunk
             toward its layer mean before selection.
    excluded_layers   layer ids exempt from attenuation.
    """

    alpha: float
    lambda_: float
    beta: float
    excluded_layers: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha}")
        if not (0.0 <= self.lambda_ <= 1.0):
            raise ValueError(f"lambda_ must be in [0, 1], got {self.lambda_}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        object.__setattr__(self, "excluded_layers", frozenset(self.excluded_layers))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda_": self.lambda_,
            "beta": self.beta,
            "excluded_layers": sorted(self.excluded_layers),
        }


@dataclass
class UnlearnReport:
    algorithm: str
    parameters_modified: int
    wall_time_seconds: float
    config: dict = field(default_factory=dict)


def select_and_attenuate(
    params: nn.ArrayBundle,
    imp_forget: nn.ArrayBundle,
    imp_retain: nn.ArrayBundle,
    alpha: float,
    lambda_: float,
    excluded_layers: frozenset[str] = frozenset(),
) -> tuple[nn.ArrayBundle, int]:
    """Core attenuation rule, applied over the vectors of three bundles of one layout.

    A parameter is selected when forget-importance > alpha * retain-importance
    (never when both are zero) and is then scaled by
    ``1 - lambda_ * min(forget / retain, 1)``; a zero retain-importance counts
    as an infinite ratio, so the cap at 1 applies. Unselected parameters and
    ``excluded_layers`` are returned bit-unchanged.

    Raises ValueError, with ``params`` unchanged, when ``alpha`` or ``lambda_``
    is outside :class:`HIFConfig`'s bounds, when a map's layout (layer order
    included) is not the parameters', or when a map holds NaN, ±inf or a
    negative entry, naming the layer.
    """
    HIFConfig(alpha, lambda_, 0.0)
    for imp in (imp_forget, imp_retain):
        params.require_same_layout(imp)
        imp_mod.require_finite(imp)
        if (imp.vector < 0).any():
            name = next(k for k, v in imp.items() if (v < 0).any())
            raise ValueError(f"negative importance in layer {name!r}")
    unknown = excluded_layers - {layer_id for layer_id, _ in params.layout}
    if unknown:
        raise ValueError(f"excluded layers not in model: {sorted(unknown)}")
    f, r = imp_forget.vector, imp_retain.vector
    sizes = [values.size for _, values in params.items()]
    selected = f > alpha * r
    selected &= np.repeat([k not in excluded_layers for k, _ in params.layout], sizes)
    out = params.copy()
    f, r = f[selected], r[selected]
    ratio = np.divide(f, r, out=np.full_like(f, np.inf), where=r > 0)
    out.vector[selected] *= 1.0 - lambda_ * np.minimum(ratio, 1.0)
    return out, len(f)


def attenuate(
    model: CDModel,
    imp_forget: nn.ArrayBundle,
    imp_retain: nn.ArrayBundle,
    config: HIFConfig,
) -> tuple[CDModel, int]:
    """The shared unlearning step: smooth the forget-side importance toward its
    layer means (weight ``config.beta``; ``beta=0`` keeps it bit-unchanged),
    then apply :func:`select_and_attenuate`. Pure in its arguments, so one
    estimated pair can serve many configs. Returns the model and the number
    of parameters selected.
    """
    means = imp_mod.layer_importance(imp_forget)
    smoothed = imp_mod.smooth_importance(imp_forget, means, config.beta)
    new_params, n_selected = select_and_attenuate(
        model.params_, smoothed, imp_retain, config.alpha, config.lambda_, config.excluded_layers
    )
    return model.with_params(new_params), n_selected


def fisher_pair(
    model: CDModel,
    forget_records: Records | Sequence[ResponseRecord],
    retain_records: Records | Sequence[ResponseRecord],
) -> tuple[nn.ArrayBundle, nn.ArrayBundle]:
    """Fisher-diagonal importance over the forget and the retain records.

    The forget map is a pass over the forget records. The retain map takes no
    pass over the retain records: with ``S`` the model's memoized sum of
    squared per-example gradients over forget ∪ retain
    (:func:`importance.whole_set_sq_grads`), it is
    ``max(S - n_f * F_forget, 0) / n_r``, since the per-example squares add
    up. Embedding rows that no retain record indexes (the forget students'
    rows among them) are exactly 0, as in a pass over the retain records;
    elsewhere the map agrees with ``fim_diag(model, retain_records)`` to
    rounding.
    """
    forget = records_to_arrays(forget_records)
    retain = records_to_arrays(retain_records)
    _check_disjoint(forget[0], retain[0])
    imp_f = imp_mod.fim_diag(model, forget_records)
    union = [np.concatenate(pair) for pair in zip(forget, retain)]
    total = imp_mod.whole_set_sq_grads(model, *union)
    n_f, n_r = len(forget[2]), len(retain[2])
    total.require_same_layout(imp_f)
    retained = n_f * imp_f.vector
    np.subtract(total.vector, retained, out=retained)
    np.maximum(retained, 0.0, out=retained)
    retained *= 1.0 / n_r
    imp_r = total.with_vector(retained)
    indexed = {"students": retain[0], "items": retain[1]}
    for name, index in model.wiring_.row_index.items():
        rows = imp_r[name]
        rows[np.bincount(indexed[index], minlength=len(rows)) == 0] = 0.0
    return imp_f, imp_r


def _estimate_and_attenuate(
    algorithm: str,
    model: CDModel,
    forget_records: Records | Sequence[ResponseRecord],
    retain_records: Records | Sequence[ResponseRecord],
    config: HIFConfig,
    report_config: dict,
    estimate: Callable = fisher_pair,
) -> tuple[CDModel, UnlearnReport]:
    """Time estimation plus :func:`attenuate`; each estimator checks that the
    record sets are nonempty and share no student."""
    t0 = time.perf_counter()
    imp_f, imp_r = estimate(model, forget_records, retain_records)
    unlearned, n_selected = attenuate(model, imp_f, imp_r, config)
    wall = time.perf_counter() - t0
    return unlearned, UnlearnReport(algorithm, n_selected, wall, report_config)


def hif_unlearn(
    model: CDModel,
    forget_records: Records | Sequence[ResponseRecord],
    retain_records: Records | Sequence[ResponseRecord],
    config: HIFConfig,
) -> tuple[CDModel, UnlearnReport]:
    """Attenuate parameters over-specialized to ``forget_records``.

    Forget-side Fisher importance is smoothed toward its layer mean (weight
    ``config.beta``) before being compared against the raw retain-side
    importance. With ``beta=0`` this reduces to plain Fisher-guided
    attenuation.
    """
    return _estimate_and_attenuate(
        "hif", model, forget_records, retain_records, config, config.to_dict()
    )


def fim_unlearn(
    model: CDModel,
    forget_records: Records | Sequence[ResponseRecord],
    retain_records: Records | Sequence[ResponseRecord],
    alpha: float,
    lambda_: float,
    excluded_layers: frozenset[str] = frozenset(),
) -> tuple[CDModel, UnlearnReport]:
    """Fisher-guided attenuation without layer smoothing (beta = 0)."""
    config = HIFConfig(alpha=alpha, lambda_=lambda_, beta=0.0, excluded_layers=excluded_layers)
    report_config = {k: v for k, v in config.to_dict().items() if k != "beta"}
    return _estimate_and_attenuate(
        "fim", model, forget_records, retain_records, config, report_config
    )


def gradient_ascent_unlearn(
    model: CDModel,
    forget_records: Records | Sequence[ResponseRecord],
    lr: float,
    steps: int,
) -> tuple[CDModel, UnlearnReport]:
    """Full-batch gradient ascent on the forget-set loss.

    Each step moves every parameter along +lr times the gradient of the mean
    loss over ``forget_records``; parameters with no path to those records
    keep their exact values.
    """
    model._require_fitted()
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be a finite number >= 0, got {lr}")
    if not nn.is_count(steps, 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    if len(forget_records) == 0:
        raise ValueError("forget set is empty")
    t0 = time.perf_counter()
    s, q, y = records_to_arrays(forget_records)
    params = model.params_.copy()
    wiring = model.wiring_
    for _ in range(steps):
        probs, cache = wiring.forward(params, s, q, train=False)
        dz = (probs - y) / len(y)
        grads = nn.dense(wiring.backward(params, cache, dz, mode="sum"))
        params.require_same_layout(grads)
        params.vector += lr * grads.vector
    nonfinite = params.nonfinite_layers()
    if nonfinite:
        raise ValueError(f"gradient ascent left non-finite values in layers {nonfinite}")
    wall = time.perf_counter() - t0
    modified = int(np.count_nonzero(params.vector != model.params_.vector))
    report = UnlearnReport(
        algorithm="gradasc",
        parameters_modified=modified,
        wall_time_seconds=wall,
        config={"lr": lr, "steps": steps},
    )
    return model.with_params(params), report


def hessian_unlearn(
    model: CDModel,
    forget_records: Records | Sequence[ResponseRecord],
    retain_records: Records | Sequence[ResponseRecord],
    alpha: float,
    lambda_: float,
    n_probe_samples: int,
    n_batches: int = 1,
    seed: int = 0,
    excluded_layers: frozenset[str] = frozenset(),
) -> tuple[CDModel, UnlearnReport]:
    """Select-and-attenuate guided by |Hessian diagonal| estimates.

    The same rule as :func:`fim_unlearn` but with the magnitude of a
    randomized Hessian-diagonal estimate standing in for Fisher importance on
    both the forget and retain side. Probe seeds for the two estimates derive
    deterministically from ``seed``.
    """
    config = HIFConfig(alpha=alpha, lambda_=lambda_, beta=0.0, excluded_layers=excluded_layers)

    def hessian_pair(model, forget_records, retain_records):
        _check_disjoint(
            records_to_arrays(forget_records)[0], records_to_arrays(retain_records)[0]
        )
        seed_f, seed_r = (int(x) for x in np.random.SeedSequence(seed).generate_state(2))
        imp_f = imp_mod.hutchinson_hessian_diag(
            model, forget_records, n_probe_samples, n_batches, seed=seed_f
        )
        imp_r = imp_mod.hutchinson_hessian_diag(
            model, retain_records, n_probe_samples, n_batches, seed=seed_r
        )
        for imp in (imp_f, imp_r):
            np.abs(imp.vector, out=imp.vector)
        return imp_f, imp_r

    report_config = {k: v for k, v in config.to_dict().items() if k != "beta"} | {
        "n_probe_samples": n_probe_samples, "n_batches": n_batches, "seed": seed
    }
    return _estimate_and_attenuate(
        "hessian", model, forget_records, retain_records, config, report_config, hessian_pair
    )


def _check_disjoint(forget_students: np.ndarray, retain_students: np.ndarray) -> None:
    if len(forget_students) == 0 or len(retain_students) == 0:
        raise ValueError("forget and retain sets must both be nonempty")
    overlap = np.unique(forget_students[np.isin(forget_students, retain_students)]).tolist()
    if overlap:
        raise ValueError(
            f"forget and retain sets share students {overlap[:5]}..."
            if len(overlap) > 5
            else f"forget and retain sets share students {overlap}"
        )
