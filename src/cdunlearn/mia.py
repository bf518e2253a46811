"""Student-level membership-inference audit.

The attack classifier learns, from the original model's outputs, to tell
records of students whose data was in training ("members") apart from records
of held-out students. It is then pointed at an unlearned model: if unlearning
worked, forgotten students score like the clean non-member control group and
the attack AUC sits near 0.5.

Feature batches carry their record group so the one protocol rule that is
easy to get wrong — never train the attacker on the evaluation control group —
is enforced mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import metrics, nn
from .data import Records, ResponseRecord, records_to_arrays
from .model import CDModel

EVAL_ONLY_GROUP = "nm_eval_test"
# The attacker's full-batch gradient descent: step size, steps and L2 weight.
_ATTACKER_LR = 0.1
_ATTACKER_ITERATIONS = 2000
_ATTACKER_L2 = 1e-4


@dataclass(frozen=True)
class FeatureBatch:
    """Attack features plus the record group they came from."""

    features: np.ndarray
    group: str = ""

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class MIAReport:
    mia_auc: float
    mia_acc: float
    n_member_eval: int
    n_nonmember_eval: int


def prediction_features(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-record attack features: [p, y, bce(p, y), |y - p|, p * (1 - p)]."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return np.column_stack(
        [
            probs,
            labels,
            nn.bce_loss(probs, labels),
            np.abs(labels - probs),
            probs * (1.0 - probs),
        ]
    )


def extract_features(
    model: CDModel,
    records: Records | Sequence[ResponseRecord],
    group: str = "",
) -> FeatureBatch:
    """Run records through the model (inference mode) and featurize the outputs."""
    if len(records) == 0:
        raise ValueError("cannot extract features from zero records")
    _, _, y = records_to_arrays(records)
    probs = model.predict_proba(records)
    return FeatureBatch(prediction_features(probs, y), group=group)


class LogisticAttacker:
    """Logistic-regression membership classifier on standardized features.

    Fitting runs full-batch gradient descent from zero weights, so it is
    deterministic. Standardization statistics are estimated on the attacker's
    training data and frozen.
    """

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticAttacker":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(labels):
            raise ValueError("features must be 2-d and aligned with labels")
        if labels.sum() == 0 or labels.sum() == len(labels):
            raise ValueError("attacker training needs both classes")
        self.mean_ = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0  # constant feature carries no signal
        self.std_ = std
        x = (features - self.mean_) / self.std_
        n = len(labels)
        w = np.zeros(features.shape[1])
        b = 0.0
        for _ in range(_ATTACKER_ITERATIONS):
            p = nn.sigmoid(x @ w + b)
            err = p - labels
            w -= _ATTACKER_LR * (x.T @ err / n + _ATTACKER_L2 * w)
            b -= _ATTACKER_LR * float(err.mean())
        self.weights_ = w
        self.bias_ = b
        return self

    def score(self, features: np.ndarray) -> np.ndarray:
        """Membership probability per feature row."""
        if not hasattr(self, "weights_"):
            raise RuntimeError("attacker is not fitted")
        x = (np.asarray(features, dtype=np.float64) - self.mean_) / self.std_
        return nn.sigmoid(x @ self.weights_ + self.bias_)


def _reject_eval_features(batch: FeatureBatch | np.ndarray, role: str) -> np.ndarray:
    if isinstance(batch, FeatureBatch):
        if batch.group == EVAL_ONLY_GROUP:
            raise ValueError(
                f"{role} batch is tagged {EVAL_ONLY_GROUP!r}; the evaluation "
                "control group must never be used to train the attacker"
            )
        return batch.features
    return np.asarray(batch, dtype=np.float64)


def train_attacker(
    member_features: FeatureBatch | np.ndarray,
    nonmember_features: FeatureBatch | np.ndarray,
    seed: int = 0,
) -> LogisticAttacker:
    """Fit the attack classifier: member features labeled 1, non-member 0.

    The fit is deterministic, so ``seed`` changes nothing; it is kept because
    callers pass it (``perfbench/workloads.py`` among them).
    """
    pos = _reject_eval_features(member_features, "member")
    neg = _reject_eval_features(nonmember_features, "non-member")
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both feature classes must be nonempty")
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    return LogisticAttacker().fit(features, labels)


def evaluate_attack(
    attacker: LogisticAttacker,
    model: CDModel,
    forget_test_records: Records | Sequence[ResponseRecord],
    nm_eval_test_records: Records | Sequence[ResponseRecord],
) -> MIAReport:
    """Attack a model: forgotten students' test records against the clean
    non-member control group. AUC near 0.5 means the attacker cannot tell them
    apart, i.e. the model carries no usable trace of the forgotten students.
    """
    if len(forget_test_records) == 0 or len(nm_eval_test_records) == 0:
        raise ValueError("both evaluation record sets must be nonempty")
    members = extract_features(model, forget_test_records, group="forget_test")
    control = extract_features(model, nm_eval_test_records, group=EVAL_ONLY_GROUP)
    scores = np.concatenate([attacker.score(members.features), attacker.score(control.features)])
    labels = np.concatenate([np.ones(len(members)), np.zeros(len(control))])
    return MIAReport(
        mia_auc=metrics.auc(scores, labels),
        mia_acc=metrics.acc(scores, labels, threshold=0.5),
        n_member_eval=len(members),
        n_nonmember_eval=len(control),
    )
