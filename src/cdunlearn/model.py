"""Neural cognitive-diagnosis architectures and the estimator around them.

Two architectures share one interface:

``decoupled``
    Students, exercises, and knowledge components (KCs) get independent
    embedding vectors. A student's proficiency over the K KCs is
    ``sigmoid(e_s @ E_C.T + prof_bias)`` and an exercise's difficulty is
    ``sigmoid(e_q @ E_C.T + diff_bias)``; their difference is masked by the
    exercise's Q-matrix row and fed to a small feed-forward network whose
    sigmoid output is the probability of a correct response. Each student's
    personal signal lives almost entirely in their own embedding row, which is
    what makes selective unlearning tractable.

``neuralcdm``
    A mastery-table variant: per-student K-dimensional mastery logits, per-item
    difficulty logits and a scalar discrimination, interaction
    ``Q_row * (mastery - difficulty) * disc``, and a monotonic feed-forward
    network whose dense weights are projected to be nonnegative after every
    optimizer step so that more mastery never lowers the predicted probability.

Backward passes are analytic (embedding lookup, dense, sigmoid, masked
subtract/multiply) and support two reductions: summed gradients for training
and summed *squared* per-example gradients for importance estimation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import metrics, nn, serialize
from .data import QMatrix, Records, ResponseRecord, records_to_arrays

ARCHITECTURES = ("decoupled", "neuralcdm")


@dataclass(frozen=True)
class CDArchConfig:
    """Architecture hyperparameters; student/item/KC counts come from data."""

    arch: str = "decoupled"
    embed_dim: int = 32
    ffn_hidden: tuple[int, ...] = (64, 32)
    dropout: float = 0.2

    def __post_init__(self) -> None:
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        if not nn.is_count(self.embed_dim, 1):
            raise ValueError(f"embed_dim must be an integer >= 1, got {self.embed_dim!r}")
        if not all(nn.is_count(h, 1) for h in self.ffn_hidden):
            raise ValueError(f"ffn_hidden sizes must be integers >= 1, got {self.ffn_hidden!r}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        object.__setattr__(self, "ffn_hidden", tuple(int(h) for h in self.ffn_hidden))


def _init_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


class _Wiring:
    """What both architectures share: the constructor, the index check,
    parameter initialization and the feed-forward stack over ``self.dims``."""

    def __init__(self, config: CDArchConfig, n_students: int, n_items: int, qmatrix: QMatrix):
        self.n_students = n_students
        self.n_items = n_items
        self.n_kcs = qmatrix.n_kcs
        self.embed_dim = config.embed_dim
        self.dims = (self.n_kcs, *config.ffn_hidden, 1)
        self.dropout = float(config.dropout)
        self.qrows = np.asarray(qmatrix.entries, dtype=np.float64)

    def init_params(self, rng: np.random.Generator) -> nn.ArrayBundle:
        """Biases start at zero, every other layer uniform in +-1/sqrt(fan_in)."""
        arrays = {}
        for name, shape in self.layer_shapes():
            if name.endswith("bias") or name.startswith("ffn_b_"):
                arrays[name] = np.zeros(shape)
            else:
                arrays[name] = _init_uniform(rng, shape)
        params = nn.ArrayBundle(arrays)
        self.post_step(params)
        return params

    def post_step(self, params: nn.ArrayBundle) -> None:
        pass

    def _indices(self, students, items) -> tuple[np.ndarray, np.ndarray]:
        """Students and items as int64 arrays, checked against the table sizes."""
        students = np.asarray(students, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if len(students) and (students.min() < 0 or students.max() >= self.n_students):
            raise IndexError("student id out of range")
        if len(items) and (items.min() < 0 or items.max() >= self.n_items):
            raise IndexError("item id out of range")
        return students, items

    @staticmethod
    def _squared(mode: str) -> bool:
        if mode not in ("sum", "sq_sum"):
            raise ValueError(f"unknown mode {mode!r}")
        return mode == "sq_sum"

    def _ordered(self, grads: dict) -> nn.GradMap:
        return {name: grads[name] for name, _ in self.layer_shapes()}

    def _ffn_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        shapes = []
        for l, (din, dout) in enumerate(zip(self.dims[:-1], self.dims[1:])):
            shapes.append((f"ffn_W_{l}", (dout, din)))
            shapes.append((f"ffn_b_{l}", (dout,)))
        return shapes

    def _ffn_forward(self, params, x, train, rng):
        n_dense = len(self.dims) - 1
        inputs = [x]
        acts = []
        drops: list[np.ndarray | None] = []
        h = x
        for l in range(n_dense - 1):
            a = self._dense_layer(params, l, h)
            acts.append(a)
            if train and self.dropout > 0.0:
                if rng is None:
                    raise ValueError("training forward pass needs an rng for dropout")
                mask = (rng.random(a.shape) >= self.dropout) / (1.0 - self.dropout)
                drops.append(mask)
                h = a * mask
            else:
                drops.append(None)
                h = a
            inputs.append(h)
        p = self._dense_layer(params, n_dense - 1, h)[:, 0]
        return p, inputs, acts, drops

    @staticmethod
    def _dense_layer(params, l, h):
        """sigmoid(h @ W_l.T + b_l), with the bias added and the sigmoid taken
        in place in the product: the pre-activation is not kept."""
        z = h @ params[f"ffn_W_{l}"].T
        z += params[f"ffn_b_{l}"]
        return nn.sigmoid(z, out=z)

    def _ffn_backward(self, params, grads, cache, dz, squared):
        """Backpropagate dz (B,) through the dense stack; returns dL/d(input).
        Takes the layers' inputs and activations out of ``cache`` and drops
        each once it is used; an activation becomes ``1 - a`` in place."""
        inputs, acts, drops = cache.pop("inputs"), cache.pop("acts"), cache.pop("drops")
        delta = dz[:, None]
        for l in reversed(range(len(self.dims) - 1)):
            x = inputs.pop()
            if squared:
                sq_delta = np.square(delta)
                grads[f"ffn_W_{l}"] = sq_delta.T @ np.square(x)
                grads[f"ffn_b_{l}"] = sq_delta.sum(axis=0)
                del sq_delta
            else:
                grads[f"ffn_W_{l}"] = delta.T @ x
                grads[f"ffn_b_{l}"] = delta.sum(axis=0)
            del x
            dx = delta @ params[f"ffn_W_{l}"]
            if l == 0:
                return dx
            mask, a = drops.pop(), acts.pop()
            if mask is not None:
                dx *= mask
            dx *= a
            dx *= np.subtract(1.0, a, out=a)
            delta = dx
            del mask, a
        raise AssertionError("unreachable: the stack has at least one layer")


class DecoupledWiring(_Wiring):
    """Forward/backward for the decoupled embedding architecture."""

    arch = "decoupled"
    # Embedding tables by the index that picks their rows: row i of a
    # "students" table is touched only by records of student i.
    row_index = {"student_emb": "students", "exercise_emb": "items"}

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [
            ("student_emb", (self.n_students, self.embed_dim)),
            ("exercise_emb", (self.n_items, self.embed_dim)),
            ("kc_emb", (self.n_kcs, self.embed_dim)),
            ("prof_bias", (self.n_kcs,)),
            ("diff_bias", (self.n_kcs,)),
            *self._ffn_shapes(),
        ]

    def proficiency_from(self, params: nn.ArrayBundle, students: np.ndarray) -> np.ndarray:
        return self._over_kcs(params, params["student_emb"][students], "prof_bias")

    @staticmethod
    def _over_kcs(params: nn.ArrayBundle, rows: np.ndarray, bias: str) -> np.ndarray:
        """sigmoid(rows @ E_C.T + bias): per-KC proficiency or difficulty."""
        z = rows @ params["kc_emb"].T
        z += params[bias]
        return nn.sigmoid(z, out=z)

    def forward(self, params, students, items, train=False, rng=None):
        students, items = self._indices(students, items)
        prof = self._over_kcs(params, params["student_emb"][students], "prof_bias")
        diff = self._over_kcs(params, params["exercise_emb"][items], "diff_bias")
        qmask = self.qrows[items]
        gap = prof - diff
        gap *= qmask
        p, inputs, acts, drops = self._ffn_forward(params, gap, train, rng)
        cache = {
            "students": students,
            "items": items,
            "prof": prof,
            "diff": diff,
            "qmask": qmask,
            "inputs": inputs,
            "acts": acts,
            "drops": drops,
        }
        return p, cache

    def backward(self, params, cache, dz, mode="sum"):
        squared = self._squared(mode)
        grads: dict[str, np.ndarray] = {}
        dgap = self._ffn_backward(params, grads, cache, dz, squared)
        prof, diff, qmask = cache.pop("prof"), cache.pop("diff"), cache.pop("qmask")
        masked = dgap * qmask
        d_ap = masked * prof * (1.0 - prof)
        d_ad = -masked * diff * (1.0 - diff)
        students, items = cache["students"], cache["items"]
        # the embedding rows are gathered again rather than cached: a copy is exact
        e_s, e_q = params["student_emb"][students], params["exercise_emb"][items]
        if squared:
            sq_ap, sq_ad = np.square(d_ap), np.square(d_ad)
            grads["prof_bias"] = sq_ap.sum(axis=0)
            grads["diff_bias"] = sq_ad.sum(axis=0)
            # per-example kc gradient is d_ap[b,k]*e_s[b] + d_ad[b,k]*e_q[b];
            # its square sums to A + 2B + C, added in that order
            cross = 2.0 * np.einsum("bk,bd->kd", d_ap * d_ad, e_s * e_q)
            kc_grad = np.einsum("bk,bd->kd", sq_ap, np.square(e_s, out=e_s))
            kc_grad += cross
            kc_grad += np.einsum("bk,bd->kd", sq_ad, np.square(e_q, out=e_q))
            grads["kc_emb"] = kc_grad
        else:
            grads["prof_bias"] = d_ap.sum(axis=0)
            grads["diff_bias"] = d_ad.sum(axis=0)
            grads["kc_emb"] = d_ap.T @ e_s + d_ad.T @ e_q
        del e_s, e_q
        kc = params["kc_emb"]
        d_rows_s = d_ap @ kc
        d_rows_q = d_ad @ kc
        if squared:
            np.square(d_rows_s, out=d_rows_s)
            np.square(d_rows_q, out=d_rows_q)
        [grads["student_emb"]] = nn.row_grads(self.n_students, students, d_rows_s,
                                              always_rows=squared)
        [grads["exercise_emb"]] = nn.row_grads(self.n_items, items, d_rows_q,
                                               always_rows=squared)
        return self._ordered(grads)


class MonotonicCdmWiring(_Wiring):
    """Forward/backward for the mastery-table architecture with a monotonic FFN."""

    arch = "neuralcdm"
    row_index = {"student_emb": "students", "diff_emb": "items", "disc_emb": "items"}

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return [
            ("student_emb", (self.n_students, self.n_kcs)),
            ("diff_emb", (self.n_items, self.n_kcs)),
            ("disc_emb", (self.n_items, 1)),
            *self._ffn_shapes(),
        ]

    def post_step(self, params: nn.ArrayBundle) -> None:
        # Monotonicity: dense weights stay nonnegative (from initialization on).
        for l in range(len(self.dims) - 1):
            np.maximum(params[f"ffn_W_{l}"], 0.0, out=params[f"ffn_W_{l}"])

    def proficiency_from(self, params: nn.ArrayBundle, students: np.ndarray) -> np.ndarray:
        return nn.sigmoid(params["student_emb"][students])

    def forward(self, params, students, items, train=False, rng=None):
        students, items = self._indices(students, items)
        # each lookup is a copy, which becomes its sigmoid in place
        mastery = params["student_emb"][students]
        difficulty = params["diff_emb"][items]
        disc = params["disc_emb"][items]
        for logits in (mastery, difficulty, disc):
            nn.sigmoid(logits, out=logits)
        qmask = self.qrows[items]
        x = mastery - difficulty
        x *= qmask
        x *= disc
        p, inputs, acts, drops = self._ffn_forward(params, x, train, rng)
        cache = {
            "students": students,
            "items": items,
            "mastery": mastery,
            "difficulty": difficulty,
            "disc": disc,
            "qmask": qmask,
            "inputs": inputs,
            "acts": acts,
            "drops": drops,
        }
        return p, cache

    def backward(self, params, cache, dz, mode="sum"):
        squared = self._squared(mode)
        grads: dict[str, np.ndarray] = {}
        dx = self._ffn_backward(params, grads, cache, dz, squared)
        mastery, difficulty = cache.pop("mastery"), cache.pop("difficulty")
        disc, qmask = cache.pop("disc"), cache.pop("qmask")
        d_mastery = dx * qmask * disc
        d_difficulty = -d_mastery
        d_disc = (dx * qmask * (mastery - difficulty)).sum(axis=1, keepdims=True)
        d_ms = d_mastery * mastery * (1.0 - mastery)
        d_md = d_difficulty * difficulty * (1.0 - difficulty)
        d_mc = d_disc * disc * (1.0 - disc)
        if squared:
            for d in (d_ms, d_md, d_mc):
                np.square(d, out=d)
        students, items = cache["students"], cache["items"]
        [grads["student_emb"]] = nn.row_grads(self.n_students, students, d_ms,
                                              always_rows=squared)
        grads["diff_emb"], grads["disc_emb"] = nn.row_grads(self.n_items, items, d_md, d_mc,
                                                            always_rows=squared)
        return self._ordered(grads)


def build_wiring(config: CDArchConfig, n_students: int, n_items: int, qmatrix: QMatrix):
    wiring = DecoupledWiring if config.arch == "decoupled" else MonotonicCdmWiring
    return wiring(config, n_students, n_items, qmatrix)


# What a fit records besides the parameters.
FIT_RESULTS = ("fit_seconds_", "epochs_run_", "best_epoch_", "monitor_value_")


def _monitor_score(probs: np.ndarray, labels: np.ndarray) -> float:
    """Validation AUC; falls back to negative mean loss when one class is absent."""
    if 0 < labels.sum() < len(labels):
        return metrics.auc(probs, labels)
    return -float(np.mean(nn.bce_loss(probs, labels)))


class CDModel:
    """Trainable cognitive-diagnosis model with a scikit-learn style surface.

    Hyperparameters are constructor arguments (``get_params``/``set_params``
    compatible); everything learned during :meth:`fit` lives in
    trailing-underscore attributes. A fitted model is immutable for prediction
    purposes and can be shared across threads; unlearning algorithms produce
    modified copies via :meth:`with_params`.
    """

    _PARAM_NAMES = (
        *(f.name for f in fields(CDArchConfig)),
        *(f.name for f in fields(nn.TrainConfig)),
        "seed",
    )

    def __init__(
        self,
        arch: str = "decoupled",
        embed_dim: int = 32,
        ffn_hidden: tuple[int, ...] = (64, 32),
        dropout: float = 0.2,
        optimizer: str = "adam",
        lr: float = 0.002,
        batch_size: int = 256,
        max_epochs: int = 100,
        patience: int = 5,
        min_delta: float = 0.0,
        seed: int = 0,
    ):
        # The defaults repeat CDArchConfig's and TrainConfig's for keyword
        # callers; the tests hold the two lists equal.
        hyper = dict(locals())
        del hyper["self"]
        self.set_params(**hyper)

    # -- scikit-learn style plumbing ------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **updates) -> "CDModel":
        for key, value in updates.items():
            if key not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, tuple(value) if key == "ffn_hidden" else value)
        return self

    def _config(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def arch_config(self) -> CDArchConfig:
        return self._config(CDArchConfig)

    def train_config(self) -> nn.TrainConfig:
        return self._config(nn.TrainConfig)

    @property
    def is_fitted(self) -> bool:
        return hasattr(self, "params_")

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("model is not fitted")

    # -- training --------------------------------------------------------
    def fit(
        self,
        records: Records | Sequence[ResponseRecord],
        qmatrix: QMatrix,
        valid_records: Records | Sequence[ResponseRecord] | None = None,
        n_students: int | None = None,
        n_items: int | None = None,
    ) -> "CDModel":
        """Fit on ``records``; early-stop on AUC over ``valid_records``.

        When ``valid_records`` is None the training set itself is monitored.
        ``n_students``/``n_items`` size the embedding tables; by default they
        are inferred from the largest id seen, but callers holding out students
        for later evaluation should pass the full dataset counts explicitly.
        """
        if len(records) == 0:
            raise ValueError("training set is empty")
        arch_cfg = self.arch_config()  # validates architecture hyperparameters
        s, q, y = records_to_arrays(records)
        if valid_records is not None and len(valid_records) > 0:
            monitor = records_to_arrays(valid_records)
        else:
            monitor = (s, q, y)
        inferred_students = int(max(s.max(), monitor[0].max())) + 1
        inferred_items = int(max(q.max(), monitor[1].max())) + 1
        self.n_students_ = int(n_students) if n_students is not None else inferred_students
        self.n_items_ = int(n_items) if n_items is not None else qmatrix.n_items
        self.n_kcs_ = qmatrix.n_kcs
        if inferred_students > self.n_students_:
            raise ValueError("record student id exceeds n_students")
        if inferred_items > self.n_items_ or self.n_items_ != qmatrix.n_items:
            raise ValueError("item ids must index rows of the Q-matrix")
        self.qmatrix_ = qmatrix
        self.wiring_ = build_wiring(arch_cfg, self.n_students_, self.n_items_, qmatrix)
        params, result = nn.fit_params(
            self.wiring_, (s, q, y), monitor, self.train_config(), self.seed, _monitor_score
        )
        self.params_ = params
        self.fit_seconds_ = result.wall_seconds
        self.epochs_run_ = result.epochs_run
        self.best_epoch_ = result.best_epoch
        self.monitor_value_ = result.monitor_value
        return self

    # -- inference -------------------------------------------------------
    def predict_proba(self, records: Records | Sequence[ResponseRecord]) -> np.ndarray:
        """Correct-response probabilities, one per record."""
        self._require_fitted()
        return nn._predict_all(self.wiring_, self.params_, records_to_arrays(records))

    def proficiency(self, student_id: int) -> np.ndarray:
        """The student's per-KC proficiency vector, each entry in (0, 1)."""
        self._require_fitted()
        if not (0 <= student_id < self.n_students_):
            raise IndexError(f"student id {student_id} out of range")
        return self.wiring_.proficiency_from(
            self.params_, np.asarray([student_id], dtype=np.int64)
        )[0]

    # -- copies and persistence -------------------------------------------
    def with_params(self, params: nn.ArrayBundle) -> "CDModel":
        """A fitted copy of this model using ``params``, whose layer ids and
        shapes must be this model's, in layer order (ValueError otherwise)."""
        self._require_fitted()
        self.params_.require_same_layout(params)
        clone = CDModel(**self.get_params())
        for attr in ("n_students_", "n_items_", "n_kcs_", "qmatrix_", "wiring_"):
            setattr(clone, attr, getattr(self, attr))
        for attr in (*FIT_RESULTS, "data_"):
            if hasattr(self, attr):
                setattr(clone, attr, getattr(self, attr))
        clone.params_ = params
        return clone

    def copy(self) -> "CDModel":
        self._require_fitted()
        return self.with_params(self.params_.copy())

    def save(self, path: str, data: dict | None = None) -> None:
        """Write a checkpoint; round trip is bit-exact (see ``serialize``). The data
        partition ``data`` (``ExperimentConfig.data_record()``) goes under meta key "data"."""
        self._require_fitted()
        arrays = dict(self.params_.items())
        arrays["qmatrix"] = self.qmatrix_.entries
        meta = {
            "kind": "cd_model",
            "arch": self.arch,
            "hyperparameters": self.get_params(),
            "layer_ids": [name for name, _ in self.params_.layout],
            "rng_seed": self.seed,
            "n_students": self.n_students_,
            "n_items": self.n_items_,
            "n_kcs": self.n_kcs_,
        }
        if data is not None:
            meta["data"] = data
        serialize.save_bundle(path, arrays, meta)

    @classmethod
    def load(cls, path: str) -> "CDModel":
        """Read a checkpoint written by :meth:`save`; raises
        :class:`serialize.ContainerError` when a meta field is missing or
        malformed or ``rng_seed`` is not the integer ``seed``, or its arrays
        are not exactly the Q-matrix and the layers its architecture and
        counts call for, or hold NaN or ±inf. ``data_`` is the recorded data partition or None."""
        arrays, meta = serialize.load_bundle(path)
        if meta.get("kind") != "cd_model":
            raise serialize.ContainerError(f"{path} is not a model checkpoint")
        for key, kind in (("hyperparameters", dict), ("layer_ids", list), ("n_students", int),
                          ("n_items", int), ("n_kcs", int), ("rng_seed", int)):
            if type(meta.get(key)) is not kind:  # bools are not counts
                raise serialize.ContainerError(
                    f"{path}: meta field {key!r} is missing or not a {kind.__name__}"
                )
        try:
            model = cls(**meta["hyperparameters"])
            arch_config = model.arch_config()
            model.train_config()
        except (TypeError, ValueError) as exc:
            raise serialize.ContainerError(
                f"{path}: meta field 'hyperparameters': {exc}"
            ) from None
        if not (nn.is_count(model.seed, 0) and model.seed == meta["rng_seed"]):
            raise serialize.ContainerError(
                f"{path}: meta field 'rng_seed' {meta['rng_seed']} is not the seed {model.seed!r}"
            )
        if "qmatrix" not in arrays:
            raise serialize.ContainerError(f"{path}: no 'qmatrix' array")
        try:
            qmatrix = QMatrix(arrays.pop("qmatrix"))
        except ValueError as exc:
            raise serialize.ContainerError(f"{path}: array 'qmatrix': {exc}") from None
        data = meta.get("data")
        if "data" in meta and not (
            type(data) is dict and sorted(data) == ["seed_data", "split_ratios", "unlearn_ratio"]
            and type(data["seed_data"]) is int and type(data["split_ratios"]) is list
            and [type(r) for r in (*data["split_ratios"], data["unlearn_ratio"])] == [float] * 4
        ):
            raise serialize.ContainerError(f"{path}: meta field 'data' is not a data partition")
        model.data_ = data
        model.n_students_ = meta["n_students"]
        model.n_items_ = meta["n_items"]
        model.n_kcs_ = meta["n_kcs"]
        model.qmatrix_ = qmatrix
        model.wiring_ = build_wiring(arch_config, model.n_students_, model.n_items_, qmatrix)
        shapes = model.wiring_.layer_shapes()
        found = {name: values.shape for name, values in arrays.items()}
        if (
            meta["layer_ids"] != [name for name, _ in shapes]
            or found != dict(shapes)
            or qmatrix.entries.shape != (model.n_items_, model.n_kcs_)
        ):
            raise serialize.ContainerError(
                f"{path}: arrays {found} and layer_ids {meta['layer_ids']} do not match the "
                f"{model.arch} layers for {model.n_students_} students, {model.n_items_} "
                f"items and {model.n_kcs_} KCs"
            )
        model.params_ = nn.ArrayBundle({name: arrays[name] for name, _ in shapes})
        nonfinite = model.params_.nonfinite_layers()
        if nonfinite:
            raise serialize.ContainerError(f"{path}: non-finite values in layers {nonfinite}")
        return model


def train(
    arch_config: CDArchConfig,
    train_records: Records | Sequence[ResponseRecord],
    valid_records: Records | Sequence[ResponseRecord] | None,
    qmatrix: QMatrix,
    train_config: nn.TrainConfig | None = None,
    seed: int = 0,
    n_students: int | None = None,
    n_items: int | None = None,
) -> tuple[CDModel, float]:
    """Train a model and return it with the wall-clock seconds spent fitting."""
    tc = train_config or nn.TrainConfig()
    model = CDModel(**asdict(arch_config), **asdict(tc), seed=seed)
    model.fit(train_records, qmatrix, valid_records, n_students=n_students, n_items=n_items)
    return model, model.fit_seconds_
