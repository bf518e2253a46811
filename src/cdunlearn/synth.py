"""Synthetic response-log generator.

Produces datasets with a planted skill structure: each student has a latent
per-KC mastery level, each item a per-KC difficulty, and the correctness
probability is a sigmoid of the mean mastery-minus-difficulty over the item's
required KCs. Useful for tests and for exercising the full pipeline without
shipping any real student data.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from .data import Dataset, QMatrix, Records, records_to_arrays
from .nn import is_count


def generate_qmatrix(
    n_items: int, n_kcs: int, rng: np.random.Generator, max_kcs_per_item: int = 4
) -> QMatrix:
    """Random binary item-KC matrix with 1..max_kcs_per_item KCs per item,
    covering every KC at least once when n_items >= n_kcs."""
    entries = np.zeros((n_items, n_kcs))
    for j in range(n_items):
        count = int(rng.integers(1, min(max_kcs_per_item, n_kcs) + 1))
        cols = rng.choice(n_kcs, size=count, replace=False)
        entries[j, cols] = 1.0
    # Make sure no KC is dead weight.
    for k in range(n_kcs):
        if entries[:, k].sum() == 0:
            entries[int(rng.integers(0, n_items)), k] = 1.0
    return QMatrix(entries)


def generate_dataset(
    n_students: int = 536,
    n_items: int = 20,
    n_kcs: int = 8,
    seed: int = 0,
    student_scale: float = 4.4,
    item_scale: float = 2.6,
    complete: bool = True,
    density: float = 1.0,
) -> Dataset:
    """Planted-model response log.

    The correctness logit of (student, item) is
    ``student_scale * mean(mastery over required KCs) - item_scale *
    mean(difficulty over required KCs)``. A large ``student_scale`` relative
    to ``item_scale`` makes responses strongly student-specific: a model that
    has learned a student's latent skills predicts them far better than one
    that only knows the items. With ``complete=True`` every student answers
    every item (n_students * n_items records), matching the shape of classic
    assessment matrices; otherwise each pair is kept with probability
    ``density``. Counts must be integers >= 1, the seed an integer >= 0, the
    scales finite and the density in (0, 1]; otherwise :class:`ValueError`.
    """
    for name, count, minimum in (("n_students", n_students, 1), ("n_items", n_items, 1),
                                 ("n_kcs", n_kcs, 1), ("seed", seed, 0)):
        if not is_count(count, minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, got {count!r}")
    for name, scale in (("student_scale", student_scale), ("item_scale", item_scale)):
        if not math.isfinite(scale):
            raise ValueError(f"{name} must be a finite number, got {scale!r}")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density!r}")
    rng = np.random.default_rng(seed)
    qmatrix = generate_qmatrix(n_items, n_kcs, rng)
    mastery = rng.standard_normal((n_students, n_kcs))
    difficulty = rng.standard_normal((n_items, n_kcs))
    qrows = qmatrix.entries
    kc_counts = qrows.sum(axis=1)

    student_part = mastery @ qrows.T / kc_counts  # (I, J)
    item_part = (difficulty * qrows).sum(axis=1) / kc_counts  # (J,)
    logits = student_scale * student_part - item_scale * item_part
    probs = 1.0 / (1.0 + np.exp(-logits))
    scores = (rng.random((n_students, n_items)) < probs).astype(np.int64)

    if complete:
        keep = np.ones((n_students, n_items), dtype=bool)
    else:
        keep = rng.random((n_students, n_items)) < density
        keep[np.flatnonzero(keep.sum(axis=1) == 0), 0] = True  # no orphan students
    students, items = np.nonzero(keep)  # row-major: by student, then item
    return Dataset(
        Records(students, items, scores[students, items]), n_students, n_items, qmatrix
    )


def _digits(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal digits of a column of nonnegative int64 values, as ASCII
    bytes right-aligned in a ``(len(column), width)`` array, and the mask of
    the bytes that are digits (every value keeps at least its last one)."""
    width = len(str(int(column.max()))) if len(column) else 1
    digits = np.empty((len(column), width), np.uint8)
    rest = column
    for j in range(width - 1, -1, -1):
        rest, digits[:, j] = np.divmod(rest, 10)
    digits += ord("0")
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return digits, (column[:, None] >= powers) | (powers == 1)


def _text(n: int, text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``text`` in each of ``n`` rows, as :func:`_digits` lays out a field."""
    return np.tile(np.frombuffer(text, np.uint8), (n, 1)), np.ones((n, len(text)), bool)


def _response_lines(students: np.ndarray, items: np.ndarray, scores: np.ndarray) -> bytes:
    """The lines ``"{student},{item},{score}\\r\\n"`` of int64 columns, as
    bytes: each line is laid out in one fixed-width row of a byte matrix,
    and one masked copy drops the positions no digit fills."""
    n = len(scores)
    fields = [_digits(students), _text(n, b","), _digits(items), _text(n, b","),
              _digits(scores), _text(n, b"\r\n")]
    text = np.hstack([chars for chars, _ in fields])
    return text[np.hstack([keep for _, keep in fields])].tobytes()


def write_dataset_csv(dataset: Dataset, responses_path: str, qmatrix_path: str) -> None:
    """Write a dataset in the CSV formats the loaders expect: the bytes
    ``csv.writer`` writes for the integer columns, built by digit arithmetic
    on them."""
    if dataset.qmatrix is None:
        raise ValueError("dataset has no Q-matrix to write")
    os.makedirs(os.path.dirname(os.path.abspath(responses_path)), exist_ok=True)
    columns = (c.astype(np.int64) for c in records_to_arrays(dataset.records))
    rows = _response_lines(*columns)
    with open(responses_path, "wb") as f:
        f.write(b"student_id,item_id,score\r\n")
        f.write(rows)
    with open(qmatrix_path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in dataset.qmatrix.entries:
            writer.writerow([int(v) for v in row])
