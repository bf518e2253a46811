"""Response-log and Q-matrix ingestion, record splitting, and the student-level
partition that drives unlearning and membership-inference evaluation.

File formats
------------
``responses.csv``
    Header ``student_id,item_id,score``, one record per row. Scores are binary.
    Ids may be any nonnegative integers; they are remapped to dense 0-based
    indices (sorted original-id order) so that embedding tables stay compact.

``qmatrix.csv``
    No header. J rows of K comma-separated 0/1 values; row j lists the
    knowledge components required by item j. When a Q-matrix is attached to a
    dataset, row j must correspond to the j-th smallest original item id.

All functions here are pure: given the same inputs and seed they return the
same value, and nothing is mutated.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DataFormatError",
    "DataValidationError",
    "ResponseRecord",
    "Records",
    "QMatrix",
    "Dataset",
    "RecordSplit",
    "StudentPartition",
    "MiaSplits",
    "load_responses",
    "load_qmatrix",
    "split_records",
    "partition_students",
    "derive_mia_subsets",
    "records_to_arrays",
]


class DataFormatError(ValueError):
    """A file could not be parsed (bad header, wrong column count, non-integer)."""


class DataValidationError(ValueError):
    """A parsed value violates a domain constraint (score range, zero Q-row, ...)."""


class ResponseRecord(NamedTuple):
    """One graded interaction: student ``student_id`` answered item ``item_id``
    and scored 0 (incorrect) or 1 (correct)."""

    student_id: int
    item_id: int
    score: int


@dataclass(frozen=True, eq=False)
class Records:
    """Response records held column-wise and read-only: int64 ``students`` and
    ``items``, float64 ``scores``. Every function that takes records accepts a
    ``Records`` or any sequence of ``(student_id, item_id, score)`` records.

    Ids must be nonnegative integers and scores 0 or 1; anything else raises
    ``ValueError`` naming the column. An id column of a non-integer dtype is
    accepted when each value is a whole number.

    ``len``, ``+`` (concatenation in order) and equality work on the values.
    An integer index gives one :class:`ResponseRecord`; a slice, boolean mask
    or index array gives a ``Records``. Iteration yields ``ResponseRecord`` s
    of Python ints.
    """

    students: np.ndarray
    items: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("students", np.int64), ("items", np.int64), ("scores", np.float64)):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):  # a NaN id is rejected just below
                col = given.astype(dtype, copy=False)
            if col.ndim != 1:
                raise ValueError(f"record column {name} must be 1-d, got shape {col.shape}")
            # Counts and reductions: no column-sized mask is built unless a check fails.
            if name == "scores":
                want = "0 or 1"
                n_bad = len(col) - np.count_nonzero(col == 0) - np.count_nonzero(col == 1)
            else:
                want = "nonnegative integer ids"
                n_bad = len(col) and int(col.min() < 0)
                if given.dtype.kind not in "biu":
                    n_bad = n_bad or not np.array_equal(col, given)
            if n_bad:
                bad = (col != 0) & (col != 1) if name == "scores" else (col < 0) | (col != given)
                first = given[bad].tolist()[0]
                raise ValueError(f"record column {name} must hold {want}, got {first!r}")
            if col.flags.writeable:  # never alias an array the caller can still write
                col = col.copy()
                col.setflags(write=False)
            object.__setattr__(self, name, col)
        if len(set(map(len, self.columns))) != 1:
            raise ValueError(f"record columns differ in length: {list(map(len, self.columns))}")

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.students, self.items, self.scores

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        # tuple.__new__ is ResponseRecord._make without its per-record length check
        cols = zip(self.students.tolist(), self.items.tolist(), self.scores.astype(int).tolist())
        return map(tuple.__new__, itertools.repeat(ResponseRecord), cols)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return ResponseRecord(*(int(c[key]) for c in self.columns))
        return Records(self.students[key], self.items[key], self.scores[key])

    def __add__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return Records(*(np.concatenate(pair) for pair in zip(self.columns, other.columns)))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))


@dataclass(frozen=True)
class QMatrix:
    """Expert item-to-knowledge-component binary matrix, shape (n_items, n_kcs)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise DataValidationError("Q-matrix must be a nonempty 2-d array")
        if not np.isin(arr, (0.0, 1.0)).all():
            raise DataValidationError("Q-matrix entries must all be 0 or 1")
        zero_rows = np.flatnonzero(arr.sum(axis=1) == 0)
        if zero_rows.size:
            raise DataValidationError(
                f"Q-matrix row(s) {zero_rows.tolist()} have no knowledge component"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __reduce__(self):
        # Through the constructor, so that a pickle or deep copy stays read-only.
        return QMatrix, (self.entries,)

    @property
    def n_items(self) -> int:
        return self.entries.shape[0]

    @property
    def n_kcs(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A full response log with its dimensions and (optionally) its Q-matrix."""

    records: Records
    n_students: int
    n_items: int
    qmatrix: QMatrix | None = None

    def with_qmatrix(self, qmatrix: QMatrix) -> "Dataset":
        """Attach a Q-matrix; its row count must match this dataset's item count."""
        if qmatrix.n_items != self.n_items:
            raise DataValidationError(
                f"Q-matrix has {qmatrix.n_items} rows but dataset has "
                f"{self.n_items} items"
            )
        return replace(self, qmatrix=qmatrix)


@dataclass(frozen=True)
class RecordSplit:
    """Disjoint train/valid/test record lists whose union is the input records."""

    train: Records
    valid: Records
    test: Records


@dataclass(frozen=True)
class StudentPartition:
    """Student-level grouping: three equal-size random draws (forget,
    non-member-train, non-member-eval) and the remaining retain students."""

    forget: frozenset[int]
    nm_train: frozenset[int]
    nm_eval: frozenset[int]
    retain: frozenset[int]
    ratio: float
    n_students: int


@dataclass(frozen=True)
class MiaSplits:
    """Records per (student group, record split) cell.

    Every record of the originating dataset lands in exactly one field.
    """

    forget_train: Records
    forget_valid: Records
    forget_test: Records
    nm_train_train: Records
    nm_train_valid: Records
    nm_train_test: Records
    nm_eval_train: Records
    nm_eval_valid: Records
    nm_eval_test: Records
    retain_train: Records
    retain_valid: Records
    retain_test: Records

    @property
    def forget_train_valid(self) -> Records:
        """Everything the original model saw from the forget students."""
        return self.forget_train + self.forget_valid

    @property
    def retain_train_valid(self) -> Records:
        """Everything the retrained model is allowed to see."""
        return self.retain_train + self.retain_valid


_HEADER = b"student_id,item_id,score"


def load_responses(path: str) -> Dataset:
    """Parse a response CSV into a :class:`Dataset` with dense 0-based ids.

    Record order follows file order. Raises :class:`DataFormatError` with the
    offending line number on parse failures and :class:`DataValidationError`
    for out-of-range scores or ids (an id must fit in int64).

    The file is read once. A plain file (header exactly
    ``student_id,item_id,score``, then ASCII digits and commas in at least one
    data line, with ``\n`` or ``\r\n`` line ends) is parsed by one
    ``np.loadtxt`` call. Every other file, and a plain one which that call or
    the score check turns down, is parsed row by row. Only the row loop
    accepts other spellings (spaces, signs, quotes, ``\r`` line ends, a header
    in other case or spacing) and only it words the errors, so both paths give
    the same records and raise the same errors.
    """
    with open(path, "rb") as handle:
        content = handle.read()
    table = _plain_table(content)
    if table is None:
        raw_students, raw_items, scores = _parse_rows(path, content)
    else:
        raw_students, raw_items, scores = table[:, 0], table[:, 1], table[:, 2].astype(np.float64)
    student_ids, students = np.unique(raw_students, return_inverse=True)
    item_ids, items = np.unique(raw_items, return_inverse=True)
    return Dataset(Records(students, items, scores), len(student_ids), len(item_ids))


def _plain_table(content: bytes) -> np.ndarray | None:
    """The (n, 3) int64 table of a plain response file, or None for any other."""
    header, _, body = content.partition(b"\n")
    if header.removesuffix(b"\r") != _HEADER or not body.strip(b"\r\n"):
        return None  # loadtxt warns on a body without a data line
    if body.translate(None, b"0123456789,\r\n") or body.count(b"\r") != body.count(b"\r\n"):
        return None
    try:
        table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 3 or table[:, 2].max() > 1:  # digits only: no value is negative
        return None
    return table


def _parse_rows(path: str, content: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns of the response file ``content``, parsed row by row as text."""
    expected = ["student_id", "item_id", "score"]
    raw: list[tuple[int, int, int]] = []
    # The text layer of ``open(path, newline="")``: same encoding, same line ends.
    with io.TextIOWrapper(io.BytesIO(content), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [c.strip().lower() for c in header] != expected:
            raise DataFormatError(
                f"{path}: line 1: expected header {','.join(expected)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected 3 columns, got {len(row)}"
                )
            try:
                sid, iid, score = (int(c.strip()) for c in row)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-integer value in {row!r}"
                ) from None
            if not (0 <= sid < 2**63 and 0 <= iid < 2**63):  # ids are held as int64
                raise DataValidationError(
                    f"{path}: line {lineno}: ids must be in [0, 2**63 - 1]"
                )
            if score not in (0, 1):
                raise DataValidationError(
                    f"{path}: line {lineno}: score must be 0 or 1, got {score}"
                )
            raw.append((sid, iid, score))
    if not raw:
        raise DataValidationError(f"{path}: no records")
    return records_to_arrays(raw)


def load_qmatrix(path: str) -> QMatrix:
    """Parse a headerless binary CSV into a validated :class:`QMatrix`."""
    rows: list[list[float]] = []
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            try:
                values = [int(c.strip()) for c in row]
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-integer value in {row!r}"
                ) from None
            if any(v not in (0, 1) for v in values):
                raise DataValidationError(
                    f"{path}: line {lineno}: entries must be 0 or 1"
                )
            if rows and len(values) != len(rows[0]):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, "
                    f"got {len(values)}"
                )
            if sum(values) == 0:
                raise DataValidationError(
                    f"{path}: line {lineno}: item row has no knowledge component"
                )
            rows.append([float(v) for v in values])
    if not rows:
        raise DataValidationError(f"{path}: empty Q-matrix")
    return QMatrix(np.array(rows, dtype=np.float64))


def _floor_share(n: int, ratio: float) -> int:
    # The 1e-9 guard keeps decimal ratios (0.2, 0.1, ...) at their intended
    # integer shares despite binary representation error.
    return int(math.floor(n * ratio + 1e-9))


def split_records(
    dataset: Dataset,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> RecordSplit:
    """Shuffle and split records into train/valid/test.

    Valid and test sizes are floor allocations of their ratios; leftover rows
    go to train. Deterministic for a fixed (dataset, seed).
    """
    if not dataset.records:
        raise DataValidationError("cannot split an empty dataset")
    if not all(r > 0 for r in ratios):  # NaN fails ``r > 0`` too
        raise DataValidationError(f"ratios must be positive, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise DataValidationError(f"ratios must sum to 1, got {ratios}")
    n = len(dataset.records)
    n_valid = _floor_share(n, ratios[1])
    n_test = _floor_share(n, ratios[2])
    n_train = n - n_valid - n_test
    shuffled = dataset.records[np.random.default_rng(seed).permutation(n)]
    return RecordSplit(
        train=shuffled[:n_train],
        valid=shuffled[n_train : n_train + n_valid],
        test=shuffled[n_train + n_valid :],
    )


def partition_students(dataset: Dataset, ratio: float, seed: int = 0) -> StudentPartition:
    """Draw three disjoint equal-size student groups of ``floor(ratio * I)``
    students each (forget, non-member-train, non-member-eval); the rest retain.

    ``ratio`` must lie in (0, 1/3] so that the three draws fit.
    """
    if not (0.0 < ratio <= 1.0 / 3.0 + 1e-12):
        raise DataValidationError(f"ratio must be in (0, 1/3], got {ratio}")
    size = _floor_share(dataset.n_students, ratio)
    if size < 1:
        raise DataValidationError(
            f"ratio {ratio} selects zero students out of {dataset.n_students}"
        )
    perm = np.random.default_rng(seed).permutation(dataset.n_students).tolist()
    forget, nm_train, nm_eval = (frozenset(perm[i * size : (i + 1) * size]) for i in range(3))
    retain = frozenset(perm[3 * size :])
    return StudentPartition(forget, nm_train, nm_eval, retain, ratio, dataset.n_students)


_GROUPS = ("forget", "nm_train", "nm_eval", "retain")


def derive_mia_subsets(partition: StudentPartition, split: RecordSplit) -> MiaSplits:
    """Bucket every record of ``split`` by its student's group.

    Raises if the split references students outside the partition (the two must
    come from the same dataset).
    """
    n = partition.n_students
    group_of = np.full(n, _GROUPS.index("retain"), dtype=np.int64)
    for gi, name in enumerate(_GROUPS[:-1]):
        group_of[np.fromiter(getattr(partition, name), np.int64)] = gi

    seen = np.zeros(n, dtype=bool)
    cells: dict[str, Records] = {}
    for split_name in ("train", "valid", "test"):
        records = getattr(split, split_name)
        outside = np.flatnonzero(records.students >= n)
        if outside.size:
            raise DataValidationError(
                f"record student {records.students[outside[0]]} outside partition of "
                f"{n} students; mismatched dataset?"
            )
        seen[records.students] = True
        groups = group_of[records.students]
        for gi, group in enumerate(_GROUPS):
            cells[f"{group}_{split_name}"] = records[groups == gi]
    if seen.sum() != n:
        raise DataValidationError(
            f"split covers {seen.sum()} students but partition has {n}; "
            "mismatched dataset?"
        )
    return MiaSplits(**cells)


def records_to_arrays(
    records: Records | Sequence[ResponseRecord] | Iterable[ResponseRecord],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnize records into (student, item, score) arrays for vectorized math.

    A :class:`Records` hands over its own read-only columns. Any other
    sequence or iterable of 3-field records is columnized; ``ValueError``
    names the first record that does not have exactly three fields. Their
    values are not checked: they are cast to int64 as they come (a
    non-integer id is truncated), which keeps this path at one pass and exact
    for ids above 2**53. Wrap records from outside the program in a
    :class:`Records` to have them checked.
    """
    if isinstance(records, Records):
        return records.columns
    recs = records if isinstance(records, (list, tuple)) else list(records)
    if set(map(len, recs)) - {3}:
        i, bad = next((i, r) for i, r in enumerate(recs) if len(r) != 3)
        raise ValueError(f"record {i} has {len(bad)} fields, expected 3: {bad!r}")
    flat = np.fromiter(itertools.chain.from_iterable(recs), np.int64, count=3 * len(recs))
    return flat[0::3], flat[1::3], flat[2::3].astype(np.float64)
