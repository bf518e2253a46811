"""Ingestion, record splitting, and the student-level MIA partition."""

import copy
import csv
import math
import pickle

import numpy as np
import pytest

from cdunlearn import data, synth
from cdunlearn.data import (
    DataFormatError,
    DataValidationError,
    Dataset,
    MiaSplits,
    QMatrix,
    Records,
    RecordSplit,
    ResponseRecord,
    derive_mia_subsets,
    load_qmatrix,
    load_responses,
    partition_students,
    records_to_arrays,
    split_records,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadResponses:
    def test_parses_rows(self, tmp_path):
        lines = ["student_id,item_id,score"]
        lines += [f"{s},{i},{(s + i) % 2}" for s in range(13) for i in range(6)]
        ds = load_responses(_write(tmp_path / "r.csv", "\n".join(lines) + "\n"))
        assert ds.n_students == 13 and ds.n_items == 6
        assert ResponseRecord(12, 5, 1) in ds.records
        assert len(ds.records) == 13 * 6

    def test_math1_shape(self, tmp_path):
        # Large-exam shape: 4,209 students x 20 items = 84,180 records.
        ds = synth.generate_dataset(4209, 20, 11, seed=0)
        synth.write_dataset_csv(ds, str(tmp_path / "r.csv"), str(tmp_path / "q.csv"))
        loaded = load_responses(str(tmp_path / "r.csv"))
        assert len(loaded.records) == 84_180
        assert loaded.n_students == 4_209
        assert loaded.n_items == 20
        qm = load_qmatrix(str(tmp_path / "q.csv"))
        assert qm.entries.shape == (20, 11)

    def test_score_out_of_range(self, tmp_path):
        path = _write(tmp_path / "r.csv", "student_id,item_id,score\n3,2,2\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_responses(path)

    @pytest.mark.parametrize("column", ["student", "item"])
    def test_id_beyond_int64_rejected_naming_the_line(self, tmp_path, column):
        # Unchecked, 2**63 raised a bare OverflowError from the columnizer.
        top = 2**63 - 1
        row = f"{top + 1},1,0" if column == "student" else f"1,{top + 1},0"
        path = _write(tmp_path / "r.csv", f"student_id,item_id,score\n{top},{top},1\n{row}\n")
        with pytest.raises(DataValidationError, match=r"line 3: ids must be in \[0, 2\*\*63 - 1\]"):
            load_responses(path)

    def test_largest_int64_id_loads(self, tmp_path):
        top = 2**63 - 1
        path = _write(tmp_path / "r.csv", f"student_id,item_id,score\n{top},{top},1\n0,0,0\n")
        ds = load_responses(path)
        assert ds.n_students == 2 and ds.n_items == 2
        assert tuple(ds.records) == (ResponseRecord(1, 1, 1), ResponseRecord(0, 0, 0))

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(
            tmp_path / "r.csv", "student_id,item_id,score\n0,0,1\n1,oops,0\n"
        )
        with pytest.raises(DataFormatError, match="line 3"):
            load_responses(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path / "r.csv", "a,b,c\n0,0,1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_responses(path)

    def test_sparse_ids_remapped_dense(self, tmp_path):
        path = _write(
            tmp_path / "r.csv",
            "student_id,item_id,score\n100,7,1\n5,7,0\n100,9,1\n",
        )
        ds = load_responses(path)
        assert ds.n_students == 2 and ds.n_items == 2
        # sorted original-id order: student 5 -> 0, 100 -> 1; item 7 -> 0, 9 -> 1
        assert tuple(ds.records) == (
            ResponseRecord(1, 0, 1),
            ResponseRecord(0, 0, 0),
            ResponseRecord(1, 1, 1),
        )


class TestLoadQMatrix:
    def test_frcsub_shape(self, frcsub_paths):
        qm = load_qmatrix(frcsub_paths[1])
        assert qm.entries.shape == (20, 8)
        assert np.isin(qm.entries, (0.0, 1.0)).all()

    def test_identity(self, tmp_path):
        qm = load_qmatrix(_write(tmp_path / "q.csv", "1,0\n0,1\n"))
        assert np.array_equal(qm.entries, np.eye(2))

    def test_zero_row_rejected(self, tmp_path):
        with pytest.raises(DataValidationError, match="line 2"):
            load_qmatrix(_write(tmp_path / "q.csv", "1,0,1\n0,0,0\n"))

    def test_non_binary_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_qmatrix(_write(tmp_path / "q.csv", "1,2\n0,1\n"))

    def test_qmatrix_size_must_match_items(self, tmp_path):
        ds = synth.generate_dataset(10, 5, 3, seed=0)
        with pytest.raises(DataValidationError):
            ds.with_qmatrix(QMatrix(np.ones((4, 3))))

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_a_copy_keeps_its_entries_read_only(self, frcsub_paths, how):
        qm = load_qmatrix(frcsub_paths[1])
        copied = pickle.loads(pickle.dumps(qm)) if how == "pickle" else copy.deepcopy(qm)
        assert isinstance(copied, QMatrix)
        assert np.array_equal(copied.entries, qm.entries)
        assert not np.shares_memory(copied.entries, qm.entries)
        assert not copied.entries.flags.writeable


class TestSplitRecords:
    def test_ten_records(self, tmp_path):
        ds = synth.generate_dataset(5, 2, 2, seed=1)
        assert len(ds.records) == 10
        split = split_records(ds, (0.6, 0.2, 0.2), seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (6, 2, 2)

    def test_math1_sizes(self):
        ds = synth.generate_dataset(4209, 20, 11, seed=0)
        split = split_records(ds, (0.6, 0.2, 0.2), seed=3)
        assert (len(split.train), len(split.valid), len(split.test)) == (
            50_508,
            16_836,
            16_836,
        )

    def test_partition_is_exact(self, small_dataset):
        split = split_records(small_dataset, seed=2)
        combined = sorted(split.train + split.valid + split.test)
        assert combined == sorted(small_dataset.records)
        assert set(split.train).isdisjoint(split.valid)
        assert set(split.train).isdisjoint(split.test)
        assert set(split.valid).isdisjoint(split.test)

    def test_deterministic(self, small_dataset):
        a = split_records(small_dataset, seed=9)
        b = split_records(small_dataset, seed=9)
        assert a == b
        c = split_records(small_dataset, seed=10)
        assert a != c

    def test_bad_ratios(self, small_dataset):
        with pytest.raises(DataValidationError):
            split_records(small_dataset, (0.5, 0.2, 0.2))
        with pytest.raises(DataValidationError):
            split_records(small_dataset, (0.6, 0.2, -0.2 + 1.4))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_ratio_rejected(self, small_dataset, slot, value):
        ratios = [0.6, 0.2, 0.2]
        ratios[slot] = value
        with pytest.raises(DataValidationError, match="ratios must"):
            split_records(small_dataset, tuple(ratios))

    def test_empty_dataset(self):
        ds = Dataset(records=Records([], [], []), n_students=0, n_items=0)
        with pytest.raises(DataValidationError):
            split_records(ds)


class TestPartitionStudents:
    def test_math1_ratio_10(self):
        ds = synth.generate_dataset(4209, 20, 11, seed=0)
        part = partition_students(ds, 0.10, seed=1)
        assert len(part.forget) == len(part.nm_train) == len(part.nm_eval) == 420
        assert len(part.retain) == 2949
        union = part.forget | part.nm_train | part.nm_eval | part.retain
        assert union == set(range(4209))

    def test_tiny_ratio(self):
        ds = synth.generate_dataset(100, 5, 3, seed=0)
        part = partition_students(ds, 0.01, seed=1)
        sizes = (len(part.forget), len(part.nm_train), len(part.nm_eval), len(part.retain))
        assert sizes == (1, 1, 1, 97)

    def test_ratio_bounds(self, small_dataset):
        with pytest.raises(DataValidationError):
            partition_students(small_dataset, 0.5, seed=0)
        with pytest.raises(DataValidationError):
            partition_students(small_dataset, 0.0, seed=0)

    def test_ratio_selecting_zero_students(self):
        ds = synth.generate_dataset(20, 5, 3, seed=0)
        with pytest.raises(DataValidationError):
            partition_students(ds, 0.01, seed=0)

    def test_size_law_across_ratios(self, small_dataset):
        n = small_dataset.n_students
        for ratio in (0.05, 0.1, 0.2, 1 / 3):
            part = partition_students(small_dataset, ratio, seed=4)
            expected = math.floor(ratio * n + 1e-9)
            assert len(part.forget) == len(part.nm_train) == len(part.nm_eval) == expected

    def test_deterministic(self, small_dataset):
        assert partition_students(small_dataset, 0.1, seed=5) == partition_students(
            small_dataset, 0.1, seed=5
        )


class TestDeriveMiaSubsets:
    @pytest.fixture()
    def parts(self, small_dataset):
        split = split_records(small_dataset, seed=0)
        partition = partition_students(small_dataset, 0.1, seed=1)
        return split, partition, derive_mia_subsets(partition, split)

    def test_totality(self, small_dataset, parts):
        split, partition, mia = parts
        cells = [getattr(mia, f.name) for f in mia.__dataclass_fields__.values()]
        total = sum(len(c) for c in cells)
        assert total == len(small_dataset.records)
        flat = sorted(rec for cell in cells for rec in cell)
        assert flat == sorted(small_dataset.records)

    def test_filter_semantics(self, parts):
        split, partition, mia = parts
        some_forget = next(iter(partition.forget))
        expected = [r for r in split.train if r.student_id == some_forget]
        got = [r for r in mia.forget_train if r.student_id == some_forget]
        assert sorted(expected) == sorted(got)

    def test_test_split_partitioned_over_groups(self, parts):
        split, _, mia = parts
        total = (
            len(mia.forget_test)
            + len(mia.nm_train_test)
            + len(mia.nm_eval_test)
            + len(mia.retain_test)
        )
        assert total == len(split.test)

    def test_purity_of_nonmembers(self, parts):
        _, partition, mia = parts
        training_data = mia.forget_train_valid + mia.retain_train_valid
        nm = partition.nm_train | partition.nm_eval
        assert all(rec.student_id not in nm for rec in training_data)

    def test_retain_students_stay_out_of_attack_groups(self, parts):
        _, partition, mia = parts
        for cell in (
            mia.forget_train,
            mia.forget_valid,
            mia.forget_test,
            mia.nm_train_test,
            mia.nm_eval_test,
        ):
            assert all(rec.student_id not in partition.retain for rec in cell)

    def test_mismatched_dataset_rejected(self, small_dataset):
        split = split_records(small_dataset, seed=0)
        other = synth.generate_dataset(40, 10, 4, seed=3)
        partition = partition_students(other, 0.1, seed=1)
        with pytest.raises(DataValidationError, match="mismatch"):
            derive_mia_subsets(partition, split)


def test_records_to_arrays_roundtrip(small_dataset):
    s, q, y = records_to_arrays(small_dataset.records)
    assert len(s) == len(small_dataset.records)
    k = 17
    assert small_dataset.records[k] == ResponseRecord(int(s[k]), int(q[k]), int(y[k]))


class TestRecordsToArrays:
    def test_tuple_list_generator_agree(self, small_dataset):
        recs = small_dataset.records[:30]
        want = records_to_arrays(recs)
        for form in (list(recs), [tuple(r) for r in recs], (r for r in recs)):
            got = records_to_arrays(form)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert want[0].dtype == np.int64 and want[2].dtype == np.float64

    def test_empty(self):
        for form in ((), [], iter(())):
            s, q, y = records_to_arrays(form)
            assert len(s) == len(q) == len(y) == 0
            assert (s.dtype, q.dtype, y.dtype) == (np.int64, np.int64, np.float64)

    def test_short_record_named(self):
        with pytest.raises(ValueError, match=r"record 0 has 2 fields.*\(0, 1\)"):
            records_to_arrays([(0, 1)])

    def test_balanced_ragged_input_rejected(self):
        # 4 + 2 fields total 6 = 2 * 3: must not be silently realigned
        with pytest.raises(ValueError, match=r"record 0 has 4 fields.*\(0, 1, 1, 5\)"):
            records_to_arrays([(0, 1, 1, 5), (2, 3)])
        with pytest.raises(ValueError, match=r"record 2 has 4 fields"):
            records_to_arrays(iter([(0, 1, 1), (2, 3, 0), (4, 5, 1, 0), (6, 7)]))


class TestRecords:
    def test_columns_validated(self):
        with pytest.raises(ValueError, match="differ in length"):
            Records([0, 1], [0], [1.0, 0.0])
        with pytest.raises(ValueError, match="1-d"):
            Records(np.zeros((2, 2)), [0, 1], [1.0, 0.0])

    def test_values_validated(self):
        # A fractional id would be truncated, a negative one would index the
        # last student's group, and a 0.5 score would iterate as 0.
        for columns, name in (
            (([0.7], [2], [1]), "students"),
            (([np.nan], [2], [1]), "students"),
            (([0], [2.5], [1]), "items"),
            (([-1], [2], [1]), "students"),
            (([0], np.array([-2], dtype=np.int32), [1]), "items"),
            (([0], [2], [0.5]), "scores"),
            (([0], [2], [2]), "scores"),
            (([0], [2], [np.nan]), "scores"),
        ):
            with pytest.raises(ValueError, match=f"record column {name} must hold"):
                Records(*columns)
        assert Records([2.0], np.array([1], dtype=np.uint8), [True]) == Records([2], [1], [1])

    def test_read_only(self):
        students = np.array([3, 1, 2])
        recs = Records(students, [0, 1, 0], [1, 0, 1])
        for col in recs.columns:
            with pytest.raises(ValueError):
                col[0] = 0
        with pytest.raises(AttributeError):
            recs.scores = np.zeros(3)
        students[0] = 9  # the caller's array is not aliased
        assert recs.students[0] == 3
        assert (recs.students.dtype, recs.items.dtype, recs.scores.dtype) == (
            np.int64, np.int64, np.float64,
        )

    def test_iteration_yields_records_of_python_ints(self):
        recs = Records([3, 1], [0, 2], [1.0, 0.0])
        got = list(recs)
        assert got == [ResponseRecord(3, 0, 1), ResponseRecord(1, 2, 0)]
        assert all(type(r) is ResponseRecord for r in got)
        assert all(type(v) is int for r in got for v in r)
        assert all(type(v) is int for v in recs[1]) and recs[-1] == got[1]

    def test_selection(self):
        recs = Records([0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [1, 0, 1, 0, 1])
        assert list(recs[1:3]) == [ResponseRecord(1, 6, 0), ResponseRecord(2, 7, 1)]
        mask = np.array([True, False, False, True, True])
        assert recs[mask] == Records([0, 3, 4], [5, 8, 9], [1, 0, 1])
        assert recs[np.array([4, 0, 4])] == Records([4, 0, 4], [9, 5, 9], [1, 1, 1])
        assert len(recs[:0]) == 0 and not recs[:0]

    def test_concatenation_keeps_order(self):
        a = Records([2, 0], [1, 1], [1, 0])
        b = Records([1], [3], [1])
        assert list(a + b) == list(a) + list(b)
        assert list(b + a) == list(b) + list(a)

    def test_equality(self):
        a = Records([0, 1], [2, 3], [1, 0])
        assert a == Records(np.array([0, 1]), (2, 3), np.array([1.0, 0.0]))
        assert a != Records([0, 1], [2, 3], [1, 1])
        assert a != Records([0], [2], [1])
        assert a != tuple(a)

    def test_records_to_arrays_hands_over_the_columns(self):
        recs = Records([0, 1], [2, 3], [1, 0])
        for got, col in zip(records_to_arrays(recs), recs.columns):
            assert got is col


def test_write_dataset_csv_without_qmatrix_writes_nothing(tmp_path):
    ds = synth.generate_dataset(5, 3, 2, seed=0)
    bare = Dataset(records=ds.records, n_students=5, n_items=3)
    responses, qmatrix = tmp_path / "out" / "r.csv", tmp_path / "out" / "q.csv"
    with pytest.raises(ValueError, match="no Q-matrix"):
        synth.write_dataset_csv(bare, str(responses), str(qmatrix))
    assert not responses.exists() and not qmatrix.exists()


@pytest.mark.parametrize(
    "setting, value",
    [("n_students", 0), ("n_students", -3), ("n_students", 2.5), ("n_items", 0),
     ("n_kcs", 0), ("n_kcs", True), ("student_scale", math.nan), ("item_scale", math.inf),
     ("item_scale", -math.inf), ("density", 0.0), ("density", 1.5), ("density", math.nan),
     ("seed", -1), ("seed", 1.5), ("seed", None)],
)
def test_generate_dataset_rejects_out_of_range_settings(setting, value):
    with pytest.raises(ValueError, match=f"{setting} must be"):
        synth.generate_dataset(**{"n_students": 5, "n_items": 3, "n_kcs": 2, setting: value})


# -- reference implementations: the tuple-of-records pipeline ---------------
def ref_generate_records(n_students, n_items, n_kcs, seed, student_scale=4.4,
                         item_scale=2.6, complete=True, density=1.0):
    rng = np.random.default_rng(seed)
    qrows = synth.generate_qmatrix(n_items, n_kcs, rng).entries
    mastery = rng.standard_normal((n_students, n_kcs))
    difficulty = rng.standard_normal((n_items, n_kcs))
    kc_counts = qrows.sum(axis=1)
    student_part = mastery @ qrows.T / kc_counts
    item_part = (difficulty * qrows).sum(axis=1) / kc_counts
    probs = 1.0 / (1.0 + np.exp(-(student_scale * student_part - item_scale * item_part)))
    scores = (rng.random((n_students, n_items)) < probs).astype(np.int64)
    if complete:
        keep = np.ones((n_students, n_items), dtype=bool)
    else:
        keep = rng.random((n_students, n_items)) < density
        keep[np.flatnonzero(keep.sum(axis=1) == 0), 0] = True
    return tuple(
        ResponseRecord(int(s), int(j), int(scores[s, j]))
        for s in range(n_students)
        for j in range(n_items)
        if keep[s, j]
    )


def ref_remap(raw):
    student_map = {orig: dense for dense, orig in enumerate(sorted({r[0] for r in raw}))}
    item_map = {orig: dense for dense, orig in enumerate(sorted({r[1] for r in raw}))}
    return tuple(ResponseRecord(student_map[s], item_map[i], y) for s, i, y in raw)


def ref_split_records(records, ratios, seed):
    n = len(records)
    n_valid = math.floor(n * ratios[1] + 1e-9)
    n_test = math.floor(n * ratios[2] + 1e-9)
    n_train = n - n_valid - n_test
    shuffled = [records[i] for i in np.random.default_rng(seed).permutation(n)]
    return {
        "train": tuple(shuffled[:n_train]),
        "valid": tuple(shuffled[n_train : n_train + n_valid]),
        "test": tuple(shuffled[n_train + n_valid :]),
    }


def ref_derive_mia_subsets(partition, split):
    group_of = {s: g for g in ("forget", "nm_train", "nm_eval", "retain")
                for s in getattr(partition, g)}
    buckets = {f"{g}_{s}": [] for g in ("forget", "nm_train", "nm_eval", "retain")
               for s in ("train", "valid", "test")}
    for split_name, records in split.items():
        for rec in records:
            buckets[f"{group_of[rec.student_id]}_{split_name}"].append(rec)
    return {name: tuple(recs) for name, recs in buckets.items()}


def ref_load_responses(path):
    """The row-by-row loader, as it was before the np.loadtxt path."""
    expected = ["student_id", "item_id", "score"]
    raw = []
    with open(path, newline="") as handle:
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
            if not (0 <= sid < 2**63 and 0 <= iid < 2**63):
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
    raw_students, raw_items, scores = records_to_arrays(raw)
    student_ids, students = np.unique(raw_students, return_inverse=True)
    item_ids, items = np.unique(raw_items, return_inverse=True)
    return Dataset(Records(students, items, scores), len(student_ids), len(item_ids))


ORACLE_SHAPES = {
    "paper-536x20x8": dict(n_students=536, n_items=20, n_kcs=8, seed=7),
    "sparse-1500x40": dict(n_students=1500, n_items=40, n_kcs=6, seed=3,
                           complete=False, density=0.4),
}


@pytest.mark.parametrize("shape", sorted(ORACLE_SHAPES))
class TestColumnarMatchesTupleReference:
    """The columnar pipeline gives the tuple pipeline's records, in its order."""

    def test_generate(self, shape):
        kwargs = ORACLE_SHAPES[shape]
        ds = synth.generate_dataset(student_scale=4.4, item_scale=2.6, **kwargs)
        assert tuple(ds.records) == ref_generate_records(**kwargs)

    def test_load_remaps_sparse_ids(self, shape, tmp_path):
        ds = synth.generate_dataset(**ORACLE_SHAPES[shape])
        order = np.random.default_rng(0).permutation(len(ds.records))
        raw = [(s * 7 + 100, i * 3 + 5, y) for s, i, y in ds.records[order]]
        path = tmp_path / "r.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows([("student_id", "item_id", "score"), *raw])
        loaded = load_responses(str(path))
        want = ref_remap(raw)
        assert tuple(loaded.records) == want
        assert (loaded.n_students, loaded.n_items) == (ds.n_students, ds.n_items)

    def test_split_and_mia_subsets(self, shape):
        ds = synth.generate_dataset(**ORACLE_SHAPES[shape])
        for seed in (0, 5):
            split = split_records(ds, (0.6, 0.2, 0.2), seed=seed)
            want_split = ref_split_records(tuple(ds.records), (0.6, 0.2, 0.2), seed)
            assert isinstance(split, RecordSplit)
            for name, want in want_split.items():
                assert tuple(getattr(split, name)) == want
            partition = partition_students(ds, 0.1, seed=seed + 1)
            got = derive_mia_subsets(partition, split)
            assert isinstance(got, MiaSplits)
            for name, want in ref_derive_mia_subsets(partition, want_split).items():
                cell = getattr(got, name)
                assert isinstance(cell, Records) and tuple(cell) == want, name


HEADER = b"student_id,item_id,score"
TOP = 2**63 - 1

# Plain files, which take the np.loadtxt path.
PLAIN = {
    "lf": HEADER + b"\n3,0,1\n1,2,0\n3,2,1\n",
    "crlf": HEADER + b"\r\n3,0,1\r\n1,2,0\r\n3,2,1\r\n",
    "no-final-newline": HEADER + b"\n3,0,1\n1,2,0",
    "blank-lines": HEADER + b"\n\n3,0,1\n\n\n1,2,0\r\n\r\n3,2,1\n\n",
    "leading-zeros": HEADER + b"\n0003,00,1\n01,002,00\n",
    "largest-int64-ids": HEADER + b"\n%d,%d,1\n0,0,0\n%d,0,1\n" % (TOP, TOP, TOP),
    "sparse-ids": HEADER + b"\n100,7,1\n5,7,0\n100,9,1\n900000000000,7,1\n",
    "one-row": HEADER + b"\r\n7,8,0",
}
# Files that only the row loop accepts.
ROW_LOOP_ONLY = {
    "space": HEADER + b"\n3,0, 1\n1,2,0\n",
    "plus": HEADER + b"\n3,0,+1\n1,2,0\n",
    "quoted": HEADER + b'\n3,0,"1"\n1,2,0\n',
    "underscore": HEADER + b"\n1_0,0,1\n1,2,0\n",
    "bare-cr-mid-file": HEADER + b"\n3,0,1\r1,2,0\n3,2,1\n",
    "bare-cr-at-end": HEADER + b"\n3,0,1\n1,2,0\r",
    "header-case": b"Student_ID,item_id,SCORE\n3,0,1\n1,2,0\n",
    "header-case-and-spacing": b"Student_ID, item_id,SCORE\n3,0,1\n1,2,0\n",
}
# Files that both paths reject.
REJECTED = {
    "score-2": HEADER + b"\n3,0,1\n3,2,2\n",
    "two-columns": HEADER + b"\n3,0\n1,2\n",
    "four-columns": HEADER + b"\n3,0,1,1\n1,2,0,0\n",
    "trailing-comma": HEADER + b"\n3,0,1\n1,2,0,\n",
    "empty-field": HEADER + b"\n3,0,1\n1,,0\n",
    "oops": HEADER + b"\n0,0,1\n1,oops,0\n",
    "id-2**63": HEADER + b"\n%d,0,1\n%d,0,1\n" % (TOP, TOP + 1),
    "header-only": HEADER + b"\n",
    "header-and-blank-lines": HEADER + b"\n\n\r\n\n",
    "empty-file": b"",
    "bad-header": b"a,b,c\n0,0,1\n",
}


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return type(exc), str(exc)


class TestLoaderMatchesTheRowLoop:
    """``load_responses`` gives the row loop's dataset, or raises its
    exception with its message, and only plain files skip the row loop."""

    @pytest.mark.parametrize(
        "name, content, plain",
        [pytest.param(name, content, name in PLAIN, id=name)
         for name, content in {**PLAIN, **ROW_LOOP_ONLY, **REJECTED}.items()],
    )
    def test_corpus(self, tmp_path, monkeypatch, name, content, plain):
        path = tmp_path / "responses.csv"
        path.write_bytes(content)
        want = _outcome(ref_load_responses, str(path))
        parse, row_loops = data._parse_rows, []

        def parse_rows(*args):
            row_loops.append(name)
            return parse(*args)

        monkeypatch.setattr(data, "_parse_rows", parse_rows)
        got = _outcome(load_responses, str(path))
        assert bool(row_loops) is not plain
        assert isinstance(want, Dataset) is (name not in REJECTED)
        assert got == want
        if isinstance(want, Dataset):
            assert [c.dtype for c in got.records.columns] == [np.int64, np.int64, np.float64]

    def test_math1_shape_is_plain(self, tmp_path, monkeypatch):
        ds = synth.generate_dataset(4209, 20, 11, seed=0)
        synth.write_dataset_csv(ds, str(tmp_path / "r.csv"), str(tmp_path / "q.csv"))
        monkeypatch.setattr(data, "_parse_rows", None)  # a call would raise
        loaded = load_responses(str(tmp_path / "r.csv"))
        assert loaded == Dataset(ds.records, ds.n_students, ds.n_items)


def _csv_writer_bytes(dataset, tmp_path):
    responses, qmatrix = tmp_path / "ref-r.csv", tmp_path / "ref-q.csv"
    with open(responses, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["student_id", "item_id", "score"])
        writer.writerows(zip(*(c.astype(int).tolist() for c in dataset.records.columns)))
    with open(qmatrix, "w", newline="") as f:
        csv.writer(f).writerows([int(v) for v in row] for row in dataset.qmatrix.entries)
    return responses.read_bytes(), qmatrix.read_bytes()


EDGE_IDS = [0, 9, 10, 99, 100, TOP]


@pytest.mark.parametrize("shape", [*sorted(ORACLE_SHAPES), "sparse-ids", "edge-ids", "one-row"])
def test_write_dataset_csv_writes_the_bytes_of_csv_writer(tmp_path, shape):
    qmatrix = synth.generate_qmatrix(3, 2, np.random.default_rng(0))
    if shape == "edge-ids":  # every digit count's first and last id, both ways round
        records = Records(EDGE_IDS, EDGE_IDS[::-1], [0, 1, 1, 0, 1, 0])
        dataset = Dataset(records, TOP, TOP, qmatrix)
    elif shape == "one-row":
        dataset = Dataset(Records([7], [0], [1]), 8, 1, qmatrix)
    elif shape == "sparse-ids":
        base = synth.generate_dataset(**ORACLE_SHAPES["sparse-1500x40"])
        s, q, y = base.records.columns
        records = Records(s * 7919 + 3, q * 3 + 5, y)[::-1] + Records([TOP], [TOP], [1])
        dataset = Dataset(records, base.n_students + 1, base.n_items + 1, base.qmatrix)
    else:
        dataset = synth.generate_dataset(**ORACLE_SHAPES[shape])
    synth.write_dataset_csv(dataset, str(tmp_path / "r.csv"), str(tmp_path / "q.csv"))
    got = (tmp_path / "r.csv").read_bytes(), (tmp_path / "q.csv").read_bytes()
    assert got == _csv_writer_bytes(dataset, tmp_path)
