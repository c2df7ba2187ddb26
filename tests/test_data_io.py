import gzip
import math

import numpy as np
import pytest

from proxvr.data_io import (
    dataset_stats,
    format_stats,
    normalize_rows,
    read_libsvm,
    stats_record,
    synth_dataset,
    write_libsvm,
)
from proxvr.errors import ContractViolation, ParseError
from proxvr.theory import data_sparsity_delta


def _write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_read_basic_line(tmp_path):
    ds = read_libsvm(_write(tmp_path, "+1 3:0.5\n-1 1:2.0 2:-1.0\n"))
    assert ds.n == 2 and ds.d == 3
    ex = ds.examples[0]
    assert ex.b == 1.0
    assert ex.a.indices.tolist() == [2] and ex.a.values.tolist() == [0.5]


def test_read_empty_file_errors(tmp_path):
    with pytest.raises(ParseError):
        read_libsvm(_write(tmp_path, ""))


def test_read_duplicate_index_errors(tmp_path):
    with pytest.raises(ParseError) as err:
        read_libsvm(_write(tmp_path, "+1 2:1.0 2:3.0\n"))
    assert err.value.line == 1


def test_read_malformed_entry_reports_line(tmp_path):
    with pytest.raises(ParseError) as err:
        read_libsvm(_write(tmp_path, "+1 1:1.0\n-1 oops\n"))
    assert err.value.line == 2


def test_read_rejects_non_finite_values_and_labels(tmp_path):
    for text, line in (
        ("1 1:nan 2:1\n-1 1:inf\n", 1),
        ("1 2:1\n-1 1:inf\n", 2),
        ("1 1:-inf\n", 1),
        ("nan 1:1\n", 1),
        ("1 1:1\ninf 2:1\n", 2),
    ):
        with pytest.raises(ParseError) as err:
            read_libsvm(_write(tmp_path, text))
        assert err.value.line == line, text


def test_read_zero_based_index_rejected(tmp_path):
    with pytest.raises(ParseError):
        read_libsvm(_write(tmp_path, "+1 0:1.0\n"))


def test_read_maps_01_labels(tmp_path):
    ds = read_libsvm(_write(tmp_path, "1 1:1.0\n0 2:1.0\n"))
    assert sorted(ex.b for ex in ds.examples) == [-1.0, 1.0]


def test_read_expected_dim(tmp_path):
    ds = read_libsvm(_write(tmp_path, "+1 2:1.0\n"), expected_dim=5)
    assert ds.d == 5
    with pytest.raises(ParseError):
        read_libsvm(_write(tmp_path, "+1 9:1.0\n"), expected_dim=5)


def test_read_drops_explicit_zeros(tmp_path):
    ds = read_libsvm(_write(tmp_path, "+1 1:0.0 2:3.0\n"))
    assert ds.examples[0].a.indices.tolist() == [1]


def test_gzip_roundtrip(tmp_path):
    ds = synth_dataset(20, 5, 0.5, seed=4)
    path = tmp_path / "data.txt.gz"
    write_libsvm(ds, path)
    with gzip.open(path, "rt") as fh:
        assert len(fh.readlines()) == 20
    back = read_libsvm(path, expected_dim=5)
    assert back.n == 20 and back.d == 5
    for a, b in zip(ds.examples, back.examples):
        assert a.b == b.b
        assert np.array_equal(a.a.indices, b.a.indices)
        assert np.array_equal(a.a.values, b.a.values)  # %.17g is lossless


def test_normalize_hand_case(tmp_path):
    ds = read_libsvm(_write(tmp_path, "+1 1:3.0 2:4.0\n"))
    out = normalize_rows(ds)
    assert out.examples[0].a.values.tolist() == [0.6, 0.8]


def test_normalize_idempotent(rng):
    ds = synth_dataset(30, 6, 0.8, seed=1)
    again = normalize_rows(ds)
    for a, b in zip(ds.examples, again.examples):
        assert np.max(np.abs(a.a.values - b.a.values)) <= np.spacing(1.0)


def test_normalize_zero_row_warns(tmp_path):
    text = "+1 1:0.0\n-1 1:2.0\n"  # first row becomes empty after zero-drop
    ds = read_libsvm(_write(tmp_path, text))
    with pytest.warns(UserWarning):
        out = normalize_rows(ds)
    assert out.examples[0].a.nnz == 0


def test_synth_dense_and_exact_delta():
    dense = synth_dataset(100, 10, 1.0, seed=0)
    st = dataset_stats(dense)
    assert st.nnz == 1000 and st.delta == 1.0
    sparse = synth_dataset(100, 12, 0.05, seed=0)
    assert data_sparsity_delta(sparse) == math.ceil(0.05 * 100) / 100
    assert data_sparsity_delta(sparse) == 0.05


def test_synth_deterministic():
    a = synth_dataset(25, 7, 0.4, seed=9)
    b = synth_dataset(25, 7, 0.4, seed=9)
    for ea, eb in zip(a.examples, b.examples):
        assert ea.b == eb.b
        assert np.array_equal(ea.a.indices, eb.a.indices)
        assert np.array_equal(ea.a.values, eb.a.values)


def test_synth_validates_delta():
    with pytest.raises(ContractViolation):
        synth_dataset(10, 3, 0.0)
    with pytest.raises(ContractViolation):
        synth_dataset(10, 3, 1.5)


def test_synth_regression_labels():
    ds = synth_dataset(15, 4, 1.0, label_rule="regression", seed=2)
    assert any(ex.b not in (-1.0, 1.0) for ex in ds.examples)


def test_stats_fields_and_formats():
    ds = synth_dataset(40, 6, 0.5, seed=3)
    st = dataset_stats(ds)
    assert st.n == 40 and st.d == 6
    assert st.delta == data_sparsity_delta(ds)
    assert st.max_row_norm == pytest.approx(1.0, abs=1e-12)
    assert sum(st.label_counts.values()) == 40
    block = format_stats(st)
    assert "n=40" in block and "delta=" in block
    rec = stats_record(st)
    assert rec["n"] == 40 and isinstance(rec["labels"], dict)
