import gzip
import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from proxvr.problem import Dataset
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
    # a bad dimension is refused as such, also where no index exceeds it
    for bad in (-5, 2.5, True):
        with pytest.raises(ContractViolation, match="expected_dim must be an integer"):
            read_libsvm(_write(tmp_path, "+1\n-1\n"), expected_dim=bad)
    assert read_libsvm(_write(tmp_path, "+1\n-1\n"), expected_dim=0).d == 0


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
    # n, d and the seed are integers: floats, bools and a negative seed used
    # to fail inside numpy, as a ValueError or a TypeError
    for args, kwargs in (((2.5, 5, 0.5), {}), ((20, 5, 0.5), {"seed": -1}),
                         ((20, True, 0.5), {}), ((0, 5, 0.5), {}), ((20, 5.0, 0.5), {}),
                         ((20, 5, 0.5), {"seed": 1.5})):
        with pytest.raises(ContractViolation):
            synth_dataset(*args, **kwargs)


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


# ---------------------------------------------------------------- pinned bits
#
# sha256 of (indptr, indices, data, labels) as little-endian int64/float64,
# computed with the per-row implementation these functions replaced. The
# benchmark and the tests compare runs on these inputs, so their bits must not
# move.


def _digest(ds):
    h = hashlib.sha256()
    for arr, dtype in ((ds.indptr, "<i8"), (ds.indices, "<i8"), (ds.data, "<f8"),
                       (ds.labels, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def _raw_libsvm_text():
    """40 lines with unsorted indices, explicit zeros, empty rows, {0,1} labels
    and values over six decades."""
    rng = np.random.default_rng(5)
    lines = []
    for _ in range(40):
        k = int(rng.integers(0, 9))
        idx = rng.choice(25, size=k, replace=False) + 1
        vals = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, size=k)
        if k:
            vals[rng.random(k) < 0.1] = 0.0
        lab = int(rng.integers(0, 2))
        lines.append(" ".join([str(lab)] + [f"{j}:{float(v)!r}" for j, v in zip(idx, vals)]))
    return "\n".join(lines) + "\n"


def test_synth_bits_pinned():
    assert _digest(synth_dataset(60, 30, 0.2, seed=1)) == (
        "7f06121c36432902c200138599e5032f88503dce4bc5f2eb3d97a8170b8d5fce")
    assert _digest(synth_dataset(50, 40, 0.1, label_rule="regression", seed=2)) == (
        "a0ac85555a0777b028ad899f79a7796da58faff54054db28aa64aca15ae378e0")
    assert _digest(synth_dataset(500, 2000, 0.01, seed=3)) == (
        "8c3b0932b15dff4f4d14d9188ae6e61fd2cadebcb3234e71ab9fa127bde29e5f")


def test_read_and_normalize_bits_pinned(tmp_path):
    path = _write(tmp_path, _raw_libsvm_text())
    raw = read_libsvm(path)
    assert _digest(raw) == "b55b91445f07854e581017063f36acb8ab9822d78e03681ab3fcc7f0433782c2"
    with pytest.warns(UserWarning):  # the text has empty rows
        out = normalize_rows(raw)
    assert _digest(out) == "10d7b913dfdf2e7ece6e608783ce03879fd34f6965af7ed1aacebffd99bd8810"


# ---------------------------------------------------------------- parser fuzz

_finite = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 12))
    rows = [draw(st.sets(st.integers(0, d - 1), max_size=d)) for _ in range(n)]
    label = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.0]),
                      st.floats(allow_nan=False, allow_infinity=False))
    labels = draw(st.lists(label, min_size=n, max_size=n))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [j for r in rows for j in sorted(r)]
    data = draw(st.lists(_finite, min_size=len(indices), max_size=len(indices)))
    return Dataset(indptr, indices, data, labels, d)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=_datasets(), gz=st.booleans())
def test_libsvm_roundtrip_fuzz(tmp_path, ds, gz):
    path = tmp_path / ("fuzz.svm.gz" if gz else "fuzz.svm")
    write_libsvm(ds, path)
    back = read_libsvm(path, expected_dim=ds.d)
    labels = ds.labels
    if set(labels.tolist()) <= {0.0, 1.0} and 0.0 in labels:
        labels = np.where(labels == 1.0, 1.0, -1.0)
    assert back.n == ds.n and back.d == ds.d
    for name in ("indptr", "indices", "data"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
    assert back.labels.tobytes() == labels.tobytes()
    if ds.indices.size:
        with pytest.raises(ParseError, match="exceeds expected_dim"):
            read_libsvm(path, expected_dim=int(ds.indices.max()))


_FAULTS = {
    "duplicate": ("1 3:1 {j}:2 {j}:4", "duplicate index"),
    "zero-based": ("1 0:1", "not 1-based"),
    "nan": ("1 {j}:nan", "non-finite value"),
    "inf": ("-1 {j}:-inf", "non-finite value"),
    "label": ("x {j}:1", "bad label"),
    "label-inf": ("inf {j}:1", "non-finite label"),
    "entry": ("1 {j}:1 {j}", "bad entry"),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    good=st.lists(st.lists(st.integers(1, 9), max_size=4, unique=True), min_size=1, max_size=6),
    where=st.integers(0, 6),
    fault=st.sampled_from(sorted(_FAULTS)),
    j=st.integers(4, 9),
)
def test_parse_error_reports_line_fuzz(tmp_path, good, where, fault, j):
    lines = ["1 " + " ".join(f"{i}:0.5" for i in row) for row in good]
    where = min(where, len(lines))
    text, message = _FAULTS[fault]
    lines.insert(where, text.format(j=j))
    with pytest.raises(ParseError) as err:
        read_libsvm(_write(tmp_path, "\n".join(lines) + "\n"))
    assert err.value.line == where + 1
    assert message in str(err.value)


def test_read_first_fault_on_a_line_wins(tmp_path):
    # the first bad token decides the message, as in a token-by-token scan
    for text, message in (
        ("1 0:nan 2:x\n", "not 1-based"),
        ("1 2:nan 0:1\n", "non-finite value"),
        ("1 2:x 0:1\n", "bad entry"),
        ("1 0:1 2:1 2:1\n", "not 1-based"),
        ("1 5:1 2:1 5:1 2:3\n", "duplicate index 2"),
    ):
        with pytest.raises(ParseError, match=message):
            read_libsvm(_write(tmp_path, text))


def test_read_rejects_index_beyond_64_bits(tmp_path):
    with pytest.raises(ParseError, match="64 bits") as err:
        read_libsvm(_write(tmp_path, "1 1:1\n1 2:1 99999999999999999999:1\n"), expected_dim=5)
    assert err.value.line == 2
