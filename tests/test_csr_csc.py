"""Unit tests for the CSR and CSC formats and their conversions."""

import numpy as np
import pytest

from repro.sparsela import PatternCOO, PatternCSC, PatternCSR


@pytest.fixture()
def dense(rng):
    return (rng.random((9, 13)) < 0.25).astype(int)


def test_csr_from_dense_roundtrip(dense):
    m = PatternCSR.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)


def test_csc_from_dense_roundtrip(dense):
    m = PatternCSC.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)


def test_csr_to_csc_same_matrix(dense):
    csr = PatternCSR.from_dense(dense)
    csc = csr.to_csc()
    assert np.array_equal(csc.to_dense(), dense)
    assert isinstance(csc, PatternCSC)


def test_csc_to_csr_same_matrix(dense):
    csc = PatternCSC.from_dense(dense)
    csr = csc.to_csr()
    assert np.array_equal(csr.to_dense(), dense)
    assert isinstance(csr, PatternCSR)


def test_coo_roundtrip(dense):
    csr = PatternCSR.from_dense(dense)
    assert csr.to_coo() == PatternCOO.from_dense(dense)
    csc = PatternCSC.from_dense(dense)
    assert csc.to_coo() == PatternCOO.from_dense(dense)


def test_csr_transpose(dense):
    m = PatternCSR.from_dense(dense)
    t = m.transpose()
    assert isinstance(t, PatternCSR)
    assert np.array_equal(t.to_dense(), dense.T)
    assert np.array_equal(m.T.T.to_dense(), dense)


def test_csc_transpose(dense):
    m = PatternCSC.from_dense(dense)
    t = m.transpose()
    assert isinstance(t, PatternCSC)
    assert np.array_equal(t.to_dense(), dense.T)


def test_csr_row_access(dense):
    m = PatternCSR.from_dense(dense)
    for i in range(dense.shape[0]):
        assert m.row(i).tolist() == list(np.nonzero(dense[i])[0])


def test_csc_col_access(dense):
    m = PatternCSC.from_dense(dense)
    for j in range(dense.shape[1]):
        assert m.col(j).tolist() == list(np.nonzero(dense[:, j])[0])


def test_degree_naming_consistency(dense):
    csr = PatternCSR.from_dense(dense)
    csc = PatternCSC.from_dense(dense)
    assert np.array_equal(csr.row_degrees(), dense.sum(axis=1))
    assert np.array_equal(csr.col_degrees(), dense.sum(axis=0))
    assert np.array_equal(csc.row_degrees(), dense.sum(axis=1))
    assert np.array_equal(csc.col_degrees(), dense.sum(axis=0))


def test_empty_shapes():
    csr = PatternCSR.empty((4, 6))
    csc = PatternCSC.empty((4, 6))
    assert csr.nnz == 0 and csc.nnz == 0
    assert len(csr.indptr) == 5 and len(csc.indptr) == 7


def test_mask_entries_csr(dense):
    m = PatternCSR.from_dense(dense)
    keep = np.zeros(m.nnz, dtype=bool)
    keep[::2] = True
    masked = m.mask_entries(keep)
    assert masked.nnz == int(keep.sum())
    assert masked.shape == m.shape
    # every surviving entry existed before
    assert np.logical_and(masked.to_dense(), ~m.to_dense().astype(bool)).sum() == 0


def test_mask_entries_csc(dense):
    m = PatternCSC.from_dense(dense)
    keep = np.ones(m.nnz, dtype=bool)
    keep[0] = False
    masked = m.mask_entries(keep)
    assert masked.nnz == m.nnz - 1


def test_mask_entries_wrong_length_rejected(dense):
    m = PatternCSR.from_dense(dense)
    with pytest.raises(ValueError, match="parallel"):
        m.mask_entries(np.ones(m.nnz + 1, dtype=bool))


def test_mask_all_false_gives_empty(dense):
    m = PatternCSR.from_dense(dense)
    masked = m.mask_entries(np.zeros(m.nnz, dtype=bool))
    assert masked.nnz == 0
    assert masked.to_dense().sum() == 0
