"""The field kernels of linalg against the table-lookup reference.

The RREF of a matrix is unique, so each kernel must return exactly what the
reference returns: the same R (as int16 codes), rank and pivot columns, and
the same bases built from them.  Matrices are dense, sparse or of low rank,
with 0 to 64 rows and columns, over prime fields, extension fields of
characteristic 2 and 3, and the largest fields supported (q = 509, 512).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from permchain.errors import NotSubspace
from permchain.ffield import GF
from permchain.linalg import (
    FqMatrix,
    _exact_bound,
    complete_to_basis,
    image_basis,
    kernel_basis,
    quotient_space,
    rref,
    solve_matrix,
)

F2 = GF(2)
F509 = GF(509)
FIELDS = [F2, GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2), F509, GF(2, 9)]
KINDS = ("dense", "sparse", "low-rank")
DIMS = st.integers(0, 64)
EXAMPLES = settings(max_examples=150, deadline=None)


def _codes(f, rows, cols, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "low-rank":
        k = int(rng.integers(0, 4))
        A = FqMatrix(f, rng.integers(0, f.q, (rows, k)))
        B = FqMatrix(f, rng.integers(0, f.q, (k, cols)))
        return ref.matmul(A, B).a
    codes = rng.integers(0, f.q, (rows, cols))
    if kind == "sparse":
        codes *= rng.random((rows, cols)) < 0.1
    return codes


@st.composite
def matrix(draw, field=None, rows=None, cols=None):
    f = field or draw(st.sampled_from(FIELDS))
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    seed = draw(st.integers(0, 2**32 - 1))
    return FqMatrix(f, _codes(f, rows, cols, seed, draw(st.sampled_from(KINDS))))


@st.composite
def product(draw):
    A = draw(matrix())
    return A, draw(matrix(field=A.field, rows=A.cols))


@EXAMPLES
@given(matrix())
def test_rref_matches_reference(M):
    before = M.copy()
    R, rk, pivots = rref(M)
    R0, rk0, pivots0 = ref.rref(M)
    assert M == before
    assert R.a.dtype == np.int16
    assert (R, rk, pivots) == (R0, rk0, pivots0)


@pytest.mark.parametrize("kind", KINDS)
def test_rref_f2_wide_strips(kind):
    """With 128 or more nonzero rows the F2 kernel reduces 7 or 8 columns
    per strip."""
    for rows, cols, seed in [(130, 70, 1), (300, 200, 2)]:
        M = FqMatrix(F2, _codes(F2, rows, cols, seed, kind))
        assert rref(M) == ref.rref(M)


@EXAMPLES
@given(product())
def test_matmul_matches_reference(AB):
    A, B = AB
    C = A @ B
    assert C.a.dtype == np.int16
    assert C == ref.matmul(A, B)


@EXAMPLES
@given(matrix())
def test_kernel_and_image_match_reference(M):
    assert kernel_basis(M) == ref.kernel_basis(M)
    assert image_basis(M) == ref.image_basis(M)


@EXAMPLES
@given(product(), st.booleans())
def test_solve_matrix_matches_reference(MX, consistent):
    M, X = MX
    B = ref.matmul(M, X) if consistent else FqMatrix(M.field, np.roll(M.a, 1, axis=0))
    got, want = solve_matrix(M, B), ref.solve_matrix(M, B)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want
    if consistent:
        assert got is not None


@EXAMPLES
@given(matrix(), st.integers(0, 2**32 - 1), st.booleans())
def test_quotient_space_matches_reference(M, seed, inside):
    V = ref.image_basis(M)
    f = V.field
    if inside:
        W = ref.matmul(V, FqMatrix(f, _codes(f, V.cols, seed % 6, seed, "dense")))
    else:
        W = FqMatrix(f, _codes(f, V.rows, 1 + seed % 3, seed, "dense"))
    try:
        want = ref.quotient_space(V, W)
    except NotSubspace:
        with pytest.raises(NotSubspace):
            quotient_space(V, W)
        return
    assert quotient_space(V, W) == want


@EXAMPLES
@given(matrix())
def test_complete_to_basis_matches_reference(B):
    assert complete_to_basis(B) == ref.complete_to_basis(B)


def test_product_exact_at_top_of_range():
    """Every entry p - 1 with p = 509 and k = 512 terms: each sum is
    512 * 508^2, and 512 = 3 mod 509."""
    A = FqMatrix(F509, np.full((64, 512), 508))
    B = FqMatrix(F509, np.full((512, 48), 508))
    C = A @ B
    assert C == ref.matmul(A, B)
    assert (C.a == 3).all()


@pytest.mark.parametrize("k", [65, 66])
def test_product_exact_either_side_of_float32(k):
    """Sums of k terms 508^2 over F509: below 2^24 for k = 65 (float32),
    above it for k = 66 (float64)."""
    A = FqMatrix(F509, np.full((3, k), 508))
    B = FqMatrix(F509, np.full((k, 2), 508))
    assert (k * 508**2 < 2**24) == (k == 65)
    assert A @ B == ref.matmul(A, B)


def test_inexact_product_raises():
    assert _exact_bound(512, F509) == 512 * 508**2
    assert _exact_bound(4, GF(2, 9)) == 9 * 4
    k = 2**53 // 508**2  # the largest k with k * 508^2 < 2^53
    assert _exact_bound(k, F509) < 2**53
    with pytest.raises(OverflowError):
        _exact_bound(k + 1, F509)
