"""The field kernels of linalg against the table-lookup reference.

The RREF of a matrix is unique, so each kernel must return exactly what the
reference returns: the same R (as int16 codes), rank and pivot columns, and
the same bases built from them.  Matrices are dense, sparse or of low rank,
with 0 to 64 rows and columns, over prime fields, extension fields of
characteristic 2 and 3, and the largest fields supported (q = 509, 512).
Over the extension fields some matrices have every code in the prime
subfield, which linalg reduces and multiplies with the F_p kernels, and
some have one code planted outside it, which sends them back to the F_q
kernels.
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
    _mod_p,
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
EXTENSIONS = [f for f in FIELDS if f.n > 1]
KINDS = ("dense", "sparse", "low-rank")
SUBFIELD_KINDS = ("subfield", "subfield+1")
DIMS = st.integers(0, 64)
EXAMPLES = settings(max_examples=150, deadline=None)


def _codes(f, rows, cols, seed, kind):
    """Codes of a rows x cols matrix of the given kind.  "subfield" is a
    matrix of one of the other kinds over F_p, read as codes of f;
    "subfield+1" is the same with one code outside F_p planted in it."""
    rng = np.random.default_rng(seed)
    if kind in SUBFIELD_KINDS:
        codes = _codes(GF(f.p), rows, cols, seed, KINDS[seed % len(KINDS)])
        if kind == "subfield+1" and codes.size and f.q > f.p:
            i, j = int(rng.integers(0, rows)), int(rng.integers(0, cols))
            codes[i, j] = rng.integers(f.p, f.q)
        return codes
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
def matrix(draw, field=None, rows=None, cols=None, kinds=KINDS + SUBFIELD_KINDS):
    kind = draw(st.sampled_from(kinds))
    if field is None:
        field = draw(st.sampled_from(EXTENSIONS if kind in SUBFIELD_KINDS else FIELDS))
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    seed = draw(st.integers(0, 2**32 - 1))
    return FqMatrix(field, _codes(field, rows, cols, seed, kind))


@st.composite
def product(draw, kinds=KINDS + SUBFIELD_KINDS):
    A = draw(matrix(kinds=kinds))
    return A, draw(matrix(field=A.field, rows=A.cols, kinds=kinds))


def test_subfield_kinds():
    """A "subfield" matrix has every code below p; "subfield+1" has exactly
    one code outside F_p."""
    for f in EXTENSIONS:
        sub = _codes(f, 9, 7, 5, "subfield")
        assert sub.max() < f.p
        planted = _codes(f, 9, 7, 5, "subfield+1")
        assert ((planted >= f.p) == (planted != sub)).all()
        assert (planted >= f.p).sum() == 1


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
@given(product(kinds=SUBFIELD_KINDS))
def test_subfield_matmul_matches_reference(AB):
    """Both factors in F_p take the prime field's product; one code outside
    it in either factor takes the coefficient planes."""
    A, B = AB
    assert A @ B == ref.matmul(A, B)


@st.composite
def kron_pair(draw):
    """Two matrices of 1 x 1 up to 8 x 8 over one field.  Either factor may
    have only codes 0 and 1; otherwise, over q > 2, each factor gets a code
    above 1 planted in it."""
    f = draw(st.sampled_from(FIELDS))
    dims = st.integers(1, 8)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A, B = (
        FqMatrix(f, _codes(f, draw(dims), draw(dims), seed + k, draw(st.sampled_from(KINDS))))
        for k in range(2)
    )
    unit = draw(st.sampled_from(("none", "left", "right")))
    if unit != "none":
        X = A if unit == "left" else B
        X.a[...] = rng.integers(0, 2, X.shape)
    elif f.q > 2:
        for X in (A, B):
            X.a[tuple(rng.integers(0, X.shape))] = rng.integers(2, f.q)
    return A, B


@EXAMPLES
@given(kron_pair())
def test_kron_matches_reference(AB):
    A, B = AB
    K = A.kron(B)
    assert K.a.dtype == np.int16
    assert K == ref.kron(A, B)


@pytest.mark.parametrize("shapes", [((0, 3), (2, 2)), ((2, 0), (3, 1)), ((2, 3), (0, 4))])
def test_kron_with_an_empty_factor(shapes):
    f = GF(2, 2)
    A, B = (FqMatrix(f, np.full(shape, 3)) for shape in shapes)
    assert A.kron(B) == ref.kron(A, B)
    assert A.kron(B).shape == (A.rows * B.rows, A.cols * B.cols)


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
@given(
    matrix(), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(("dense", "subfield"))
)
def test_quotient_space_matches_reference(M, seed, inside, kind):
    V = ref.image_basis(M)
    f = V.field
    if inside:
        W = ref.matmul(V, FqMatrix(f, _codes(f, V.cols, seed % 6, seed, kind)))
    else:
        W = FqMatrix(f, _codes(f, V.rows, 1 + seed % 3, seed, kind))
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


@EXAMPLES
@given(st.data())
def test_complete_to_basis_among_columns_matches_reference(data):
    """Columns of any V; and for V with independent columns, completing
    V.X among the columns of V picks what completing X does among the
    standard vectors, since V keeps every column relation."""
    B = data.draw(matrix())
    V = data.draw(matrix(field=B.field, rows=B.rows))
    assert complete_to_basis(B, V) == ref.complete_to_basis(B, V)
    V = ref.image_basis(V)
    X = data.draw(matrix(field=B.field, rows=V.cols))
    assert complete_to_basis(ref.matmul(V, X), V) == complete_to_basis(X)


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


@pytest.mark.parametrize("dt", [np.float32, np.float64])
@pytest.mark.parametrize("p", [2, 3])
def test_reduction_refuses_a_product_without_a_code(dt, p):
    """The integer cast alone would make a NaN or an infinity some valid
    code; it raises instead."""
    assert _mod_p(np.array([[0, 4], [5, 8]], dtype=dt), p, 8).tolist() == [[0, 4 % p], [5 % p, 8 % p]]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(FloatingPointError):
            _mod_p(np.array([[1, bad], [2, 3]], dtype=dt), p, 8)
