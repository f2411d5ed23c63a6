import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain.errors import NotSubspace
from permchain.ffield import GF
from permchain.linalg import (
    FqMatrix,
    complete_to_basis,
    hstack,
    image_basis,
    kernel_basis,
    quotient_space,
    rank,
    rref,
    solve_matrix,
    vstack,
)

from helpers import oracle_kernel_count, oracle_matmul, random_matrix
from linalg_reference import from_int_rows

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F9 = GF(3, 2)


def _mats(field, max_dim=5):
    return st.builds(
        lambda seed, r, c: random_matrix(np.random.default_rng(seed), field, r, c),
        st.integers(0, 10**6),
        st.integers(1, max_dim),
        st.integers(1, max_dim),
    )


@settings(max_examples=60, deadline=None)
@given(_mats(F2) | _mats(F3) | _mats(F4))
def test_rref_idempotent(M):
    R, rk, piv = rref(M)
    R2, rk2, piv2 = rref(R)
    assert R2 == R and rk2 == rk and piv2 == piv


@settings(max_examples=60, deadline=None)
@given(_mats(F3) | _mats(F9))
def test_rank_nullity(M):
    K = kernel_basis(M)
    assert (M @ K).is_zero()
    assert rank(K) == K.cols
    assert rank(M) + K.cols == M.cols


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_matmul_against_schoolbook(seed, r, k, c):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, F4, r, k)
    B = random_matrix(rng, F4, k, c)
    assert (A @ B) == oracle_matmul(A, B)


def test_matmul_oracle_fixed_shapes():
    rng = np.random.default_rng(7)
    for fld in (F2, F3, F4, F9):
        for _ in range(10):
            A = random_matrix(rng, fld, 3, 4)
            B = random_matrix(rng, fld, 4, 2)
            assert (A @ B) == oracle_matmul(A, B)


def test_rank_of_product_bounded():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = random_matrix(rng, F3, 4, 3)
        B = random_matrix(rng, F3, 3, 5)
        assert rank(A @ B) <= min(rank(A), rank(B))


def test_kernel_identity_empty():
    assert kernel_basis(FqMatrix.identity(F3, 3)).cols == 0


def test_f2_rank_one_kernel():
    M = from_int_rows(F2, [[1, 1], [1, 1]])
    assert rank(M) == 1
    K = kernel_basis(M)
    assert K.cols == 1
    assert list(K.a[:, 0]) == [1, 1]


def test_random_f4_kernel_against_enumeration():
    rng = np.random.default_rng(23)
    M = random_matrix(rng, F4, 6, 4)
    K = kernel_basis(M)
    assert rank(M) + K.cols == 4
    assert oracle_kernel_count(M) == 4 ** K.cols


def test_solve():
    M = from_int_rows(F3, [[1, 2], [0, 1], [1, 0]])
    b = M @ from_int_rows(F3, [[2], [1]])
    x = solve_matrix(M, b)
    assert x is not None and (M @ x) == b
    bad = from_int_rows(F3, [[1], [0], [0]])
    assert solve_matrix(M, bad) is None


def test_image_basis_spans():
    rng = np.random.default_rng(5)
    M = random_matrix(rng, F3, 4, 6)
    B = image_basis(M)
    assert rank(B) == B.cols == rank(M)
    assert solve_matrix(B, M) is not None


def test_kron_mixed_product():
    rng = np.random.default_rng(13)
    A = random_matrix(rng, F4, 2, 3)
    B = random_matrix(rng, F4, 3, 2)
    x = random_matrix(rng, F4, 3, 1)
    y = random_matrix(rng, F4, 2, 1)
    lhs = A.kron(B) @ x.kron(y)
    rhs = (A @ x).kron(B @ y)
    assert lhs == rhs


def test_quotient_space_full_and_zero():
    V = FqMatrix.identity(F2, 3)
    sec, proj = quotient_space(V, V)
    assert proj.rows == 0
    sec, proj = quotient_space(V, FqMatrix.zeros(F2, 3, 0))
    assert proj == FqMatrix.identity(F2, 3)


def test_quotient_space_f2_example():
    V = FqMatrix.identity(F2, 3)
    W = from_int_rows(F2, [[1], [1], [0]])
    sec, proj = quotient_space(V, W)
    assert proj.rows == 2
    assert (proj @ W).is_zero()
    assert (proj @ sec) == FqMatrix.identity(F2, 2)
    # exhaustive: kernel of the projection is exactly span(W)
    hits = 0
    for code in range(8):
        v = from_int_rows(F2, [[(code >> i) & 1] for i in range(3)])
        if (proj @ v).is_zero():
            hits += 1
    assert hits == 2  # 0 and (1,1,0)


def test_quotient_space_not_subspace():
    V = from_int_rows(F2, [[1], [0], [0]])
    W = from_int_rows(F2, [[0], [1], [0]])
    with pytest.raises(NotSubspace):
        quotient_space(V, W)


def test_complete_to_basis():
    B = from_int_rows(F3, [[1, 0], [1, 1], [0, 2]])
    extra = complete_to_basis(B)
    assert len(extra) == 1
    full = hstack([B, FqMatrix.identity(F3, 3).take_cols(extra)])
    assert rank(full) == 3


def test_stacking():
    A = FqMatrix.identity(F2, 2)
    assert vstack([A, A]).shape == (4, 2)
    assert hstack([A, A]).shape == (2, 4)
