"""Reference linear algebra: the table-lookup kernels, kept as the oracle.

Every step goes through the field's q x q lookup tables, on the whole
matrix: each pivot of `rref` does two table lookups over every entry,
`matmul` splits codes into coefficient planes multiplied with integer
(non-BLAS) matmul, and `kron` scales one block at a time.  The functions
built on top (`kernel_basis` and the rest) are the per-entry loops they
replaced.  Slow, but simple enough to read off as correct; property tests
compare the library's field kernels with it.  `block_diag`, the matrices
of a dense direct sum, is here for the dense module oracles, and so are
two conveniences only the tests need: a matrix from integer rows
(`from_int_rows`) and one column of a matrix (`col`).
"""

from __future__ import annotations

import numpy as np

from permchain.errors import NotSubspace
from permchain.linalg import FqMatrix


def from_int_rows(field, rows) -> FqMatrix:
    """Build from integer entries, reduced modulo p (prime subfield)."""
    a = np.asarray(rows, dtype=np.int64) % field.p
    return FqMatrix(field, a.astype(np.int16))


def col(M: FqMatrix, j: int) -> FqMatrix:
    """Column j of M as a one-column matrix."""
    return FqMatrix(M.field, M.a[:, j : j + 1].copy())


def rref(M: FqMatrix):
    """(R, rank, pivot_cols); pivots are the first nonzero column, then the
    first row at or below the current one with a nonzero entry there."""
    f = M.field
    R = M.a.copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = f.mul[R[r], int(f.inv[piv])]
        factors = R[:, c].copy()
        factors[r] = 0
        if factors.any():
            R = f.sub[R, f.mul[factors[:, None], R[r][None, :]]]
        pivots.append(c)
        r += 1
    return FqMatrix(f, R), len(pivots), pivots


def matmul(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    f = A.field
    p, n = f.p, f.n
    X = A.a.astype(np.int64)
    Y = B.a.astype(np.int64)
    if n == 1:
        return FqMatrix(f, ((X @ Y) % p).astype(np.int16))
    pa = [(X // p ** i) % p for i in range(n)]
    pb = [(Y // p ** i) % p for i in range(n)]
    conv = [None] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            prod = pa[i] @ pb[j]
            k = i + j
            conv[k] = prod if conv[k] is None else conv[k] + prod
    basis = f.power_basis
    planes = [np.zeros((A.rows, B.cols), dtype=np.int64) for _ in range(n)]
    for k in range(2 * n - 1):
        ck = conv[k] % p
        for i in range(n):
            if basis[k, i]:
                planes[i] += ck * int(basis[k, i])
    code = sum((planes[i] % p) * (p ** i) for i in range(n))
    return FqMatrix(f, code.astype(np.int16))


def kron(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    """Block (i, j) is B scaled by A[i, j], one table lookup per entry."""
    f = A.field
    r, c = B.rows, B.cols
    out = np.zeros((A.rows * r, A.cols * c), dtype=np.int16)
    for i in range(A.rows):
        for j in range(A.cols):
            out[i * r : (i + 1) * r, j * c : (j + 1) * c] = f.mul[int(A.a[i, j]), B.a]
    return FqMatrix(f, out)


def kernel_basis(M: FqMatrix) -> FqMatrix:
    f = M.field
    R, rk, pivots = rref(M)
    free = [j for j in range(M.cols) if j not in set(pivots)]
    out = np.zeros((M.cols, len(free)), dtype=np.int16)
    for k, j in enumerate(free):
        out[j, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = f.neg[int(R.a[i, j])]
    return FqMatrix(f, out)


def image_basis(M: FqMatrix) -> FqMatrix:
    _, _, pivots = rref(M)
    return M.take_cols(pivots)


def solve_matrix(M: FqMatrix, B: FqMatrix):
    aug = FqMatrix(M.field, np.hstack([M.a, B.a]))
    R, rk, pivots = rref(aug)
    for pc in pivots:
        if pc >= M.cols:
            return None
    out = np.zeros((M.cols, B.cols), dtype=np.int16)
    for i, pc in enumerate(pivots):
        out[pc, :] = R.a[i, M.cols :]
    return FqMatrix(M.field, out)


def quotient_space(V_basis: FqMatrix, W_basis: FqMatrix):
    f = V_basis.field
    v = V_basis.cols
    if W_basis.cols == 0:
        return FqMatrix.identity(f, v), FqMatrix.identity(f, v)
    X = solve_matrix(V_basis, W_basis)
    if X is None:
        raise NotSubspace("W_basis is not contained in the span of V_basis")
    R, rk, pivots = rref(X.T)
    free = [j for j in range(v) if j not in set(pivots)]
    qdim = v - rk
    proj = np.zeros((qdim, v), dtype=np.int16)
    for k, j in enumerate(free):
        proj[k, j] = 1
        for i, pc in enumerate(pivots):
            proj[k, pc] = f.neg[int(R.a[i, j])]
    section = np.zeros((v, qdim), dtype=np.int16)
    for k, j in enumerate(free):
        section[j, k] = 1
    return FqMatrix(f, section), FqMatrix(f, proj)


def complete_to_basis(B: FqMatrix, V: FqMatrix = None) -> list:
    extra = np.eye(B.rows, dtype=np.int16) if V is None else V.a
    aug = FqMatrix(B.field, np.hstack([B.a, extra]))
    _, _, pivots = rref(aug)
    return [pc - B.cols for pc in pivots if pc >= B.cols]


def block_diag(field, mats) -> FqMatrix:
    """The block diagonal matrix of `mats`, in order: the dense direct sum."""
    mats = list(mats)
    out = np.zeros((sum(m.rows for m in mats), sum(m.cols for m in mats)), dtype=np.int16)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return FqMatrix(field, out)
