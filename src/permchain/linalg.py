"""Dense exact matrices over F_{p^n}.

Entries are stored as integer codes (see ffield) in a 2-D numpy int16 array.
`rref` returns the reduced row echelon form with its rank and pivot columns.
The RREF of a matrix is unique, so every basis this module builds from it is
bit-identical across runs, whichever kernel computed it.  The kernel is
chosen by the field:

* F2: rows are packed into Python integers and reduced a strip of up to
  eight columns at a time.  The pivot rows of a strip are combined into a
  table of all their sums, and every other row is reduced with one lookup
  and one XOR (the method of four Russians).
* other fields: each pivot updates only the rows with a nonzero entry in
  its column, and only the columns from the pivot on.  Prime fields use
  integer arithmetic mod p; extension fields use the field's tables, and in
  characteristic 2 adding two codes is XOR.

A matrix product is one BLAS product reduced mod p at the end.  Over
extension fields the codes are split into coefficient planes: one product
gives every pair of planes, and the power basis of the modulus reduces their
convolution.  Each entry is a sum of at most n * k products below p^2: the
product runs in float32 while that bound is below 2^24, at half the memory,
else in float64 up to 2^53; a product past that bound raises.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldMismatch, NotSubspace
from .ffield import FqField, FqScalar


class FqMatrix:
    __slots__ = ("field", "a")

    def __init__(self, field: FqField, codes):
        self.field = field
        a = np.asarray(codes, dtype=np.int16)
        if a.ndim != 2:
            raise ValueError("FqMatrix requires a 2-D array")
        self.a = a

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: FqField, rows: int, cols: int) -> "FqMatrix":
        return FqMatrix(field, np.zeros((rows, cols), dtype=np.int16))

    @staticmethod
    def identity(field: FqField, n: int) -> "FqMatrix":
        return FqMatrix(field, np.eye(n, dtype=np.int16))

    @staticmethod
    def from_int_rows(field: FqField, rows) -> "FqMatrix":
        """Build from integer entries, reduced modulo p (prime subfield)."""
        a = np.asarray(rows, dtype=np.int64) % field.p
        return FqMatrix(field, a.astype(np.int16))

    # -- basics -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def copy(self) -> "FqMatrix":
        return FqMatrix(self.field, self.a.copy())

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.field, self.a.shape, self.a.tobytes()))

    def is_zero(self) -> bool:
        return not self.a.any()

    def _check(self, other: "FqMatrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "FqMatrix") -> "FqMatrix":
        self._check(other)
        return FqMatrix(self.field, self.field.add[self.a, other.a])

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        self._check(other)
        return FqMatrix(self.field, self.field.sub[self.a, other.a])

    def __neg__(self) -> "FqMatrix":
        return FqMatrix(self.field, self.field.neg[self.a])

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        self._check(other)
        f = self.field
        p, n = f.p, f.n
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bound = _exact_bound(self.cols, f)
        dt = np.float32 if bound < 2 ** 24 else np.float64  # both hold every sum exactly
        if n == 1:
            prod = self.a.astype(dt) @ other.a.astype(dt)
            return FqMatrix(f, _mod_p(prod, p, bound).astype(np.int16))
        r, c = self.rows, other.cols
        digits = p ** np.arange(n, dtype=np.int16)
        pa = self.a[None] // digits[:, None, None] % p  # n x r x k
        pb = other.a[None] // digits[:, None, None] % p  # n x k x c
        prod = pa.reshape(n * r, self.cols).astype(dt) @ np.hstack(pb).astype(dt)
        prod = prod.reshape(n, r, n, c)  # prod[i, :, j, :] = pa[i] @ pb[j]
        conv = np.zeros((2 * n - 1, r, c), dtype=dt)
        for i in range(n):
            for j in range(n):
                conv[i + j] += prod[i, :, j, :]
        conv = _mod_p(conv, p, bound)
        # w^k reduces to a coefficient row of the power basis table
        planes = np.tensordot(f.power_basis.T.astype(conv.dtype), conv, axes=1) % p
        return FqMatrix(f, np.tensordot(digits.astype(conv.dtype), planes, axes=1).astype(np.int16))

    def kron(self, other: "FqMatrix") -> "FqMatrix":
        """Kronecker product; index (i, k) maps to i * other.rows + k."""
        self._check(other)
        f = self.field
        A, B = self.a, other.a
        out = f.mul[A[:, None, :, None], B[None, :, None, :]]
        return FqMatrix(f, out.reshape(self.rows * other.rows, self.cols * other.cols))

    @property
    def T(self) -> "FqMatrix":
        return FqMatrix(self.field, self.a.T.copy())

    def col(self, j: int) -> "FqMatrix":
        return FqMatrix(self.field, self.a[:, j : j + 1].copy())

    def take_cols(self, idx) -> "FqMatrix":
        return FqMatrix(self.field, self.a[:, list(idx)].copy())

    def entry(self, i: int, j: int) -> FqScalar:
        return FqScalar(self.field, int(self.a[i, j]))

    def trace(self) -> FqScalar:
        f = self.field
        acc = 0
        for i in range(min(self.rows, self.cols)):
            acc = int(f.add[acc, int(self.a[i, i])])
        return FqScalar(f, acc)

    def __repr__(self):
        return f"FqMatrix(F{self.field.q}, {self.rows}x{self.cols})"


def hstack(mats) -> FqMatrix:
    mats = list(mats)
    return FqMatrix(mats[0].field, np.hstack([m.a for m in mats]))


def vstack(mats) -> FqMatrix:
    mats = list(mats)
    return FqMatrix(mats[0].field, np.vstack([m.a for m in mats]))


def block_diag(field: FqField, mats) -> FqMatrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int16)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return FqMatrix(field, out)


_FLOAT_EXACT = 2 ** 53


def _exact_bound(k: int, field: FqField) -> int:
    """A bound on the entries of a float64 product with inner dimension k:
    sums of at most n * k products of plane values below p.  Raises when
    float64 would not hold them exactly."""
    bound = field.n * k * (field.p - 1) ** 2
    if bound >= _FLOAT_EXACT:
        raise OverflowError(f"a product over {k} terms in F_{field.q} is not exact in float64")
    return bound


def _mod_p(x: np.ndarray, p: int, bound: int) -> np.ndarray:
    """x mod p for a float array of integers in [0, bound]; integer
    remainders are several times faster than float ones."""
    y = x.astype(np.int32 if bound < 2 ** 31 else np.int64)
    return y & 1 if p == 2 else y % p


def rref(M: FqMatrix):
    """Reduced row echelon form.

    Returns (R, rank, pivot_cols).  The pivot columns are the first nonzero
    column of each row of R; R is unique, so the kernel that computes it does
    not change it.
    """
    f = M.field
    if f.q == 2:
        top, pivots = _rref_f2(M.a)
    else:
        top, pivots = _rref_fq(f, M.a)
    R = np.zeros(M.shape, dtype=np.int16)
    R[: len(pivots)] = top
    return FqMatrix(f, R), len(pivots), pivots


def _rref_f2(a: np.ndarray):
    """The pivot rows of the RREF over F2 and their pivot columns.

    Bit j of a row's integer is column j.  `free` holds the nonzero rows that
    are not pivot rows yet; they are zero left of the current strip.  A strip
    of w columns costs a table of 2^w row sums, so w grows with the rows
    that use the table: about log2 of their number, at most 8."""
    rows, cols = a.shape
    nb = (cols + 7) // 8
    buf = np.packbits(a.astype(np.uint8), axis=1, bitorder="little").tobytes()
    free = [int.from_bytes(buf[i * nb : (i + 1) * nb], "little") for i in range(rows)]
    free = list(filter(None, free))
    w = min(8, max(1, len(free).bit_length() - 1))
    done, pivots = [], []
    for c0 in range(0, cols, w):
        if not free:
            break
        # rows whose strip values form a basis of the strip's row space, keyed
        # by the lowest bit of the reduced value: those bits are the pivots
        strip = [(x >> c0) & ((1 << w) - 1) for x in free]
        first = dict(zip(reversed(strip), reversed(free)))  # value -> first row
        first.pop(0, None)
        basis = {}
        for v, row in first.items():
            while v:
                low = v & -v
                if low not in basis:
                    basis[low] = (v, row)
                    break
                v ^= basis[low][0]
            if len(basis) == w:
                break
        if not basis:
            continue
        bits = sorted(basis)
        P = [basis[b][1] for b in bits]
        for k, b in enumerate(bits):  # Gauss-Jordan: identity on the pivot bits
            b <<= c0
            j = k
            while not P[j] & b:
                j += 1
            P[j], P[k] = P[k], P[j]
            for i in range(len(P)):
                if i != k and P[i] & b:
                    P[i] ^= P[k]
        # table[v] = sum of the pivot rows at the pivot bits set in v
        table, k = [0], 0
        for pos in range(w):
            if k < len(bits) and bits[k] == 1 << pos:
                table += [t ^ P[k] for t in table]
                k += 1
            else:
                table += table
        mask = sum(bits)
        done = [x ^ table[(x >> c0) & mask] for x in done] + P
        free = list(filter(None, [x ^ table[(x >> c0) & mask] for x in free]))
        pivots += [c0 + b.bit_length() - 1 for b in bits]
    packed = b"".join(x.to_bytes(nb, "little") for x in done)
    top = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(done), nb),
        axis=1,
        count=cols,
        bitorder="little",
    )
    return top, pivots


def _rref_fq(f: FqField, a: np.ndarray):
    """The pivot rows of the RREF over F_q (q > 2) and their pivot columns.

    Row operations touch only the rows with a nonzero entry in the pivot
    column and the columns from the pivot on; the pivot row is the first
    row, not already a pivot row, with a nonzero entry in that column."""
    p, n = f.p, f.n
    rows, cols = a.shape
    R = a.astype(np.int32)
    taken = np.zeros(rows, dtype=bool)
    prow, pivots = [], []
    for c in range(cols):
        if len(prow) == rows:
            break
        hit = np.flatnonzero(R[:, c])
        cand = hit[~taken[hit]]
        if not cand.size:
            continue
        r = int(cand[0])
        piv = int(R[r, c])
        if piv != 1:
            inv = int(f.inv[piv])
            R[r, c:] = R[r, c:] * inv % p if n == 1 else f.mul[inv, R[r, c:]]
        hit = hit[hit != r]
        if hit.size:
            fac = R[hit, c][:, None]
            if n == 1:
                R[hit, c:] = (R[hit, c:] - fac * R[r, c:]) % p
            elif p == 2:
                R[hit, c:] ^= f.mul[fac, R[r, c:]]
            else:
                R[hit, c:] = f.sub[R[hit, c:], f.mul[fac, R[r, c:]]]
        taken[r] = True
        prow.append(r)
        pivots.append(c)
    return R[prow], pivots


def rank(M: FqMatrix) -> int:
    return rref(M)[1]


def _non_pivots(cols: int, pivots) -> np.ndarray:
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def kernel_basis(M: FqMatrix) -> FqMatrix:
    """Columns form a basis of the right kernel {x : Mx = 0}."""
    return kernel_from_rref(*rref(M))


def kernel_from_rref(R: FqMatrix, rk: int, pivots) -> FqMatrix:
    """`kernel_basis` from the `rref` of the matrix: one column per
    non-pivot column j, with 1 at j and -R[i, j] at the i-th pivot."""
    f = R.field
    free = _non_pivots(R.cols, pivots)
    out = np.zeros((R.cols, free.size), dtype=np.int16)
    out[free, np.arange(free.size)] = 1
    out[pivots] = f.neg[R.a[:rk, free]]
    return FqMatrix(f, out)


def image_basis(M: FqMatrix) -> FqMatrix:
    """The pivot columns of M: a deterministic basis of the column space."""
    _, _, pivots = rref(M)
    return M.take_cols(pivots)


def solve_matrix(M: FqMatrix, B: FqMatrix):
    """Solve MX = B columnwise; None if any column is inconsistent."""
    M._check(B)
    if M.rows != B.rows:
        raise ValueError("right-hand side has wrong number of rows")
    R, rk, pivots = rref(hstack([M, B]))
    if rk and pivots[-1] >= M.cols:
        return None
    out = np.zeros((M.cols, B.cols), dtype=np.int16)
    out[pivots] = R.a[:rk, M.cols :]
    return FqMatrix(M.field, out)


def quotient_space(V_basis: FqMatrix, W_basis: FqMatrix):
    """Quotient of span(V_basis) by span(W_basis).

    Both arguments are column bases in a common ambient space, with
    span(W) <= span(V) required.  Returns (section, projection) where
    projection maps V-coordinates onto quotient coordinates and section
    picks coordinate representatives: projection @ section = identity and
    projection kills the W-coordinates exactly.
    """
    f = V_basis.field
    v = V_basis.cols
    if W_basis.cols == 0:
        return FqMatrix.identity(f, v), FqMatrix.identity(f, v)
    X = solve_matrix(V_basis, W_basis)  # W in V-coordinates
    if X is None:
        raise NotSubspace("W_basis is not contained in the span of V_basis")
    R, rk, pivots = rref(X.T)
    free = _non_pivots(v, pivots)
    # projection: keep the free coordinates, and reduce a coordinate vector
    # by the echelon rows scaled by its pivot coordinates
    proj = np.zeros((free.size, v), dtype=np.int16)
    proj[np.arange(free.size), free] = 1
    proj[:, pivots] = f.neg[R.a[:rk, free]].T
    section = np.zeros((v, free.size), dtype=np.int16)
    section[free, np.arange(free.size)] = 1
    return FqMatrix(f, section), FqMatrix(f, proj)


def complete_to_basis(B: FqMatrix) -> list:
    """Indices of standard basis vectors extending the columns of B to a
    basis of the ambient space (deterministic, greedy by rref pivots)."""
    f = B.field
    n = B.rows
    aug = hstack([B, FqMatrix.identity(f, n)])
    _, _, pivots = rref(aug)
    return [pc - B.cols for pc in pivots if pc >= B.cols]
