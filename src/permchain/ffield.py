"""Exact arithmetic in small finite fields F_{p^n}.

Scalars are stored as integer codes: the element sum(c_i * w^i) with
coefficients c_i in F_p is encoded as sum(c_i * p^i), where w is the class of
the modulus root.  `GF` builds q x q addition and multiplication tables and
the negation, inverse and Frobenius tables; scalar arithmetic and entrywise
matrix operations look codes up in them.  The kernels in linalg mostly do
not: row reduction works on packed bits over F2 and on integers mod p over
prime fields and on F_q matrices whose codes all lie in the prime subfield
(the codes below p), and uses the tables only on the others.  Products are
BLAS products in float32 while every sum stays below 2^24 and in float64
past that, split into coefficient planes and reduced with the `power_basis`
rows when a code lies outside the prime subfield.

Scalars are written as text by `format` (the canonical form) and read by
`parse`, which also accepts other spellings.  `GF` keeps the scalar codec as
two tables next to the arithmetic ones: `strings`, the q canonical strings
in code order, and `code_of`, the mapping from each of them back to its
code.  `GF` builds each field once; every table is read-only.
Complex files are written and read through these tables, one lookup per
entry; `parse` is the fallback for the spellings they do not hold.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import PermchainError

# Reproducible scalar representations for the fields used in practice.
_FIXED_MODULI = {
    (2, 2): (1, 1, 1),       # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),    # x^3 + x + 1
    (3, 2): (1, 0, 1),       # x^2 + 1
}

_MAX_Q = 512


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(poly, modulus, p):
    """Reduce a coefficient list modulo a monic polynomial over F_p."""
    poly = list(poly)
    n = len(modulus) - 1
    while len(poly) > n:
        lead = poly.pop()
        if lead == 0:
            continue
        for i in range(n):
            poly[len(poly) - n + i] = (poly[len(poly) - n + i] - lead * modulus[i]) % p
    while len(poly) < n:
        poly.append(0)
    return [c % p for c in poly]


def _is_irreducible(modulus, p):
    """Check irreducibility of a monic polynomial by exhausting its roots'
    subfield structure: x^(p^d) == x mod f has gcd tests replaced by brute
    force over all monic divisor degrees.  Degrees here are at most 3 or 4,
    so trial division by all lower-degree monic polynomials is fine."""
    n = len(modulus) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for code in range(p ** d):
            div = [(code // p ** i) % p for i in range(d)] + [1]
            rem = list(modulus)
            # polynomial long division remainder
            while len(rem) >= len(div):
                lead = rem[-1]
                if lead != 0:
                    shift = len(rem) - len(div)
                    for i in range(len(div)):
                        rem[shift + i] = (rem[shift + i] - lead * div[i]) % p
                rem.pop()
            if all(c == 0 for c in rem):
                return False
    return True


def _find_modulus(p, n):
    if n == 1:
        return (0, 1)
    if (p, n) in _FIXED_MODULI:
        return _FIXED_MODULI[(p, n)]
    for code in range(p ** n):
        cand = tuple((code // p ** i) % p for i in range(n)) + (1,)
        if _is_irreducible(list(cand), p):
            return cand
    raise PermchainError(f"no irreducible modulus found for p={p}, n={n}")


@dataclass(frozen=True)
class FqField:
    """The field with p^n elements; equality is by (p, n, modulus)."""

    p: int
    n: int
    modulus: tuple  # monic, length n + 1, coefficient order low to high
    add: np.ndarray = field(compare=False, repr=False, default=None)
    sub: np.ndarray = field(compare=False, repr=False, default=None)
    mul: np.ndarray = field(compare=False, repr=False, default=None)
    neg: np.ndarray = field(compare=False, repr=False, default=None)
    inv: np.ndarray = field(compare=False, repr=False, default=None)
    frob: np.ndarray = field(compare=False, repr=False, default=None)
    # w^k reduced mod the modulus, as coefficient rows, for k < 2n - 1
    power_basis: np.ndarray = field(compare=False, repr=False, default=None)
    # format(c) for every code c, and the inverse map
    strings: tuple = field(compare=False, repr=False, default=None)
    code_of: dict = field(compare=False, repr=False, default=None)

    @property
    def q(self) -> int:
        return self.p ** self.n

    def decode(self, code: int):
        return tuple((int(code) // self.p ** i) % self.p for i in range(self.n))

    def encode(self, coeffs) -> int:
        return sum((int(c) % self.p) * self.p ** i for i, c in enumerate(coeffs))

    def scalar(self, code: int) -> "FqScalar":
        code = int(code)
        if not 0 <= code < self.q:
            raise PermchainError(f"scalar code {code} out of range for F_{self.q}")
        return FqScalar(self, code)

    def one(self) -> "FqScalar":
        return self.scalar(1)

    def elements(self):
        return [self.scalar(c) for c in range(self.q)]

    def units(self):
        return [self.scalar(c) for c in range(1, self.q)]

    def scalar_order(self, code: int) -> int:
        """Multiplicative order of a nonzero code."""
        if code == 0:
            raise PermchainError("zero has no multiplicative order")
        acc, k = code, 1
        while acc != 1:
            acc = int(self.mul[acc, code])
            k += 1
        return k

    def format(self, code: int) -> str:
        """Scalar text form: plain integer for prime fields, 'c0+c1*w' style
        polynomials in the modulus root w for extensions."""
        coeffs = self.decode(code)
        if self.n == 1:
            return str(coeffs[0])
        terms = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                wpow = "w" if i == 1 else f"w^{i}"
                terms.append(wpow if c == 1 else f"{c}*{wpow}")
        return "+".join(terms) if terms else "0"

    def parse(self, text: str) -> int:
        """Inverse of format; accepts whitespace, '-' coefficient signs, terms
        in any order and unreduced integer coefficients, in ASCII digits.
        Anything else, non-strings included, raises PermchainError."""
        if not isinstance(text, str):
            raise PermchainError(f"bad scalar literal {text!r}")
        try:
            return self._parse_terms(text.replace(" ", ""))
        except ValueError:
            raise PermchainError(f"bad scalar literal {text!r}") from None

    def _parse_terms(self, s: str) -> int:
        if not s:
            raise PermchainError("empty scalar literal")
        coeffs = [0] * self.n
        # normalize leading sign, then split on +/- keeping signs
        terms = []
        cur = ""
        for ch in s:
            if ch in "+-" and cur:
                terms.append(cur)
                cur = ch if ch == "-" else ""
            else:
                cur += ch
        terms.append(cur)
        for term in terms:
            t = term
            sign = 1
            if t.startswith("-"):
                sign, t = -1, t[1:]
            if not t:
                raise ValueError
            m = _TERM.fullmatch(t)
            if m is None:
                raise ValueError
            if m[1]:
                coef, power = int(m[1]), 0
            else:
                coef, power = int(m[2] or 1), int(m[3] or 1)
            if power >= self.n:
                raise ValueError
            coeffs[power] = (coeffs[power] + sign * coef) % self.p
        return self.encode(coeffs)


# a term of a scalar literal, in ASCII digits only: c, or [c[*]]w[^k]
_TERM = re.compile(r"([0-9]+)|(?:([0-9]+)\*?)?w(?:\^([0-9]+))?")


def _build_tables(p, n, modulus):
    q = p ** n
    codes = np.arange(q)
    planes = np.stack([(codes // p ** i) % p for i in range(n)], axis=1)  # q x n

    add = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        s = (planes[a][None, :] + planes) % p
        add[a] = (s * (p ** np.arange(n))).sum(axis=1)

    # multiplication through polynomial multiplication mod the modulus
    power = np.zeros((2 * n - 1, n), dtype=np.int64)
    for k in range(2 * n - 1):
        vec = [0] * (k + 1)
        vec[k] = 1
        power[k] = _poly_mod(vec, list(modulus), p) if k >= n else [
            1 if i == k else 0 for i in range(n)
        ]
    mul = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        pa = planes[a]
        conv = np.zeros((q, 2 * n - 1), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                conv[:, i + j] += int(pa[i]) * planes[:, j]
        red = (conv @ power) % p
        mul[a] = (red * (p ** np.arange(n))).sum(axis=1)

    neg = np.zeros(q, dtype=np.int16)
    for a in range(q):
        neg[a] = int(np.where(add[a] == 0)[0][0])

    inv = np.zeros(q, dtype=np.int16)
    for a in range(1, q):
        inv[a] = int(np.where(mul[a] == 1)[0][0])

    frob = np.zeros(q, dtype=np.int16)
    for a in range(q):
        acc = a
        for _ in range(p - 1):
            acc = int(mul[acc, a])
        frob[a] = acc

    return add, mul, neg, inv, frob, power


_FIELDS = {}  # (p, n) -> the one FqField that GF gives for it


def GF(p: int, n: int = 1) -> FqField:
    """F_{p^n} with a fixed modulus for the common small fields.

    Each (p, n) is built once and the same field comes back on every later
    call; its tables are read-only, so no caller can change them for the
    others."""
    fld = _FIELDS.get((p, n))
    if fld is not None:
        return fld
    if not is_prime(p):
        raise PermchainError(f"{p} is not prime")
    if n < 1 or p ** n > _MAX_Q:
        raise PermchainError(f"field size p^n = {p ** n} out of supported range")
    modulus = tuple(_find_modulus(p, n))
    add, mul, neg, inv, frob, power = _build_tables(p, n, modulus)
    sub = add[:, neg]  # sub[a, b] = a + (-b)
    fld = FqField(p=p, n=n, modulus=modulus)
    object.__setattr__(fld, "add", add)
    object.__setattr__(fld, "sub", sub)
    object.__setattr__(fld, "mul", mul)
    object.__setattr__(fld, "neg", neg)
    object.__setattr__(fld, "inv", inv)
    object.__setattr__(fld, "frob", frob)
    object.__setattr__(fld, "power_basis", power)
    for table in (add, sub, mul, neg, inv, frob, power):
        table.setflags(write=False)
    strings = tuple(fld.format(c) for c in range(fld.q))
    object.__setattr__(fld, "strings", strings)
    object.__setattr__(fld, "code_of", MappingProxyType({t: c for c, t in enumerate(strings)}))
    _FIELDS[(p, n)] = fld
    return fld


def field_from_q(q: int) -> FqField:
    """Field of order q for CLI-style '-q' arguments (q a prime power).

    A prime power is a power of its least prime factor, found by trial
    division up to sqrt(q)."""
    p = next((d for d in range(2, math.isqrt(max(q, 0)) + 1) if q % d == 0), q)
    n, acc = 0, 1
    while 1 < p and acc < q:
        acc *= p
        n += 1
    if q < 2 or acc != q:
        raise PermchainError(f"{q} is not a prime power")
    return GF(p, n)


@dataclass(frozen=True)
class FqScalar:
    """A single field element; thin wrapper over an integer code."""

    field: FqField
    code: int

    def _check(self, other):
        if self.field != other.field:
            from .errors import FieldMismatch

            raise FieldMismatch("scalars from different fields")

    def __add__(self, other):
        self._check(other)
        return FqScalar(self.field, int(self.field.add[self.code, other.code]))

    def __sub__(self, other):
        self._check(other)
        return FqScalar(self.field, int(self.field.sub[self.code, other.code]))

    def __mul__(self, other):
        self._check(other)
        return FqScalar(self.field, int(self.field.mul[self.code, other.code]))

    def __neg__(self):
        return FqScalar(self.field, int(self.field.neg[self.code]))

    def inverse(self):
        if self.code == 0:
            raise ZeroDivisionError("inverting zero scalar")
        return FqScalar(self.field, int(self.field.inv[self.code]))

    def __bool__(self):
        return self.code != 0

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        return self.field.format(self.code)


def frobenius(s: FqScalar) -> FqScalar:
    """x -> x^p, the field's p-power automorphism."""
    return FqScalar(s.field, int(s.field.frob[s.code]))


def frobenius_inverse(s: FqScalar) -> FqScalar:
    out = s
    for _ in range(s.field.n - 1):
        out = frobenius(out)
    return out
