"""The Burnside ring of a finite group: marks, idempotents, units.

Elements are integer (or rational) vectors over the conjugacy classes of
subgroups, in the transitive basis [G/H].  The mark homomorphism counts
fixed cosets; its rational inverse goes through the standard idempotent
formula, with exact Fraction arithmetic throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PermchainError, TooManyClasses
from .groups import FiniteGroup, Subgroup, class_name
from .modules import coset_list

MAX_UNIT_SEARCH_CLASSES = 20


@dataclass(frozen=True)
class BurnsideElement:
    """Coefficients over [s(G)] in the basis of transitive G-sets."""

    group: FiniteGroup
    coeffs: tuple  # one int or Fraction per subgroup class

    def __post_init__(self):
        if len(self.coeffs) != len(self.group.lattice().class_reps):
            raise PermchainError("one coefficient per subgroup class required")

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.coeffs)

    def __add__(self, other):
        self._chk(other)
        return BurnsideElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._chk(other)
        return BurnsideElement(
            self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return BurnsideElement(self.group, tuple(-a for a in self.coeffs))

    def _chk(self, other):
        if self.group is not other.group:
            raise PermchainError("elements of different Burnside rings")

    def __mul__(self, other):
        """Ring product, computed through marks (pointwise there)."""
        self._chk(other)
        va, vb = marks(self), marks(other)
        return inverse_marks(self.group, tuple(a * b for a, b in zip(va, vb)))

    def __repr__(self):
        L = self.group.lattice()
        terms = []
        for c, H in zip(self.coeffs, L.class_reps):
            if c:
                terms.append(f"{c}*[G/{class_name(L, H)}]")
        return " + ".join(terms) if terms else "0"


def basis_element(G: FiniteGroup, H: Subgroup) -> BurnsideElement:
    L = G.lattice()
    coeffs = [0] * len(L.class_reps)
    coeffs[H.class_id] = 1
    return BurnsideElement(G, tuple(coeffs))


def _fixed_coset_count(G: FiniteGroup, K: Subgroup, H: Subgroup) -> int:
    """#{gH : KgH = gH}, i.e. cosets of H fixed under left translation by K."""
    from .groups import minimal_generators

    gens = minimal_generators(G, K.elems)
    count = 0
    for coset in coset_list(G, H):
        cs = set(coset)
        if all(G.mul(k, coset[0]) in cs for k in gens):
            count += 1
    return count


def mark_table(G: FiniteGroup) -> np.ndarray:
    """Rows indexed by the class K, columns by the class H: |(G/H)^K|."""
    if G._mark_table is None:
        reps = G.lattice().class_reps
        c = len(reps)
        tbl = np.zeros((c, c), dtype=np.int64)
        for i, K in enumerate(reps):
            for j, H in enumerate(reps):
                tbl[i, j] = _fixed_coset_count(G, K, H)
        G._mark_table = tbl
    return G._mark_table


def marks(x: BurnsideElement):
    """The mark vector of x, one value per subgroup class."""
    tbl = mark_table(x.group)
    return tuple(
        sum(tbl[i, j] * x.coeffs[j] for j in range(len(x.coeffs)))
        for i in range(len(x.coeffs))
    )


def idempotent(G: FiniteGroup, H: Subgroup) -> BurnsideElement:
    """The primitive rational idempotent supported at the class of H:
    (1/|N_G(H)|) sum over K <= H of |K| mu(K, H) [G/K]."""
    L = G.lattice()
    nh = L.normalizer(H).order
    coeffs = [Fraction(0)] * len(L.class_reps)
    for K in L.subgroups_of(H):
        mu = L.mobius(K, H)
        if mu:
            coeffs[K.class_id] += Fraction(K.order * mu, nh)
    return BurnsideElement(G, tuple(coeffs))


def inverse_marks(G: FiniteGroup, v) -> BurnsideElement:
    """Rational preimage of a class-constant mark vector."""
    L = G.lattice()
    if len(v) != len(L.class_reps):
        raise PermchainError("mark vector has the wrong length")
    total = [Fraction(0)] * len(L.class_reps)
    for H, val in zip(L.class_reps, v):
        if not val:
            continue
        e = idempotent(G, H)
        for i, c in enumerate(e.coeffs):
            total[i] += Fraction(val) * c
    norm = tuple(int(c) if c.denominator == 1 else c for c in total)
    return BurnsideElement(G, norm)


def _rational_inverse(tbl: np.ndarray):
    """Exact inverse of the integer mark matrix: (numerators, denominator)."""
    c = tbl.shape[0]
    M = [[Fraction(int(tbl[i, j])) for j in range(c)] for i in range(c)]
    inv = [[Fraction(1 if i == j else 0) for j in range(c)] for i in range(c)]
    for col in range(c):
        piv = next(r for r in range(col, c) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = M[col][col]
        M[col] = [x / scale for x in M[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(c):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    den = 1
    for row in inv:
        for x in row:
            den = math.lcm(den, x.denominator)
    num = np.array([[int(x * den) for x in row] for row in inv], dtype=np.int64)
    return num, den


def burnside_units(G: FiniteGroup) -> list:
    """All units: elements with every mark +-1 and integral preimage.

    Exhaustive over sign tuples; class counts stay small at this scale.
    """
    L = G.lattice()
    c = len(L.class_reps)
    if c > MAX_UNIT_SEARCH_CLASSES:
        raise TooManyClasses(f"{c} subgroup classes exceeds the search bound")
    num, den = _rational_inverse(mark_table(G))
    k = 1 << c
    bits = ((np.arange(k)[:, None] >> np.arange(c)[None, :]) & 1).astype(np.int64)
    signs = 1 - 2 * bits  # rows of +-1
    coeff_num = signs @ num.T  # candidate coefficients scaled by den
    integral = np.all(coeff_num % den == 0, axis=1)
    out = []
    for row in np.nonzero(integral)[0]:
        coeffs = tuple(int(x) for x in coeff_num[row] // den)
        out.append(BurnsideElement(G, coeffs))
    out.sort(key=lambda u: u.coeffs)
    return out
