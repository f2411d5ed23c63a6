"""The Burnside ring of a finite group: marks, idempotents, units.

Elements are integer (or rational) vectors over the conjugacy classes of
subgroups, in the transitive basis [G/H].  The marks count conjugates of
K inside H.  Their inverse is never found by elimination: the primitive
idempotent e_H has the marks of the class of H alone, so the idempotents
are the columns of the inverse mark table, and Gluck's formula gives each
from H's column of the lattice's Mobius function, in exact Fraction
arithmetic.  Units meet in the middle over two halves of the sign vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PermchainError, TooManyClasses
from .groups import FiniteGroup, Subgroup, class_name

MAX_UNIT_SEARCH_CLASSES = 20


@dataclass(frozen=True)
class BurnsideElement:
    """Coefficients over [s(G)] in the basis of transitive G-sets."""

    group: FiniteGroup
    coeffs: tuple  # one int or Fraction per subgroup class

    def __post_init__(self):
        if len(self.coeffs) != len(self.group.lattice().class_reps):
            raise PermchainError("one coefficient per subgroup class required")

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


def mark_table(G: FiniteGroup) -> np.ndarray:
    """Rows indexed by the class K, columns by the class H: |(G/H)^K|, the
    gH with g^{-1} K g <= H.  That is |G| #{K' in cl(K) : K' <= H} over
    |cl(K)| |H|, with no coset listed."""
    if G._mark_table is None:
        L = G.lattice()
        tbl = np.zeros((len(L.classes),) * 2, dtype=np.int64)
        for i, members in enumerate(L.classes):
            masks = [L.subgroups[k].mask for k in members]
            for j, H in enumerate(L.class_reps):
                inside = sum(m & H.mask == m for m in masks)
                value, rest = divmod(G.order * inside, len(members) * H.order)
                if rest:
                    raise PermchainError(f"mark of class {j} at class {i} is not an integer")
                tbl[i, j] = value
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
    (1/|N_G(H)|) sum over K <= H of |K| mu(K, H) [G/K], where
    |N_G(H)| = |G| / |cl(H)|."""
    L = G.lattice()
    nh = G.order // len(L.classes[H.class_id])
    coeffs = [Fraction(0)] * len(L.class_reps)
    for k, mu in L.mobius_column(H).items():
        if mu:
            K = L.subgroups[k]
            coeffs[K.class_id] += Fraction(K.order * mu, nh)
    return BurnsideElement(G, tuple(coeffs))


def idempotents(G: FiniteGroup) -> tuple:
    """e_H for every class of subgroups, in class order: the columns of
    the inverse mark table.  Kept on the group once computed."""
    if G._idempotents is None:
        G._idempotents = tuple(idempotent(G, H) for H in G.lattice().class_reps)
    return G._idempotents


def inverse_marks(G: FiniteGroup, v) -> BurnsideElement:
    """Rational preimage of a class-constant mark vector."""
    L = G.lattice()
    if len(v) != len(L.class_reps):
        raise PermchainError("mark vector has the wrong length")
    total = [Fraction(0)] * len(L.class_reps)
    for e, val in zip(idempotents(G), v):
        if not val:
            continue
        for i, c in enumerate(e.coeffs):
            total[i] += Fraction(val) * c
    norm = tuple(int(c) if c.denominator == 1 else c for c in total)
    return BurnsideElement(G, norm)


def burnside_units(G: FiniteGroup) -> list:
    """All units: elements with every mark +-1 and integral preimage.

    A sign vector's preimage is its product with the inverse mark table,
    whose rows, times their common denominator `den`, are the idempotents.
    Meet in the middle: the sign vectors of each half of the c positions,
    times that half's rows, are reduced mod `den`; each second-half vector
    whose negated residue matches first-half ones gives one unit per match,
    from 2 * 2^(c/2) rows instead of 2^c.
    """
    L = G.lattice()
    c = len(L.class_reps)
    if c > MAX_UNIT_SEARCH_CLASSES:
        raise TooManyClasses(f"{c} subgroup classes exceeds the search bound")
    cols = [e.coeffs for e in idempotents(G)]
    den = math.lcm(*(x.denominator for col in cols for x in col))
    num = np.array([[int(x * den) for x in col] for col in cols], dtype=np.int64)

    def half(rows):  # every sign vector over `rows`, times them
        bits = np.arange(1 << len(rows))[:, None] >> np.arange(len(rows))[None, :]
        return (1 - 2 * (bits & 1)) @ rows

    first, second = half(num[: c // 2]), half(num[c // 2 :])
    matches = {}
    for a, row in zip(first, first % den):
        matches.setdefault(row.tobytes(), []).append(a)
    out = []
    for b, row in zip(second, -second % den):
        for a in matches.get(row.tobytes(), ()):
            out.append(BurnsideElement(G, tuple(int(x) for x in (a + b) // den)))
    out.sort(key=lambda u: u.coeffs)
    return out
