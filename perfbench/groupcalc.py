"""Permutation-group arithmetic of the benchmark's own, used by its checks.

Nothing here calls into permchain: elements are image tuples, products
compose right to left ((a*b)(x) = a(b(x)), the convention of permchain's
generator words), and subgroups are frozensets of element indices.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import numpy as np


def compose(a, b):
    return tuple(a[i] for i in b)


def invert(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def parse_cycles(text: str, degree: int):
    """Cycle notation such as '(0 1 2)(3 4)' on points 0..degree-1."""
    img = list(range(degree))
    for cyc in re.findall(r"\(([^()]*)\)", text):
        pts = [int(t) for t in cyc.split()]
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def parse_generators(cycles: dict):
    """Generators given as name -> cycle notation, on one common degree:
    (permutations, names)."""
    degree = 1 + max(int(t) for c in cycles.values() for t in re.findall(r"\d+", c))
    return [parse_cycles(c, degree) for c in cycles.values()], list(cycles)


def parse_spec(spec: str):
    """';'-separated cycle generators, named g0, g1, ... as permchain names them."""
    parts = [s for s in spec.split(";") if s.strip()]
    return parse_generators({f"g{i}": c for i, c in enumerate(parts)})


class PermGroup:
    """A small permutation group with its own multiplication table."""

    def __init__(self, gens, names):
        gens = [tuple(g) for g in gens]
        self.gens = dict(zip(names, gens))
        ident = tuple(range(len(gens[0])))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = compose(g, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        self.elements = sorted(seen)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = self.index[ident]
        n = len(self.elements)
        self.table = np.array(
            [[self.index[compose(a, b)] for b in self.elements] for a in self.elements],
            dtype=np.int64,
        )
        self.inv = np.array([self.index[invert(a)] for a in self.elements], dtype=np.int64)
        self.order = n

    def closure(self, elems) -> frozenset:
        have = {self.identity} | set(elems)
        frontier = list(have)
        while frontier:
            nxt = []
            for x in frontier:
                for s in list(have):
                    y = int(self.table[x, s])
                    if y not in have:
                        have.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(have)

    def word(self, text: str) -> int:
        acc = tuple(range(len(self.elements[0])))
        for factor in text.split("*"):
            m = re.fullmatch(r"(\w+?)(?:\^(-?\d+))?", factor)
            g = self.gens[m.group(1)]
            k = int(m.group(2)) if m.group(2) else 1
            step = g if k >= 0 else invert(g)
            for _ in range(abs(k)):
                acc = compose(acc, step)
        return self.index[acc]

    def center(self) -> frozenset:
        gens = [self.index[g] for g in self.gens.values()]
        return frozenset(
            x for x in range(self.order)
            if all(self.table[x, g] == self.table[g, x] for g in gens)
        )

    def subgroup(self, name: str) -> frozenset:
        """The subgroup a permchain class name denotes: '1', 'G', 'Z' or '<w,...>'."""
        if name == "1":
            return frozenset({self.identity})
        if name == "G":
            return frozenset(range(self.order))
        if name == "Z":
            return self.center()
        if not (name.startswith("<") and name.endswith(">")):
            raise ValueError(f"not a class name: {name!r}")
        return self.closure(self.word(w) for w in name[1:-1].split(","))

    def is_central(self, H) -> bool:
        return H <= self.center()

    def subgroups(self) -> list:
        """Every subgroup generated by at most two elements (all of them for
        the groups of order <= 16 the catalog uses)."""
        found = set()
        for x in range(self.order):
            for y in range(x, self.order):
                found.add(self.closure((x, y)))
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def conjugates(self, H) -> set:
        out = set()
        Hl = np.array(sorted(H))
        for g in range(self.order):
            out.add(frozenset(self.table[self.table[g, Hl], self.inv[g]].tolist()))
        return out

    def mark(self, K, H) -> int:
        """|(G/H)^K| = #{g : g^-1 K g <= H} / |H|, counted element by element."""
        Kl = np.array(sorted(K))
        inH = np.zeros(self.order, dtype=bool)
        inH[list(H)] = True
        g = np.arange(self.order)
        conj = self.table[self.table[self.inv[g][:, None], Kl[None, :]], g[:, None]]
        return int(inH[conj].all(axis=1).sum()) // len(H)

    def mark_table(self, classes) -> list:
        return [[self.mark(K, H) for H in classes] for K in classes]


def unit_count(table) -> int:
    """#{x in B(G) : every mark of x is +-1}: the sign vectors v whose
    preimage under the mark table is integral."""
    n = len(table)
    M = [[Fraction(v) for v in row] for row in table]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        s = M[c][c]
        M[c] = [x / s for x in M[c]]
        inv[c] = [x / s for x in inv[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    den = lcm(*(x.denominator for row in inv for x in row))
    num = np.array([[int(x * den) for x in row] for row in inv], dtype=np.int64)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    signs = 1 - 2 * bits
    return int(np.all((signs @ num.T) % den == 0, axis=1).sum())


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian_subgroups(r: int) -> int:
    """Number of subgroups of C2^r: the sum of Gaussian binomials [r, k]_2."""
    return sum(gaussian_binomial(r, k) for k in range(r + 1))


def hall_mobius(k: int) -> int:
    """mu(A, B) in the subgroup lattice of an elementary abelian 2-group
    with |B:A| = 2^k (P. Hall)."""
    return (-1) ** k * 2 ** (k * (k - 1) // 2)


class FieldCalc:
    """F_{p^n} products on permchain's scalar codes (code = sum c_i p^i over
    the power basis of the stated modulus, low coefficient first)."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.n = len(modulus) - 1
        self.modulus = tuple(modulus)

    def _decode(self, code):
        return [(code // self.p ** i) % self.p for i in range(self.n)]

    def mul(self, x: int, y: int) -> int:
        a, b = self._decode(x), self._decode(y)
        prod = [0] * (2 * self.n - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] += u * v
        for d in range(len(prod) - 1, self.n - 1, -1):
            c = prod[d] % self.p
            if c:
                for i, m in enumerate(self.modulus):
                    prod[d - self.n + i] -= c * m
        return sum((prod[i] % self.p) * self.p ** i for i in range(self.n))

    def power(self, x: int, k: int) -> int:
        acc = 1
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc
