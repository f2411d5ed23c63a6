"""Finite permutation groups, subgroup lattices and the catalog presentations.

Groups are presented by permutations of {0..n-1}.  Elements are enumerated
once, sorted lexicographically as image tuples, and all arithmetic is done on
element indices through a cached multiplication table.  The table is read
off a base: points whose images tell the elements apart key each element,
all n^2 products are composed on the base points only, and each product's
key is looked up once; the inverse of x is where the identity sits in x's
row.  Every derived object (subgroup, conjugacy class, coset ordering,
quotient) is deterministic so that repeated runs produce byte-identical
output.

A subgroup carries a bitmask over element indices: containment is one AND,
and the lattice looks subgroups up by mask.  It extends one subgroup H per
conjugacy class by one x per right coset H x, K = <H, x> a union of right
cosets H r, and takes each new K's class with it.  The subgroup some
elements generate is the first subgroup, by order, whose mask holds theirs.
Mobius values come from one pass over the comparable pairs of a poset,
column by column (`mobius_columns`); the lattice keeps its own columns,
and each class name once first asked for.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import (
    GroupTooLarge,
    NotComparable,
    NotNormal,
    PermchainError,
    UnknownCatalogName,
)
from .ffield import is_prime

DEFAULT_MAX_ORDER = 500


# -- permutation helpers -----------------------------------------------


def pmul(a, b):
    """Compose permutations acting on the left: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_from_cycles(text: str, degree: int | None = None):
    """Parse cycle notation like '(0 1 2 3)(4 5)' on points 0..degree-1.

    Commas or spaces separate points inside a cycle; '()' or 'id' is the
    identity (degree required in that case).
    """
    s = text.strip()
    if s in ("()", "id", "e"):
        if degree is None:
            raise PermchainError("identity permutation needs an explicit degree")
        return tuple(range(degree))
    cycles = re.findall(r"\(([^()]*)\)", s)
    if not cycles or re.sub(r"\([^()]*\)|\s", "", s):
        raise PermchainError(f"bad cycle notation: {text!r}")
    parsed = []
    maxpt = -1
    for cyc in cycles:
        pts = [int(t) for t in re.split(r"[,\s]+", cyc.strip()) if t]
        if len(pts) != len(set(pts)):
            raise PermchainError(f"repeated point in cycle: {text!r}")
        parsed.append(pts)
        if pts:
            maxpt = max(maxpt, max(pts))
    n = degree if degree is not None else maxpt + 1
    if maxpt >= n:
        raise PermchainError(f"point {maxpt} out of range for degree {n}")
    img = list(range(n))
    for pts in parsed:
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    seen = set()
    for pts in parsed:
        if seen & set(pts):
            raise PermchainError(f"cycles are not disjoint: {text!r}")
        seen |= set(pts)
    return tuple(img)


def perm_to_cycles(perm) -> str:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"


# -- groups -------------------------------------------------------------


class FiniteGroup:
    """A finite group presented by generating permutations.

    `elements` are the sorted image tuples, `mul_table[i, j]` the index of
    elements[i] o elements[j] and `inv_table[i]` that of the inverse, both
    from `_product_tables`: keys by the images of a greedy base, one lookup
    per product, the inverse where the identity sits in each row.
    Immutable after construction.  The subgroup lattice and the values
    listed at the end of `__init__` are computed on first use and kept on
    the group.
    """

    def __init__(self, generators, gen_names=None, name=None, max_order=DEFAULT_MAX_ORDER):
        gens = [tuple(g) for g in generators]
        if not gens:
            raise PermchainError("at least one generator required")
        degree = len(gens[0])
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise PermchainError(f"not a permutation of 0..{degree - 1}: {g}")
        self.degree = degree
        identity = tuple(range(degree))

        # breadth-first closure, recording one word per element
        words = {identity: ()}
        queue = [identity]
        while queue:
            x = queue.pop(0)
            for gi, g in enumerate(gens):
                y = pmul(g, x)
                if y not in words:
                    if len(words) >= max_order:
                        raise GroupTooLarge(
                            f"group order exceeds the configured bound {max_order}"
                        )
                    words[y] = (gi,) + words[x]
                    queue.append(y)

        elements = sorted(words)
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(elements)}
        self.identity = self.index[identity]
        self.generators = tuple(gens)
        self.gen_indices = tuple(self.index[g] for g in gens)
        self.gen_names = tuple(gen_names) if gen_names else tuple(
            f"g{i}" for i in range(len(gens))
        )
        if len(self.gen_names) != len(gens):
            raise PermchainError("one name per generator required")
        self.words = tuple(words[e] for e in elements)
        self.name = name
        self.catalog_name = name

        self.mul_table, self.inv_table = _product_tables(elements, self.identity)
        self._lattice = None
        self._orders = None
        # values derived from this group alone
        self._mark_table = None  # burnside.mark_table
        self._idempotents = None  # burnside.idempotents
        self._quotients = {}  # (over mask, N mask) -> quotient(self, N, over)

    # -- arithmetic on element indices ---------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inv_table[i])

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, i: int) -> int:
        if self._orders is None:
            orders = []
            for j in range(self.order):
                k, acc = 1, j
                while acc != self.identity:
                    acc = self.mul(acc, j)
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[i]

    def is_abelian(self) -> bool:
        t = self.mul_table
        return bool(np.array_equal(t, t.T))

    def is_cyclic(self) -> bool:
        return any(self.element_order(i) == self.order for i in range(self.order))

    def word_str(self, i: int) -> str:
        """Element as a word in the named generators, e.g. 'a^2*b'."""
        w = self.words[i]
        if not w:
            return "1"
        parts = []
        for gi in w:
            if parts and parts[-1][0] == gi:
                parts[-1][1] += 1
            else:
                parts.append([gi, 1])
        return "*".join(
            self.gen_names[gi] if k == 1 else f"{self.gen_names[gi]}^{k}"
            for gi, k in parts
        )

    def element_by_word(self, text: str) -> int:
        """Inverse of word_str for words like 'a^2*b' ('1' is the identity)."""
        s = text.replace(" ", "")
        if s in ("1", "e"):
            return self.identity
        acc = self.identity
        for factor in s.split("*"):
            m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(-?\d+))?", factor)
            if not m or m.group(1) not in self.gen_names:
                raise PermchainError(f"bad generator word {text!r}")
            gi = self.gen_names.index(m.group(1))
            k = int(m.group(2)) if m.group(2) else 1
            g = self.gen_indices[gi]
            step = g if k >= 0 else self.inv(g)
            for _ in range(abs(k)):
                acc = self.mul(acc, step)
        return acc

    def commutator_subgroup_elems(self) -> frozenset:
        comms = {
            self.mul(self.mul(x, y), self.inv(self.mul(y, x)))
            for x in range(self.order)
            for y in range(self.order)
        }
        return self.lattice().generated_by(comms).elemset

    def abelianization_order(self) -> int:
        """|G : [G, G]|, computed on first use and kept on G."""
        got = self.__dict__.get("_abelianization_order")
        if got is None:
            got = self._abelianization_order = self.order // len(self.commutator_subgroup_elems())
        return got

    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = SubgroupLattice(self)
        return self._lattice

    def describe(self) -> str:
        return self.name or f"<perm group of order {self.order} on {self.degree} points>"

    def __repr__(self):
        return f"FiniteGroup({self.describe()})"


def _product_tables(elements, identity):
    """`mul_table` and `inv_table` of the sorted permutations `elements`.

    A greedy base (each point kept that tells apart elements the points
    before it did not) keys each element by its images of the base.  Per
    base point, one fancy index composes the images of all n^2 products,
    and the pairs (key so far, image) are ranked again among those of the
    elements, so keys stay below n and exact.  The final keys index the
    elements; the inverse of x is where the identity sits in x's row.
    """
    arr = np.array(elements, dtype=np.intp)  # row j: the images of elements[j]
    n, degree = arr.shape
    key = np.zeros(n, dtype=np.intp)  # each element's images of the base so far, ranked
    pkey = np.zeros((n, n), dtype=np.intp)  # [i, j]: the same for elements[i] o elements[j]
    classes = 1
    for b in range(degree):
        if classes == n:
            break
        img = arr[:, b]
        first = np.empty(classes, dtype=np.intp)
        first[key] = img
        if np.array_equal(first[key], img):  # b splits no class of the base so far
            continue
        orank, r = _ranks(img, degree)  # b's images ranked within its orbit
        code = key * r + orank[img]
        rank, classes = _ranks(code, classes * r)
        key = rank[code]
        pkey = rank[pkey * r + orank[arr[:, img]]]  # [i, j]: elements[i] applied to elements[j](b)
    position = np.empty(n, dtype=np.int32)
    position[key] = np.arange(n, dtype=np.int32)
    mul = position[pkey]
    return mul, np.nonzero(mul == identity)[1].astype(np.int32)


def _ranks(values, size):
    """(rank, count): rank[v] is the place of v among the distinct values
    in `values` (ints below `size`), count how many there are."""
    present = np.zeros(size, dtype=bool)
    present[values] = True
    taken = np.flatnonzero(present)
    rank = np.empty(size, dtype=np.intp)
    rank[taken] = np.arange(len(taken))
    return rank, len(taken)


def is_p_power(n: int, p: int) -> bool:
    """Whether n is a power of p (1 included; only 1 when p < 2)."""
    while p > 1 and n % p == 0:
        n //= p
    return n == 1


# -- subgroups and the lattice ------------------------------------------


class Subgroup:
    """A subgroup as sorted element indices of its parent and their bitmask,
    with its place in the lattice's list and some generating set of it.
    The mask is the membership test (bit x is set for each element x);
    `elemset` is derived from `elems` on each call."""

    __slots__ = ("parent", "elems", "mask", "index", "gens", "class_id", "is_normal", "conj_to_rep")

    def __init__(self, parent, elems, mask, index, gens, class_id=-1, is_normal=False, conj_to_rep=None):
        self.parent = parent
        self.elems = tuple(elems)
        self.mask = mask
        self.index = index
        self.gens = gens
        self.class_id = class_id
        self.is_normal = is_normal
        self.conj_to_rep = conj_to_rep  # g with self = g . rep . g^{-1}

    @property
    def elemset(self) -> frozenset:
        return frozenset(self.elems)

    @property
    def order(self) -> int:
        return len(self.elems)

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & self.mask == other.mask

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.parent is other.parent and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.parent), self.mask))

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent.describe()})"


def minimal_generators(H: Subgroup) -> list:
    """Deterministic small generating set of H: greedy over its sorted
    elements, each kept that lies outside the subgroup the kept ones
    generate, which then grows to at least twice its order."""
    L = H.parent.lattice()
    gens, have = [], L.trivial
    for x in H.elems:
        if have.order == H.order:
            break
        if not have.mask >> x & 1:
            gens.append(x)
            have = L.least_holding(have.mask | 1 << x, 2 * have.order)
    return gens


def _mask(elems) -> int:
    """The bitmask of a set of element indices; a negative one has no bit."""
    xs = set(map(int, elems))
    if xs and min(xs) < 0:
        raise PermchainError("element set is not a subgroup")
    return sum(1 << x for x in xs)


class SubgroupLattice:
    """All subgroups of a finite group with conjugacy and containment data.

    Cyclic extension up to conjugacy (Neubuser): the first-found member H
    of each class is extended by one x per right coset H x outside H (one
    per cyclic subgroup <x> among them), K = <H, x> growing from H as a
    union of right cosets: r starts at 1, and each r g outside K, for a
    generator g of K, adds the coset H (r g).  A new K brings its class,
    walked on masks by one conjugation table per noncentral generator, each
    conjugate with the conjugated generators; `gens` is some generating set.

    The search is complete.  Any K > H holds some x outside H with
    <H, x> <= K, so K = <H, x> for H maximal in K and any such x; that
    extension depends only on the coset H x (<H, x> = <H, h x>) and on <x>;
    and conjugation carries the extensions of one class member to those of
    all the others.  By induction on the order, every class is found.

    Subgroups are listed by (order, elements); a class's representative is
    its first member there, and `conj_to_rep` comes from walking the class
    from it.  Enumeration is feasible at the supported group sizes only.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        n, e = G.order, G.identity
        t, inv = G.mul_table, G.inv_table
        right = t.T.tolist()  # right[y][h] = h * y
        bit = [1 << y for y in range(n)]

        def elems(mask):
            return [y for y in range(n) if mask & bit[y]]

        # x -> g x g^{-1} for each generator g outside the centre
        conj = [(g, ct) for g in G.gen_indices if (ct := t[t[g], inv[g]].tolist()) != list(range(n))]

        # the generators of each cyclic subgroup <x>: x^k for the k prime to |x|
        cyc_gens = [None] * n
        for x in range(n):
            if cyc_gens[x] is None:
                powers, y = [e], x
                while y != e:
                    powers.append(y)
                    y = right[x][y]
                same = [y for k, y in enumerate(powers) if math.gcd(k, len(powers)) == 1]
                for y in same:
                    cyc_gens[y] = same

        found = {}  # mask -> the generators it was found by
        conjugates = {}  # mask -> its conjugates by the `conj` generators

        def add_class(kmask, gens):
            found[kmask] = gens
            orbit = [kmask]
            for cur in orbit:  # grows while walked: breadth first
                cur_elems = elems(cur) if conj else ()
                out = conjugates[cur] = []
                for _, ct in conj:
                    c = sum(bit[ct[x]] for x in cur_elems)
                    out.append(c)
                    if c not in found:
                        found[c] = tuple(ct[h] for h in found[cur])
                        orbit.append(c)

        add_class(bit[e], ())
        queue = [bit[e]]
        for hmask in queue:  # grows while walked: breadth first
            coset, helems = [0] * n, elems(hmask)  # coset[y]: the mask of H y
            for y in range(n):
                if not coset[y]:
                    members = list(map(right[y].__getitem__, helems))
                    m = sum(map(bit.__getitem__, members))
                    for z in members:
                        coset[z] = m
            hgens, done = found[hmask], hmask  # done: the cosets already tried
            for x in range(n):
                if done & bit[x]:
                    continue
                for y in cyc_gens[x]:
                    done |= coset[y]
                gens = hgens + (x,)
                kmask, reps = hmask, [e]
                for r in reps:
                    for g in gens:
                        y = right[g][r]
                        if not kmask & bit[y]:  # add the coset H y
                            kmask |= coset[y]
                            reps.append(y)
                if kmask not in found:
                    add_class(kmask, gens)
                    queue.append(kmask)

        elems_of = {m: elems(m) for m in found}
        masks = sorted(found, key=lambda m: (m.bit_count(), elems_of[m]))
        set_index = {m: i for i, m in enumerate(masks)}

        # conjugacy classes, walking each orbit from its representative
        class_of = [-1] * len(masks)
        conj_elem = [e] * len(masks)
        classes = []
        for i in range(len(masks)):
            if class_of[i] != -1:
                continue
            cid, members = len(classes), [i]
            class_of[i] = cid
            for cur in members:  # grows while walked: breadth first
                for (g, _), c in zip(conj, conjugates[masks[cur]]):
                    j = set_index[c]
                    if class_of[j] == -1:
                        class_of[j] = cid
                        conj_elem[j] = G.mul(g, conj_elem[cur])
                        members.append(j)
            classes.append(sorted(members))

        self.subgroups = [
            Subgroup(G, elems_of[m], m, i, found[m], class_of[i], len(classes[class_of[i]]) == 1, conj_elem[i])
            for i, m in enumerate(masks)
        ]
        self.by_elems = {H.mask: H for H in self.subgroups}
        self.classes = classes  # lists of subgroup indices; [0] is the rep
        self.class_reps = [self.subgroups[c[0]] for c in classes]
        self.trivial = self.subgroups[0]
        self.full = self.subgroups[-1]
        self._as_group_cache = {}
        self._mobius = None  # mobius_columns(self.subgroups), on first use
        self._center = None
        self._class_names = {}  # class id -> class_name
        self._normalizers = {}  # subgroup mask -> normalizer

    # -- lookups -------------------------------------------------------

    def subgroup(self, elems) -> Subgroup:
        H = self.by_elems.get(_mask(elems))
        if H is None:
            raise PermchainError("element set is not a subgroup")
        return H

    def least_holding(self, mask: int, order: int = 1) -> Subgroup:
        """The subgroup the elements of `mask` generate: the first subgroup,
        listed by order, whose mask holds `mask`, looked for from the first
        of order at least `order` (a lower bound the caller knows)."""
        start = bisect_left(self.subgroups, order, key=lambda H: H.order)
        for H in islice(self.subgroups, start, None):
            if H.mask & mask == mask:
                return H
        raise PermchainError("element set is not a subgroup")

    def generated_by(self, elems) -> Subgroup:
        return self.least_holding(_mask(elems))

    def rep_of(self, H: Subgroup) -> Subgroup:
        return self.class_reps[H.class_id]

    def join(self, A: Subgroup, B: Subgroup) -> Subgroup:
        return self.least_holding(A.mask | B.mask, max(A.order, B.order))

    def maximal_proper_in(self, H: Subgroup) -> list:
        below = [K for K in self.subgroups if H.contains(K) and K.order < H.order]
        return [K for K in below if not any(L.contains(K) and L.order > K.order for L in below)]

    def normalizer(self, H: Subgroup) -> Subgroup:
        """The g with g h g^{-1} in H for each kept generator h of H; for a
        finite H that gives g H g^{-1} = H.  Kept on the lattice."""
        got = self._normalizers.get(H.mask)
        if got is None:
            t, inv = self.group.mul_table, self.group.inv_table
            member = np.zeros(self.group.order, dtype=bool)
            member[list(H.elems)] = True
            keep = np.ones(self.group.order, dtype=bool)
            for h in H.gens:
                keep &= member[t[t[:, h], inv]]  # row g: g h g^{-1}
            got = self._normalizers[H.mask] = self.subgroup(np.flatnonzero(keep).tolist())
        return got

    def center(self) -> Subgroup:
        if self._center is None:
            t = self.group.mul_table
            self._center = self.subgroup(np.flatnonzero(np.all(t == t.T, axis=1)).tolist())
        return self._center

    def centralizer(self, H: Subgroup) -> Subgroup:
        """The g with g h = h g for each kept generator h of H."""
        t = self.group.mul_table
        keep = np.ones(self.group.order, dtype=bool)
        for h in H.gens:
            keep &= t[:, h] == t[h]  # row g: g h against h g
        return self.subgroup(np.flatnonzero(keep).tolist())

    def conjugate(self, H: Subgroup, g: int) -> Subgroup:
        G = self.group
        return self.subgroup(frozenset(G.conj(g, x) for x in H.elems))

    # -- p-subgroup views ------------------------------------------------

    def p_class_reps(self, p: int) -> list:
        """One representative per conjugacy class of p-subgroups, ordered by
        increasing order then lexicographically."""
        return [H for H in self.class_reps if is_p_power(H.order, p)]

    def normal_p_subgroups(self, p: int) -> list:
        return [H for H in self.subgroups if H.is_normal and is_p_power(H.order, p)]

    def sylow_p(self, p: int) -> Subgroup:
        pk = 1
        while self.group.order % (pk * p) == 0:
            pk *= p
        return next(H for H in self.subgroups if H.order == pk)

    # -- Mobius function -------------------------------------------------

    def mobius_column(self, B: Subgroup) -> dict:
        """{A.index: mu(A, B)} over the subgroups A <= B of the lattice."""
        if self._mobius is None:
            self._mobius = mobius_columns(self.subgroups)
        return self._mobius[B.index]

    def mobius(self, A: Subgroup, B: Subgroup) -> int:
        """mu(A, B) on the whole lattice, read off B's column."""
        if not B.contains(A):
            raise NotComparable("A is not contained in B")
        return self.mobius_column(B)[A.index]

    # -- subgroup as standalone group -------------------------------------

    def as_group(self, H: Subgroup) -> FiniteGroup:
        """The subgroup as a FiniteGroup on the same permutation domain."""
        if H.mask == self.full.mask:
            return self.group
        cached = self._as_group_cache.get(H.elems)
        if cached is None:
            G = self.group
            gens = minimal_generators(H) or [G.identity]  # H = 1: one generator
            names = [f"h{i}" for i in range(len(gens))]
            cached = FiniteGroup(
                [G.elements[g] for g in gens],
                gen_names=names,
                name=None,
                max_order=max(DEFAULT_MAX_ORDER, H.order),
            )
            self._as_group_cache[H.elems] = cached
        return cached


def mobius_columns(poset) -> list:
    """The Mobius function of the containment order on `poset`, distinct
    subgroups of one group listed by increasing order: entry b is the dict
    {a: mu(poset[a], poset[b])} over the a with poset[a] <= poset[b], by
    increasing a.  Nothing is kept for the pairs that are not comparable.

    B's down-set is the a < b outside the union of the bitsets, one per
    element x not in B, of the members that hold x.  Rota's recursion
    mu(A, B) = -sum of mu(A, C) over A <= C < B adds up the columns of the
    C strictly inside B, which come before B.
    """
    holding = {}  # element -> bitset of the poset members that hold it
    for a, H in enumerate(poset):
        for x in H.elems:
            holding[x] = holding.get(x, 0) | 1 << a
    cols = []
    for b, H in enumerate(poset):
        outside = 0
        for x, bits in holding.items():
            if not H.mask >> x & 1:
                outside |= bits
        inside = format(~outside & ((1 << b) - 1), "b")[::-1]  # bit a is character a
        down = [m.start() for m in re.finditer("1", inside)]
        col = dict.fromkeys(down, 0)
        for c in down:
            for a, v in cols[c].items():
                col[a] -= v
        col[b] = 1
        cols.append(col)
    return cols


def mobius_of_poset(poset, A: Subgroup, B: Subgroup) -> int:
    """mu(A, B) on the containment order of `poset` (distinct subgroups,
    A and B among them): one entry of `mobius_columns` on it, by order."""
    if not B.contains(A):
        raise NotComparable("A is not contained in B")
    poset = sorted(poset, key=lambda H: H.order)
    return mobius_columns(poset)[poset.index(B)][poset.index(A)]


# -- operations mirroring the library surface -----------------------------


def enumerate_subgroups(G: FiniteGroup) -> SubgroupLattice:
    return G.lattice()


def p_subgroups(L: SubgroupLattice, p: int) -> list:
    if not is_prime(p):
        raise PermchainError(f"{p} is not prime")
    return L.p_class_reps(p)


class Quotient:
    """over/N, for N normal in a subgroup `over` of `source`: the projection
    `proj` on the element indices of over (-1 off it) and the coset `lifts`,
    each coset's least member in source."""

    __slots__ = ("source", "over", "normal", "group", "proj", "lifts")

    def __init__(self, source, over, normal, group, proj, lifts):
        self.source, self.over, self.normal, self.group = source, over, normal, group
        self.proj = proj  # np array: source index -> Q index
        self.lifts = lifts  # np array: Q index -> source index

    def project(self, i: int) -> int:
        return int(self.proj[i])

    def lift(self, qi: int) -> int:
        return int(self.lifts[qi])

    def generator_lifts(self) -> list:
        """Source elements lifting the quotient group's generators."""
        return [self.lift(q) for q in self.group.gen_indices]


def quotient(G: FiniteGroup, N: Subgroup, over: Subgroup | None = None) -> Quotient:
    """over/N, for N normal in over <= G (over defaults to G), kept on G.

    The cosets xN of the x in over, ordered by least member, are permuted by
    G's own generators and names if over is G, else by
    `minimal_generators(over)`, named h0, h1, ...  G/1 is G itself, with
    the identity projection."""
    L = G.lattice()
    over = over or L.full
    key, full = (over.mask, N.mask), over.mask == L.full.mask
    if key in G._quotients:
        return G._quotients[key]
    if not (over.contains(N) and L.normalizer(N).contains(over)):
        raise NotNormal("cannot form the quotient by a non-normal subgroup")
    if full and N.order == 1:
        Q, proj, lifts = G, np.arange(G.order), np.arange(G.order)
    else:
        coset_of, reps = [-1] * G.order, []
        for x in over.elems:  # by increasing index: x is the least member of a new coset
            if coset_of[x] < 0:
                for y in G.mul_table[x, list(N.elems)].tolist():
                    coset_of[y] = len(reps)
                reps.append(x)
        gens = G.gen_indices if full else minimal_generators(over) or [G.identity]
        Q = FiniteGroup(
            [tuple(coset_of[G.mul(g, r)] for r in reps) for g in gens],
            gen_names=G.gen_names if full else [f"h{i}" for i in range(len(gens))],
            name=f"{G.describe()}/N{N.order}" if full else None,
            max_order=max(DEFAULT_MAX_ORDER, len(reps)),
        )
        coset_to_q = [-1] * len(reps)  # coset of x -> the Q element x acts as
        for qi, perm in enumerate(Q.elements):
            coset_to_q[perm[coset_of[G.identity]]] = qi
        proj = np.array([coset_to_q[c] if c >= 0 else -1 for c in coset_of], dtype=np.int32)
        lifts = np.zeros(Q.order, dtype=np.int32)
        lifts[coset_to_q] = reps
    G._quotients[key] = Quotient(G, over, N, Q, proj, lifts)
    return G._quotients[key]


# -- catalog --------------------------------------------------------------


def _dihedral_perms(m: int):
    if m == 2:
        return [perm_from_cycles("(0 1)", 4), perm_from_cycles("(2 3)", 4)]
    a = tuple((i + 1) % m for i in range(m))
    b = tuple((-i) % m for i in range(m))
    return [a, b]


def _semidihedral_perms(m: int):
    # b: i -> (m/2 - 1) * i on Z/m, order two, with b a b^{-1} = a^{m/2 - 1}
    a = tuple((i + 1) % m for i in range(m))
    t = m // 2 - 1
    b = tuple((t * i) % m for i in range(m))
    return [a, b]


def _quaternion_group(m: int) -> FiniteGroup:
    """Generalized quaternion of order 2m via its regular representation.

    Normal forms a^i b^j with i < m, j < 2; relations a^m = 1, b^2 = a^(m/2),
    b a b^{-1} = a^{-1}.
    """
    order = 2 * m
    half = m // 2

    def mul_nf(x, y):
        i1, j1 = x
        i2, j2 = y
        i = (i1 + (i2 if j1 == 0 else -i2)) % m
        j = j1 + j2
        if j == 2:
            return ((i + half) % m, 0)
        return (i, j)

    elems = [(i, j) for j in range(2) for i in range(m)]
    pos = {e: k for k, e in enumerate(elems)}
    a_perm = tuple(pos[mul_nf((1, 0), e)] for e in elems)
    b_perm = tuple(pos[mul_nf((0, 1), e)] for e in elems)
    return FiniteGroup([a_perm, b_perm], gen_names=["a", "b"], name=f"Q{order}")


@lru_cache(maxsize=None)
def catalog(name: str) -> FiniteGroup:
    """Named groups with fixed generator order (a first, b second)."""
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1 or n > DEFAULT_MAX_ORDER:
            raise UnknownCatalogName(f"cyclic order out of range: {name}")
        if n == 1:
            return FiniteGroup([(0,)], gen_names=["a"], name="C1")
        a = tuple((i + 1) % n for i in range(n))
        return FiniteGroup([a], gen_names=["a"], name=name)
    if name == "V4":
        return FiniteGroup(
            [perm_from_cycles("(0 1)", 4), perm_from_cycles("(2 3)", 4)],
            gen_names=["a", "b"],
            name="V4",
        )
    m = re.fullmatch(r"CpxCp(\d+)", name)
    if m:
        p = int(m.group(1))
        if not is_prime(p) or p * p > DEFAULT_MAX_ORDER:
            raise UnknownCatalogName(f"bad elementary abelian spec: {name}")
        a = tuple([(i + 1) % p for i in range(p)] + [p + i for i in range(p)])
        b = tuple(list(range(p)) + [p + (i + 1) % p for i in range(p)])
        return FiniteGroup([a, b], gen_names=["a", "b"], name=name)
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        order = int(m.group(1))
        if order < 4 or order & (order - 1) or order > DEFAULT_MAX_ORDER:
            raise UnknownCatalogName(f"dihedral order must be a 2-power >= 4: {name}")
        return FiniteGroup(_dihedral_perms(order // 2), gen_names=["a", "b"], name=name)
    m = re.fullmatch(r"Q(\d+)", name)
    if m:
        order = int(m.group(1))
        if order < 8 or order & (order - 1) or order > DEFAULT_MAX_ORDER:
            raise UnknownCatalogName(f"quaternion order must be a 2-power >= 8: {name}")
        return _quaternion_group(order // 2)
    m = re.fullmatch(r"SD(\d+)", name)
    if m:
        order = int(m.group(1))
        if order < 16 or order & (order - 1) or order > DEFAULT_MAX_ORDER:
            raise UnknownCatalogName(f"semidihedral order must be a 2-power >= 16: {name}")
        return FiniteGroup(
            _semidihedral_perms(order // 2), gen_names=["a", "b"], name=name
        )
    if name == "A4":
        return FiniteGroup(
            [perm_from_cycles("(0 1 2)", 4), perm_from_cycles("(0 1)(2 3)", 4)],
            gen_names=["a", "b"],
            name="A4",
        )
    raise UnknownCatalogName(f"unknown catalog group {name!r}")


def group_from_spec(spec: str, max_order=DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Catalog name, or ';'-separated cycle-notation generators."""
    if spec.startswith("("):
        parts = [s for s in spec.split(";") if s.strip()]
        degree = 0
        for s in parts:
            for tok in re.findall(r"\d+", s):
                degree = max(degree, int(tok) + 1)
        gens = [perm_from_cycles(s, degree) for s in parts]
        return FiniteGroup(gens, name=None, max_order=max_order)
    return catalog(spec)


def subgroup_literal(H: Subgroup) -> str:
    """'1', 'G', or '<w1,w2,...>' in the generator words of H's
    `minimal_generators`: how module literals and class names write it."""
    G = H.parent
    if H.order == 1:
        return "1"
    if H.order == G.order:
        return "G"
    return "<" + ",".join(G.word_str(g) for g in minimal_generators(H)) + ">"


def class_name(L: SubgroupLattice, H: Subgroup) -> str:
    """Canonical display name for the conjugacy class of H, kept on the
    lattice once worked out."""
    if H.class_id not in L._class_names:
        rep = L.rep_of(H)
        central = 1 < rep.order < L.group.order and rep == L.center()
        L._class_names[H.class_id] = "Z" if central else subgroup_literal(rep)
    return L._class_names[H.class_id]
