"""Finite permutation groups, subgroup lattices and the catalog presentations.

Groups are presented by permutations of {0..n-1}.  Elements are enumerated
once, sorted lexicographically as image tuples, and all arithmetic is done on
element indices through a cached multiplication table.  Every derived object
(subgroup, conjugacy class, coset ordering, quotient) is deterministic so
that repeated runs produce byte-identical output.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .errors import (
    GroupTooLarge,
    NotComparable,
    NotNormal,
    PermchainError,
    UnknownCatalogName,
)
from .ffield import _is_prime

DEFAULT_MAX_ORDER = 500


# -- permutation helpers -----------------------------------------------


def pmul(a, b):
    """Compose permutations acting on the left: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def pinv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


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

    Immutable after construction; the subgroup lattice is computed lazily and
    cached, under the single-writer contract noted in the module docstring.
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

        n = len(elements)
        arr = np.array(elements, dtype=np.int32)
        table = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            prod = arr[i][arr]  # rows: elements[i] o elements[j]
            table[i] = [self.index[tuple(row)] for row in prod]
        self.mul_table = table
        inv = np.empty(n, dtype=np.int32)
        for i in range(n):
            inv[i] = self.index[pinv(elements[i])]
        self.inv_table = inv
        self._lattice = None
        self._orders = None
        # values other modules derive from this group alone
        self._mark_table = None  # burnside.mark_table
        self._quotient_cache = {}  # subgroup elems -> invariants.cached_quotient
        self._brauer_ctx_cache = {}  # p-subgroup elems -> modules.brauer_context

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

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

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
        return _closure(self, comms)

    def abelianization_order(self) -> int:
        return self.order // len(self.commutator_subgroup_elems())

    def lattice(self) -> "SubgroupLattice":
        if self._lattice is None:
            self._lattice = SubgroupLattice(self)
        return self._lattice

    def describe(self) -> str:
        return self.name or f"<perm group of order {self.order} on {self.degree} points>"

    def __repr__(self):
        return f"FiniteGroup({self.describe()})"


def _closure(G: FiniteGroup, seed) -> frozenset:
    elems = set(seed) | {G.identity}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for s in list(elems):
                for y in (G.mul(x, s), G.mul(s, x)):
                    if y not in elems:
                        elems.add(y)
                        new.append(y)
        frontier = new
    return frozenset(elems)


# -- subgroups and the lattice ------------------------------------------


class Subgroup:
    """A subgroup as a sorted tuple of element indices of its parent."""

    __slots__ = ("parent", "elems", "elemset", "class_id", "is_normal", "conj_to_rep")

    def __init__(self, parent, elems, class_id=-1, is_normal=False, conj_to_rep=None):
        self.parent = parent
        self.elems = tuple(sorted(elems))
        self.elemset = frozenset(self.elems)
        self.class_id = class_id
        self.is_normal = is_normal
        self.conj_to_rep = conj_to_rep  # g with self = g . rep . g^{-1}

    @property
    def order(self) -> int:
        return len(self.elems)

    def contains(self, other: "Subgroup") -> bool:
        return other.elemset <= self.elemset

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elems == other.elems
        )

    def __hash__(self):
        return hash((id(self.parent), self.elems))

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent.describe()})"


def minimal_generators(G: FiniteGroup, elems) -> list:
    """Deterministic small generating set: greedy over sorted element indices."""
    elems = sorted(elems)
    gens = []
    have = frozenset({G.identity})
    for x in elems:
        if x in have:
            continue
        gens.append(x)
        have = _closure(G, set(have) | {x})
        if len(have) == len(elems):
            break
    return gens


class SubgroupLattice:
    """All subgroups of a finite group with conjugacy and containment data.

    Subgroups are enumerated by closing sets of cyclic generators; class
    representatives are the lexicographically least members.  Enumeration is
    feasible at the supported group sizes only - this is desk-scale code.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        n = G.order

        cyclic = {}
        for x in range(n):
            s = {G.identity}
            acc = x
            while acc != G.identity:
                s.add(acc)
                acc = G.mul(acc, x)
            cyclic.setdefault(frozenset(s), x)
        cyc_list = sorted(cyclic.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

        found = {frozenset({G.identity})}
        queue = [frozenset({G.identity})]
        while queue:
            H = queue.pop(0)
            for cset, x in cyc_list:
                if x in H:
                    continue
                new = _closure(G, H | {x})
                if new not in found:
                    found.add(new)
                    queue.append(new)

        sets = sorted(found, key=lambda s: (len(s), sorted(s)))
        set_index = {s: i for i, s in enumerate(sets)}

        # conjugacy classes, walking each orbit from its representative
        class_of = [-1] * len(sets)
        conj_elem = [G.identity] * len(sets)
        classes = []
        for i, s in enumerate(sets):
            if class_of[i] != -1:
                continue
            cid = len(classes)
            members = [i]
            class_of[i] = cid
            frontier = [(s, G.identity)]
            while frontier:
                cur, via = frontier.pop(0)
                for g in G.gen_indices:
                    img = frozenset(G.conj(g, x) for x in cur)
                    j = set_index[img]
                    if class_of[j] == -1:
                        class_of[j] = cid
                        conj_elem[j] = G.mul(g, via)
                        members.append(j)
                        frontier.append((img, G.mul(g, via)))
            classes.append(sorted(members))

        self.subgroups = []
        for i, s in enumerate(sets):
            self.subgroups.append(
                Subgroup(
                    G,
                    s,
                    class_id=class_of[i],
                    is_normal=len(classes[class_of[i]]) == 1,
                    conj_to_rep=conj_elem[i],
                )
            )
        self.by_elems = {H.elemset: H for H in self.subgroups}
        self.classes = classes  # lists of subgroup indices; [0] is the rep
        self.class_reps = [self.subgroups[c[0]] for c in classes]
        self.trivial = self.subgroups[0]
        self.full = self.subgroups[-1]
        self._as_group_cache = {}
        self._mobius_cache = {}

    # -- lookups -------------------------------------------------------

    def subgroup(self, elems) -> Subgroup:
        key = frozenset(elems)
        H = self.by_elems.get(key)
        if H is None:
            raise PermchainError("element set is not a subgroup")
        return H

    def generated_by(self, elems) -> Subgroup:
        return self.subgroup(_closure(self.group, set(elems)))

    def rep_of(self, H: Subgroup) -> Subgroup:
        return self.class_reps[H.class_id]

    def join(self, A: Subgroup, B: Subgroup) -> Subgroup:
        return self.generated_by(A.elemset | B.elemset)

    def subgroups_of(self, H: Subgroup) -> list:
        return [K for K in self.subgroups if H.contains(K)]

    def maximal_proper_in(self, H: Subgroup) -> list:
        below = [K for K in self.subgroups_of(H) if K.order < H.order]
        out = []
        for K in below:
            if not any(L.contains(K) and L.order > K.order for L in below):
                out.append(K)
        return out

    def normalizer(self, H: Subgroup) -> Subgroup:
        G = self.group
        elems = [
            g
            for g in range(G.order)
            if frozenset(G.conj(g, x) for x in H.elems) == H.elemset
        ]
        return self.subgroup(elems)

    def centralizer(self, H: Subgroup) -> Subgroup:
        G = self.group
        elems = [
            g
            for g in range(G.order)
            if all(G.mul(g, x) == G.mul(x, g) for x in H.elems)
        ]
        return self.subgroup(elems)

    def conjugate(self, H: Subgroup, g: int) -> Subgroup:
        G = self.group
        return self.subgroup(frozenset(G.conj(g, x) for x in H.elems))

    # -- p-subgroup views ------------------------------------------------

    def p_class_reps(self, p: int) -> list:
        """One representative per conjugacy class of p-subgroups, ordered by
        increasing order then lexicographically."""
        return [H for H in self.class_reps if _is_p_power(H.order, p)]

    def normal_p_subgroups(self, p: int) -> list:
        return [
            H
            for H in self.subgroups
            if H.is_normal and _is_p_power(H.order, p)
        ]

    def sylow_p(self, p: int) -> Subgroup:
        pk = 1
        while self.group.order % (pk * p) == 0:
            pk *= p
        cands = [H for H in self.subgroups if H.order == pk and _is_p_power(pk, p)]
        return cands[0]

    # -- Mobius function -------------------------------------------------

    def mobius(self, A: Subgroup, B: Subgroup) -> int:
        return mobius_of_poset(self.subgroups, A, B, cache=self._mobius_cache)

    # -- subgroup as standalone group -------------------------------------

    def as_group(self, H: Subgroup) -> FiniteGroup:
        """The subgroup as a FiniteGroup on the same permutation domain."""
        if H.elemset == self.full.elemset:
            return self.group
        cached = self._as_group_cache.get(H.elems)
        if cached is None:
            G = self.group
            gens = minimal_generators(G, H.elems)
            names = [f"h{i}" for i in range(len(gens))]
            cached = FiniteGroup(
                [G.elements[g] for g in gens],
                gen_names=names,
                name=None,
                max_order=max(DEFAULT_MAX_ORDER, H.order),
            )
            self._as_group_cache[H.elems] = cached
        return cached


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def mobius_of_poset(poset, A: Subgroup, B: Subgroup, cache=None) -> int:
    """Standard Mobius function of the containment poset given by `poset`
    (any list of subgroups closed enough to contain every C with A<=C<=B)."""
    if not B.contains(A):
        raise NotComparable("A is not contained in B")
    if cache is None:
        cache = {}
    key_poset = tuple(sorted(H.elems for H in poset))

    def mu(a: Subgroup, b: Subgroup) -> int:
        if a.elems == b.elems:
            return 1
        key = (key_poset, a.elems, b.elems)
        if key in cache:
            return cache[key]
        total = 0
        for C in poset:
            if C.order < b.order and C.contains(a) and b.contains(C):
                total += mu(a, C)
        cache[key] = -total
        return -total

    return mu(A, B)


# -- operations mirroring the library surface -----------------------------


def enumerate_subgroups(G: FiniteGroup) -> SubgroupLattice:
    return G.lattice()


def p_subgroups(L: SubgroupLattice, p: int) -> list:
    if not _is_prime(p):
        raise PermchainError(f"{p} is not prime")
    return L.p_class_reps(p)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    return G.lattice().normalizer(H)


def centralizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    return G.lattice().centralizer(H)


class Quotient:
    """G/N together with the projection on element indices and coset lifts."""

    __slots__ = ("source", "normal", "group", "proj", "lifts")

    def __init__(self, source, normal, group, proj, lifts):
        self.source = source
        self.normal = normal
        self.group = group
        self.proj = proj  # np array: G index -> Q index
        self.lifts = lifts  # np array: Q index -> G index

    def project(self, i: int) -> int:
        return int(self.proj[i])

    def lift(self, qi: int) -> int:
        return int(self.lifts[qi])


def quotient(G: FiniteGroup, N: Subgroup) -> Quotient:
    """The quotient group on coset representatives plus the surjection."""
    if not N.is_normal:
        raise NotNormal("cannot form the quotient by a non-normal subgroup")
    order = G.order
    coset_of = [-1] * order
    reps = []
    for x in range(order):
        if coset_of[x] != -1:
            continue
        members = sorted(G.mul(x, n) for n in N.elems)
        rep = members[0]
        for m in members:
            coset_of[m] = len(reps)
        reps.append(rep)
    # reorder cosets by representative index (reps are discovered in order)
    k = len(reps)
    gen_perms = []
    for g in G.gen_indices:
        gen_perms.append(tuple(coset_of[G.mul(g, reps[c])] for c in range(k)))
    Q = FiniteGroup(
        gen_perms,
        gen_names=G.gen_names,
        name=f"{G.describe()}/N{N.order}",
        max_order=max(DEFAULT_MAX_ORDER, k),
    )
    # match each coset to the Q element given by left multiplication
    ident_coset = coset_of[G.identity]
    coset_to_q = [-1] * k
    for qi, perm in enumerate(Q.elements):
        coset_to_q[perm[ident_coset]] = qi
    proj = np.array([coset_to_q[coset_of[x]] for x in range(order)], dtype=np.int32)
    lifts = np.zeros(Q.order, dtype=np.int32)
    for c in range(k):
        lifts[coset_to_q[c]] = reps[c]
    return Quotient(G, N, Q, proj, lifts)


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
        if not _is_prime(p) or p * p > DEFAULT_MAX_ORDER:
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


def class_name(L: SubgroupLattice, H: Subgroup) -> str:
    """Canonical display name for the conjugacy class of H."""
    rep = L.rep_of(H)
    G = L.group
    if rep.order == 1:
        return "1"
    if rep.order == G.order:
        return "G"
    t = G.mul_table
    center = np.flatnonzero(np.all(t == t.T, axis=1)).tolist()
    if rep.elemset == frozenset(center):
        return "Z"
    gens = minimal_generators(G, rep.elems)
    return "<" + ",".join(G.word_str(g) for g in gens) + ">"
