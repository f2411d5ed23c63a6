"""Modules over group algebras kG in characteristic p.

The paper's modules are twisted permutation modules: on their basis X
every generator g acts monomially, g.e_j = c_j e_{pi(j)}, by a permutation
pi of X and one twist code c_j per point.  `KgModule` stores exactly that,
and sums, twists, duals, tensors, restriction and inflation are index
arithmetic and lookups in the field's multiplication table.  So are the
commutation check of a `ModuleMap` (rows against columns, both moved and
scaled) and the action on a block of vectors.  A subquotient (a homology
module, a Brauer quotient) is read as its action: one exact matrix per
generator.

On a monomial basis X the Brauer construction at a p-subgroup P is k[X^P]:
the points that P's permutations fix (`fixed_basis_points`), permuted by
N_G(P)/P (`point_action`, `brauer_points`).  That group is
`local_quotient(P)`, the quotient of the section N_G(P) of G by P, built
from G's tables and kept on G; at P = 1 it is G.  Restriction to H lands
over the section H/1, from the same constructor.
`brauer_quotient`, M^P modulo relative traces by linear algebra, has no
caller in the package; the tests build their reference construction on
it.  Syzygies and free summands are in `syzygies`.

Direct-sum decompositions into twisted transitive permutation summands are
construction provenance: they are attached when a constructor knows them
and never recovered by a decomposition algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleHandles, NotNested, PermchainError
from .ffield import FqField, FqScalar
from .groups import FiniteGroup, Quotient, Subgroup, is_p_power, quotient
from .linalg import FqMatrix, hstack, image_basis, kernel_basis, quotient_space, solve_matrix, vstack


# -- degree one characters ------------------------------------------------


def word_steps(G: FiniteGroup):
    """x -> (k, y) for every element x of G but the identity, in order of
    word length: x is generator k times y, whose word is x's without its
    first letter, so y comes before x.  Computed on first use and kept on G,
    as `G._word_steps`."""
    steps = G.__dict__.get("_word_steps")
    if steps is None:
        by_length = sorted(range(G.order), key=lambda x: len(G.words[x]))
        firsts = ((x, G.words[x][0]) for x in by_length if G.words[x])
        steps = {x: (k, G.mul(G.inv(G.gen_indices[k]), x)) for x, k in firsts}
        steps = G._word_steps = MappingProxyType(steps)
    return steps


class Character:
    """A degree one representation G -> F_q^x, stored by generator values and
    by element values.  Given generator values, it walks the element values
    along the group's words (`word_steps`); derived characters (products,
    inverses, powers, the trivial character) take them pointwise from their
    factors, as (chi psi)(g) = chi(g) psi(g)."""

    __slots__ = ("group", "field", "values", "_elem_values")

    def __init__(self, group: FiniteGroup, field: FqField, values, check=True):
        self.group, self.field = group, field
        self.values = tuple(int(v) for v in values)
        if len(self.values) != len(group.generators):
            raise PermchainError("one value per group generator required")
        rows = [field.mul[v].tolist() for v in self.values]
        ev = [0] * group.order
        ev[group.identity] = 1
        for x, (k, y) in word_steps(group).items():
            ev[x] = rows[k][ev[y]]
        self._elem_values = tuple(ev)
        if check:
            if any(v == 0 for v in self.values):
                raise PermchainError("character values must be units")
            for row, g in zip(rows, group.gen_indices):  # v_g chi(x) == chi(g x) for every x
                gx = group.mul_table[g].tolist()
                if list(map(row.__getitem__, ev)) != list(map(ev.__getitem__, gx)):
                    raise PermchainError("generator values do not extend to a homomorphism")

    def value(self, elem: int) -> FqScalar:
        return FqScalar(self.field, self._elem_values[elem])

    def value_code(self, elem: int) -> int:
        return self._elem_values[elem]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __mul__(self, other: "Character") -> "Character":
        if self.group is not other.group or self.field != other.field:
            raise IncompatibleHandles("characters on different groups or fields")
        rows = {x: self.field.mul[x].tolist() for x in set(self.values + self._elem_values)}
        ev = [rows[x][y] for x, y in zip(self._elem_values, other._elem_values)]
        return _character(self.group, self.field, [rows[x][y] for x, y in zip(self.values, other.values)], ev)

    def _composed(self, table) -> "Character":
        """Every value mapped through `table`, a map of F_q^x to itself."""
        ev = table[list(self._elem_values)].tolist()
        return _character(self.group, self.field, table[list(self.values)].tolist(), ev)

    def inverse(self) -> "Character":
        return self._composed(self.field.inv)

    def __pow__(self, k: int) -> "Character":
        base = self if k >= 0 else self.inverse()
        out = trivial_character(self.group, self.field)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group is other.group
            and self.field == other.field
            and self._elem_values == other._elem_values
        )

    def __hash__(self):
        return hash((id(self.group), self.field, self._elem_values))

    def __repr__(self):
        vals = ",".join(self.field.format(v) for v in self.values)
        return f"Character({vals})"


def _character(G: FiniteGroup, field: FqField, values, elem_values) -> Character:
    """The character with these codes at the generators and at every element."""
    out = Character.__new__(Character)
    out.group, out.field = G, field
    out.values, out._elem_values = tuple(values), tuple(elem_values)
    return out


def trivial_character(G: FiniteGroup, field: FqField) -> Character:
    return _character(G, field, (1,) * len(G.generators), (1,) * G.order)


def character_warning(G: FiniteGroup, field: FqField):
    """Warn when F_q may be too small to carry every degree one character of
    G: the p'-part of the abelianization must divide q - 1."""
    import warnings

    ab = G.abelianization_order()
    p = field.p
    while ab % p == 0:
        ab //= p
    if (field.q - 1) % ab != 0:
        warnings.warn(
            f"F_{field.q} may miss degree one characters of {G.describe()}: "
            f"p'-part of the abelianization is {ab}, but q - 1 = {field.q - 1}",
            stacklevel=2,
        )


def all_characters(G: FiniteGroup, field: FqField) -> list:
    """Every homomorphism G -> F_q^x: each choice of unit generator values
    that passes `Character`'s check."""
    out = []
    for values in product(range(1, field.q), repeat=len(G.gen_indices)):
        try:
            out.append(Character(G, field, values))
        except PermchainError:
            pass
    return out


# -- modules ---------------------------------------------------------------


class Summand(NamedTuple):
    """One transitive twisted permutation summand: character, point
    stabilizer, and the basis indices it occupies."""

    character: Character
    subgroup: Subgroup
    indices: tuple


class KgModule:
    """A kG-module on the basis e_0, ..., e_{dim-1}: for each generator g a
    permutation `perms[g]` of the basis indices and one twist code per
    index, `twists[g]`, with g.e_j = twists[g][j] e_{perms[g][j]}.
    Twisted permutation modules and every operation on them (sums, twists,
    duals, tensors, restriction, inflation, Brauer points) have this form.

    With `check=True`, labels are rebuilt from the orbits of the
    permutations (`_orbit_summands`): each summand must be one orbit in
    increasing order, labeled by its first point's stabilizer and twisted
    by its character's values.  `act`, `act_right`, `apply` and
    `elem_monomial` move and scale rows and columns; no matrix of the
    action is built.
    """

    __slots__ = ("group", "field", "dim", "labels", "perms", "twists", "_mono_cache", "_fixed_cache")

    def __init__(self, group, field, perms, twists, labels=None, check=True):
        self.group = group
        self.field = field
        ngens = len(group.generators)
        self.perms = tuple(np.asarray(x, dtype=np.intp) for x in perms)
        self.twists = tuple(np.asarray(c, dtype=np.int16) for c in twists)
        if len(self.perms) != ngens or len(self.twists) != ngens:
            raise PermchainError("one permutation and twist list per group generator required")
        self.dim = len(self.perms[0]) if self.perms else 0
        shapes = {x.shape for x in self.perms} | {c.shape for c in self.twists}
        if shapes - {(self.dim,)}:
            raise PermchainError("generator permutations must be of equal length")
        self._mono_cache = {group.identity: (np.arange(self.dim), np.ones(self.dim, dtype=np.int16))}
        self.labels = tuple(labels) if labels is not None else None
        self._fixed_cache = {}
        if self.labels is not None and sum(len(s.indices) for s in self.labels) != self.dim:
            raise PermchainError("summand labels do not cover the basis")
        if check:
            self._verify_relations()
            if self.labels is not None:
                self._verify_labels()

    def _verify_relations(self):
        """Relation check: each generator permutes the basis with unit
        twists, and the BFS word assignment is consistent, i.e. gen * elem
        lands on the action already assigned to the product."""
        G = self.group
        for x, c in zip(self.perms, self.twists):
            if self.dim and (x.min() < 0 or (np.bincount(x, minlength=self.dim) != 1).any()):
                raise PermchainError("generator images are not a permutation of the basis")
            if ((c <= 0) | (c >= self.field.q)).any():
                raise PermchainError("twists must be unit codes")
        for gi, g in enumerate(G.gen_indices):
            for x in range(G.order):
                have = _compose(self.field, self._gen_monomial(gi), self.elem_monomial(x))
                if not all(map(np.array_equal, have, self.elem_monomial(G.mul(g, x)))):
                    raise PermchainError("generator matrices violate the group relations")

    def _verify_labels(self):
        G = self.group
        for s in self.labels:
            if s.character.group is not G or s.subgroup.parent is not G:
                raise IncompatibleHandles("summand label over another group")
            idx = np.asarray(s.indices, dtype=np.intp)
            if ((idx < 0) | (idx >= self.dim)).any():
                raise PermchainError("summand indices outside the basis")
            if any((c[idx] != v).any() for c, v in zip(self.twists, s.character.values)):
                raise PermchainError("summand twists are not its character's values")
        rebuilt = _orbit_summands(self, [(s.character, s.indices) for s in self.labels])
        if [(r.subgroup, r.indices) for r in rebuilt] != [
            (s.subgroup, tuple(s.indices)) for s in self.labels
        ]:
            raise PermchainError("summand labels are not orbits labeled by their stabilizers")
        self.labels = tuple(rebuilt)

    def _gen_monomial(self, gi: int):
        return self.perms[gi], self.twists[gi]

    def elem_monomial(self, i: int):
        """(permutation, twists) of group element i on a monomial module,
        composed along its BFS word."""
        got = self._mono_cache.get(i)
        if got is None:
            k, rest = word_steps(self.group)[i]
            got = _compose(self.field, self._gen_monomial(k), self.elem_monomial(rest))
            self._mono_cache[i] = got
        return got

    def element_perms(self) -> np.ndarray:
        """Row e: the permutation of the basis by group element e."""
        return np.array([self.elem_monomial(e)[0] for e in range(self.group.order)])

    def act(self, gi: int, X: FqMatrix) -> FqMatrix:
        """Generator gi applied to the columns of X."""
        return _move_rows(self.field, *self._gen_monomial(gi), X)

    def act_right(self, X: FqMatrix, gi: int) -> FqMatrix:
        """X times the matrix of generator gi: column j of the product is
        column perms[gi][j] of X scaled by twists[gi][j], a unit code; if
        the largest is 1, the columns are only moved."""
        cols = X.a[:, self.perms[gi]]
        tw = self.twists[gi]
        if self.field.q > 2 and tw.max(initial=1) > 1:
            cols = self.field.mul[cols, tw[None, :]]
        return FqMatrix(self.field, cols)

    def apply(self, i: int, X: FqMatrix) -> FqMatrix:
        """Group element i applied to the columns of X."""
        return _move_rows(self.field, *self.elem_monomial(i), X)

    def fixed_points(self, P: Subgroup) -> FqMatrix:
        """Column basis of the P-fixed subspace: the kernel of g - 1 stacked
        over the generators g of P."""
        key = P.elems
        got = self._fixed_cache.get(key)
        if got is None:
            eye = FqMatrix.identity(self.field, self.dim)
            got = kernel_basis(vstack([self.apply(g, eye) - eye for g in P.gens])) if P.gens else eye
            self._fixed_cache[key] = got
        return got

    def __repr__(self):
        return f"KgModule(dim {self.dim} over {self.group.describe()}, F{self.field.q})"


def monomial_trace(f: FqField, terms) -> int:
    """The code of sum_k n_k tr(x_k) over the (n_k, perm, twists) of
    `terms`: integers n_k and monomial actions x_k.  tr(x) is the field sum
    of x's twists at the points x fixes, so each twist code is counted with
    its n_k, the counts are reduced mod p (an integer n < p has code n), and
    the field adds up count times code."""
    counts = {}
    for n, perm, tw in terms:
        for j, (x, c) in enumerate(zip(perm.tolist(), tw.tolist())):
            if x == j:
                counts[c] = counts.get(c, 0) + n
    total = 0
    for c, n in counts.items():
        total = f.add[total, f.mul[c, n % f.p]]
    return int(total)


def _compose(f: FqField, outer, inner):
    """The monomial action of A.B, for A = (perm, twists) and B likewise:
    A(B e_j) = c_B[j] c_A[pi_B(j)] e_{pi_A(pi_B(j))}."""
    (perm, tw), (iperm, itw) = outer, inner
    return perm[iperm], f.mul[itw, tw[iperm]]


def _move_rows(f: FqField, perm, tw, X: FqMatrix) -> FqMatrix:
    """The monomial matrix (perm, tw) times X: row j of X, scaled by tw[j],
    becomes row perm[j]; unscaled if every twist is 1."""
    rows = f.mul[tw[:, None], X.a] if f.q > 2 and tw.max(initial=1) > 1 else X.a
    out = np.empty_like(X.a)
    out[perm] = rows
    return FqMatrix(f, out)


def _orbit_summands(M: KgModule, parts) -> list:
    """Summands of a monomial M from (character, indices) pairs: the indices
    of each pair split into the orbits of M's permutations, one summand per
    orbit, in increasing order and labeled by the stabilizer of its first
    point.  Points of an orbit already found are skipped.  Orbits are sorted
    in Python: the first `np.unique` imports `numpy.ma`, which raised the
    peak memory of a catalog pass by about 0.9 MB."""
    lat = M.group.lattice()
    eperms = M.element_perms()
    seen = np.zeros(M.dim, dtype=bool)
    out = []
    for char, indices in parts:
        for t0 in indices:
            if seen[t0]:
                continue
            images = eperms[:, t0]
            seen[images] = True
            images = images.tolist()
            stab = [g for g, x in enumerate(images) if x == t0]
            out.append(Summand(char, lat.subgroup(stab), tuple(sorted(set(images)))))
    return out


@dataclass
class ModuleMap:
    """A kG-homomorphism; commutes with every generator action.

    On monomial modules each check permutes and scales the rows and the
    columns of the matrix, and compares the two results entry for entry."""

    source: KgModule
    target: KgModule
    matrix: FqMatrix

    def __post_init__(self):
        if self.source.group is not self.target.group or self.source.field != self.target.field:
            raise IncompatibleHandles("module map between incompatible modules")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise PermchainError(
                f"map matrix has shape {self.matrix.shape}, expected "
                f"({self.target.dim}, {self.source.dim})"
            )
        for gi in range(len(self.source.group.generators)):
            if self.target.act(gi, self.matrix) != self.source.act_right(self.matrix, gi):
                raise PermchainError("matrix does not commute with the group action")

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


# -- constructors ----------------------------------------------------------


def zero_module(G: FiniteGroup, field: FqField) -> KgModule:
    empty = [()] * len(G.generators)
    return KgModule(G, field, perms=empty, twists=empty, labels=(), check=False)


def trivial_module(G: FiniteGroup, field: FqField) -> KgModule:
    return one_dim_module(trivial_character(G, field))


def one_dim_module(char: Character) -> KgModule:
    G, f = char.group, char.field
    full = G.lattice().full
    return KgModule(
        G, f,
        perms=[(0,)] * len(char.values),
        twists=[(v,) for v in char.values],
        labels=(Summand(char, full, (0,)),),
        check=False,
    )


class CosetBasis(NamedTuple):
    """The basis of k[G/H]: the left cosets, ordered by their least members
    `reps`, and `gen_perms[k]`, how generator k permutes them.  Every array
    is read-only."""

    reps: np.ndarray
    gen_perms: tuple


def coset_basis(H: Subgroup) -> CosetBasis:
    """G/H from the rows of G's multiplication table: row x of its columns
    at H is the coset xH, x is the least member of its coset iff it is the
    row's minimum, and generator g sends the coset of x to that of gx.
    Computed on first use and kept by H's lattice, in `_coset_bases`."""
    G = H.parent
    cache = G.lattice().__dict__.setdefault("_coset_bases", {})  # subgroup mask -> CosetBasis
    got = cache.get(H.mask)
    if got is None:
        rows = G.mul_table[:, H.elems]
        reps = np.flatnonzero(rows.min(axis=1) == np.arange(G.order))
        member = np.empty(G.order, dtype=np.intp)
        member[rows[reps]] = np.arange(len(reps))[:, None]
        perms = member[G.mul_table[np.ix_(G.gen_indices, reps)]]
        reps.flags.writeable = perms.flags.writeable = False
        got = cache[H.mask] = CosetBasis(reps, tuple(perms))
    return got


def coset_list(G: FiniteGroup, H: Subgroup) -> list:
    """Left cosets gH as sorted tuples, ordered by least member: the basis of
    k[G/H], each coset rH read off its least member r (`coset_basis`)."""
    if H.parent is not G:
        raise IncompatibleHandles("cosets of a subgroup of another group")
    return [tuple(sorted(G.mul_table[r, list(H.elems)].tolist())) for r in coset_basis(H).reps]


def perm_module(G: FiniteGroup, H: Subgroup, field: FqField) -> KgModule:
    """k[G/H] on the basis of `coset_list`, with the read-only generator
    permutations of `coset_basis`: k[G/H] over every field shares them."""
    if H.parent is not G:
        raise IncompatibleHandles("permutation module of a subgroup of another group")
    perms = coset_basis(H).gen_perms
    dim = G.order // H.order
    labels = (Summand(trivial_character(G, field), H, tuple(range(dim))),)
    ones = [np.ones(dim, dtype=np.int16)] * len(perms)
    return KgModule(G, field, perms=perms, twists=ones, labels=labels, check=False)


def regular_module(G: FiniteGroup, field: FqField) -> KgModule:
    return perm_module(G, G.lattice().trivial, field)


def free_module(G: FiniteGroup, field: FqField, rank_: int) -> KgModule:
    return direct_sum([regular_module(G, field)] * rank_) if rank_ else zero_module(G, field)


def direct_sum(mods) -> KgModule:
    mods = list(mods)
    if not mods:
        raise PermchainError("empty direct sum needs an explicit group")
    G, f = mods[0].group, mods[0].field
    for m in mods:
        if m.group is not G or m.field != f:
            raise IncompatibleHandles("direct sum over mixed groups or fields")
    gens = range(len(G.generators))
    offsets = list(accumulate([m.dim for m in mods[:-1]], initial=0))
    perms = [np.concatenate([m.perms[gi] + o for m, o in zip(mods, offsets)]) for gi in gens]
    twists = [np.concatenate([m.twists[gi] for m in mods]) for gi in gens]
    labels = None
    if all(m.labels is not None for m in mods):
        labels = tuple(
            Summand(s.character, s.subgroup, tuple(map(o.__add__, s.indices)))
            for m, o in zip(mods, offsets)
            for s in m.labels
        )
    return KgModule(G, f, perms=perms, twists=twists, labels=labels, check=False)


def _relabel(M: KgModule, twists, char_map) -> KgModule:
    """M with new twists on the same permutations, and each summand's
    character replaced by char_map of it."""
    labels = None
    if M.labels is not None:
        labels = tuple(Summand(char_map(s.character), s.subgroup, s.indices) for s in M.labels)
    return KgModule(M.group, M.field, perms=M.perms, twists=twists, labels=labels, check=False)


def twist(M: KgModule, char: Character) -> KgModule:
    """M tensored with k_char: every twist of generator g times char(g)."""
    if char.group is not M.group or char.field != M.field:
        raise IncompatibleHandles("twisting character on a different group or field")
    twists = [M.field.mul[c, v] for c, v in zip(M.twists, char.values)]
    return _relabel(M, twists, lambda x: x * char)


def dual(M: KgModule) -> KgModule:
    """The dual action on the dual basis: the inverse transpose of
    c_j e_{pi(j)} keeps pi and inverts every twist."""
    return _relabel(M, [M.field.inv[c] for c in M.twists], Character.inverse)


def tensor(M: KgModule, N: KgModule) -> KgModule:
    """Diagonal action on the Kronecker basis e_i (x) e_j -> i*dim(N)+j:
    the product permutation, with twists multiplied.

    If both factors carry labels, each pair of summands is split into the
    orbits of the product permutation (`_orbit_summands`).
    """
    if M.group is not N.group or M.field != N.field:
        raise IncompatibleHandles("tensor over mixed groups or fields")
    G, f, n = M.group, M.field, N.dim
    perms = [(a[:, None] * n + b[None, :]).ravel() for a, b in zip(M.perms, N.perms)]
    twists = [f.mul[a[:, None], b[None, :]].ravel() for a, b in zip(M.twists, N.twists)]
    T = KgModule(G, f, perms=perms, twists=twists, check=False)
    if M.labels is not None and N.labels is not None:
        pairs = [
            (s1.character * s2.character, [x * n + y for x in s1.indices for y in s2.indices])
            for s1 in M.labels
            for s2 in N.labels
        ]
        T.labels = tuple(_orbit_summands(T, pairs))
    return T


def _elements_acting(M: KgModule, H: FiniteGroup, elems) -> KgModule:
    """The module over H whose i-th generator acts as M's element elems[i].

    Labels are pulled back along the same map: each summand's character
    takes the value of its elems[i] at generator i, and its points split
    into H's orbits (`_orbit_summands`)."""
    mono = [M.elem_monomial(x) for x in elems]
    R = KgModule(H, M.field, perms=[x for x, _ in mono], twists=[c for _, c in mono], check=False)
    if M.labels is not None:
        parts = [
            (Character(H, M.field, map(s.character.value_code, elems), check=False), s.indices)
            for s in M.labels
        ]
        R.labels = tuple(_orbit_summands(R, parts))
    return R


def restrict(M: KgModule, H: Subgroup) -> KgModule:
    """Restriction along H <= G; the result lives over the section H/1 of G
    (`quotient`), which is G itself when H is.

    Labels follow Mackey: a summand w (x) k[G/K] splits into the H-orbits of
    its points, each labeled by Res_H w and its stabilizer H n gKg^{-1}."""
    if H.parent is not M.group:
        raise IncompatibleHandles("restriction to a subgroup of another group")
    Q = quotient(M.group, M.group.lattice().trivial, H)
    if Q.group is M.group:
        return M
    return _elements_acting(M, Q.group, Q.generator_lifts())


def inflate(M: KgModule, quot: Quotient) -> KgModule:
    """Inflation along the projection quot.source -> quot.group, for a
    quotient of the whole source; a summand stays one orbit, labeled by the
    preimage of its subgroup."""
    if M.group is not quot.group:
        raise IncompatibleHandles("module is not over the quotient group")
    if quot.over.order != quot.source.order:
        raise IncompatibleHandles("inflation along a quotient of a proper subgroup")
    return _elements_acting(M, quot.source, [quot.project(g) for g in quot.source.gen_indices])


# -- fixed points, traces, Brauer construction ------------------------------


def trace_map(M: KgModule, Q: Subgroup, P: Subgroup) -> FqMatrix:
    """Matrix of the relative trace from Q-fixed to P-fixed coordinates:
    summing one translate per coset in P/Q."""
    if not P.contains(Q):
        raise NotNested("trace requires Q <= P")
    G = M.group
    reps = []
    seen = set()
    for x in P.elems:
        if x in seen:
            continue
        coset = {G.mul(x, q) for q in Q.elems}
        seen |= coset
        reps.append(min(coset))
    FQ = M.fixed_points(Q)
    FP = M.fixed_points(P)
    total = None
    for r in sorted(reps):
        term = M.apply(r, FQ)
        total = term if total is None else total + term
    out = solve_matrix(FP, total)
    if out is None:
        raise PermchainError("trace image escaped the P-fixed subspace")
    return out


def local_quotient(P: Subgroup) -> Quotient:
    """N_G(P)/P, the group the Brauer construction at P is a module over: a
    section quotient of G (`groups.quotient`), kept on G.  At P = 1 it is G."""
    return quotient(P.parent, P, P.parent.lattice().normalizer(P))


@dataclass
class BrauerData:
    """A Brauer quotient M(P) with its coordinate bookkeeping.

    action: one matrix per generator of N_G(P)/P on M(P) (q x q)
    fixed: basis of M^P in ambient coordinates (dim x f)
    proj: M^P-coordinates -> M(P)-coordinates (q x f)
    section: one-sided inverse of proj (f x q)
    """

    action: list
    ctx: Quotient  # N_G(P)/P
    fixed: FqMatrix
    proj: FqMatrix
    section: FqMatrix


def brauer_quotient(M: KgModule, P: Subgroup) -> BrauerData:
    """M^P modulo all relative traces from maximal subgroups of P, with
    the action of N_G(P)/P on it.  Non-p-subgroups give the zero space."""
    G, f = M.group, M.field
    ctx = local_quotient(P)
    if not is_p_power(P.order, f.p):
        e = FqMatrix.zeros(f, 0, 0)
        return BrauerData([e] * len(ctx.group.generators), ctx, FqMatrix.zeros(f, M.dim, 0), e, e)
    F = M.fixed_points(P)
    lat = G.lattice()
    traced = []
    for Qsub in lat.maximal_proper_in(P):
        traced.append(trace_map(M, Qsub, P))
    if traced:
        W = image_basis(hstack(traced))
    else:
        W = FqMatrix.zeros(f, F.cols, 0)
    section, proj = quotient_space(FqMatrix.identity(f, F.cols), W)
    reps = F @ section
    mats = []
    for g in ctx.generator_lifts():
        coords = solve_matrix(F, M.apply(g, reps))
        if coords is None:
            raise PermchainError("normalizer action does not preserve fixed points")
        mats.append(proj @ coords)
    return BrauerData(mats, ctx, F, proj, section)


def fixed_basis_points(M: KgModule, P: Subgroup) -> np.ndarray:
    """X^P in increasing order: the basis points of M that P fixes; none
    at a non-p-subgroup."""
    if P.parent is not M.group:
        raise IncompatibleHandles("Brauer points at a subgroup of another group")
    fixed = np.full(M.dim, is_p_power(P.order, M.field.p))
    for g in P.gens:
        fixed &= M.elem_monomial(g)[0] == np.arange(M.dim)
    return np.flatnonzero(fixed)


def point_action(M: KgModule, pts: np.ndarray, g: int):
    """(permutation, twists) of g in N_G(P) on k[X^P], the permutation by
    positions in `pts`, the points of X^P."""
    x, c = M.elem_monomial(g)
    return np.searchsorted(pts, x[pts]), c[pts]


def brauer_points(M: KgModule, P: Subgroup):
    """The Brauer construction of a monomial module by picking coordinates.

    On a monomial basis X, M(P) = k[X^P] (Broue): a p-group has no
    nontrivial homomorphism into k^x, so P fixes the lines of the points it
    fixes, and each orbit it moves spans k[P/Q], whose fixed vectors are
    traces from Q < P.  N_G(P) permutes the points every generator of P
    fixes; returns them and k[X^P] as a monomial module over N_G(P)/P.
    Non-p-subgroups give no points.
    """
    pts = fixed_basis_points(M, P)
    ctx = local_quotient(P)
    lifts = [point_action(M, pts, g) for g in ctx.generator_lifts()]
    return pts, KgModule(
        ctx.group,
        M.field,
        perms=[x for x, _ in lifts],
        twists=[c for _, c in lifts],
        check=False,
    )
