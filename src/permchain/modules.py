"""Modules over group algebras kG in characteristic p.

The paper's modules are twisted permutation modules: on their basis X
every generator g acts monomially, g.e_j = c_j e_{pi(j)}, by a permutation
pi of X and one twist code c_j per point.  `KgModule` stores exactly that
for them, and sums, twists, duals, tensors, restriction and inflation are
index arithmetic and lookups in the field's multiplication table.  So are
the commutation check of a `ModuleMap` (rows against columns, both moved
and scaled) and the action on a block of vectors.  Subquotients
(homology, syzygies, Brauer quotients) are dense: one exact matrix per
generator.  The dense matrices of a monomial module are built only when
something asks for them.

On a monomial basis X the Brauer construction at a p-subgroup P is k[X^P]:
the points that P's permutations fix (`brauer_points`).  `brauer_quotient`,
M^P modulo relative traces by linear algebra, has no caller in the package;
the tests build their reference construction on it.  Syzygies, free
summands and Hom spaces are in `syzygies`.

Direct-sum decompositions into twisted transitive permutation summands are
construction provenance: they are attached when a constructor knows them
and never recovered by a decomposition algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleHandles, NotNested, PermchainError
from .ffield import FqField, FqScalar
from .groups import FiniteGroup, Quotient, Subgroup, is_p_power, minimal_generators, quotient
from .linalg import (
    FqMatrix,
    block_diag,
    hstack,
    image_basis,
    kernel_basis,
    quotient_space,
    solve_matrix,
    vstack,
)


# -- degree one characters ------------------------------------------------


class Character:
    """A degree one representation G -> F_q^x, stored by generator values."""

    __slots__ = ("group", "field", "values", "_elem_values")

    def __init__(self, group: FiniteGroup, field: FqField, values, check=True):
        self.group = group
        self.field = field
        self.values = tuple(int(v) for v in values)
        if len(self.values) != len(group.generators):
            raise PermchainError("one value per group generator required")
        ev = [0] * group.order
        ev[group.identity] = 1
        order_by_len = sorted(range(group.order), key=lambda i: len(group.words[i]))
        for i in order_by_len:
            w = group.words[i]
            if not w:
                continue
            rest = group.mul(group.inv(group.gen_indices[w[0]]), i)
            ev[i] = int(field.mul[self.values[w[0]], ev[rest]])
        self._elem_values = tuple(ev)
        if check:
            if any(v == 0 for v in self.values):
                raise PermchainError("character values must be units")
            for gi, g in enumerate(group.gen_indices):
                for x in range(group.order):
                    lhs = int(field.mul[self.values[gi], ev[x]])
                    if lhs != ev[group.mul(g, x)]:
                        raise PermchainError(
                            "generator values do not extend to a homomorphism"
                        )

    def value(self, elem: int) -> FqScalar:
        return FqScalar(self.field, self._elem_values[elem])

    def value_code(self, elem: int) -> int:
        return self._elem_values[elem]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __mul__(self, other: "Character") -> "Character":
        if self.group is not other.group or self.field != other.field:
            raise IncompatibleHandles("characters on different groups or fields")
        f = self.field
        return Character(
            self.group,
            f,
            [int(f.mul[a, b]) for a, b in zip(self.values, other.values)],
            check=False,
        )

    def inverse(self) -> "Character":
        f = self.field
        return Character(
            self.group, f, [int(f.inv[v]) for v in self.values], check=False
        )

    def __pow__(self, k: int) -> "Character":
        base = self if k >= 0 else self.inverse()
        out = trivial_character(self.group, self.field)
        for _ in range(abs(k)):
            out = out * base
        return out

    def frobenius_inverse_twist(self) -> "Character":
        """Composition with the inverse Frobenius automorphism of F_q."""
        f = self.field
        vals = list(self.values)
        for _ in range(f.n - 1):
            vals = [int(f.frob[v]) for v in vals]
        return Character(self.group, f, vals, check=False)

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


def trivial_character(G: FiniteGroup, field: FqField) -> Character:
    return Character(G, field, [1] * len(G.generators), check=False)


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
    """Every homomorphism G -> F_q^x, brute force over generator values."""
    gens = G.gen_indices
    out = []

    def valid(values):
        ev = [None] * G.order
        ev[G.identity] = 1
        frontier = [G.identity]
        while frontier:
            x = frontier.pop()
            for gi, g in enumerate(gens):
                y = G.mul(g, x)
                v = int(field.mul[values[gi], ev[x]])
                if ev[y] is None:
                    ev[y] = v
                    frontier.append(y)
                elif ev[y] != v:
                    return False
        return True

    def rec(prefix):
        if len(prefix) == len(gens):
            if valid(prefix):
                out.append(Character(G, field, prefix, check=False))
            return
        for v in range(1, field.q):
            rec(prefix + [v])

    rec([])
    return out


# -- modules ---------------------------------------------------------------


class Summand(NamedTuple):
    """One transitive twisted permutation summand: character, point
    stabilizer, and the basis indices it occupies."""

    character: Character
    subgroup: Subgroup
    indices: tuple


class KgModule:
    """A kG-module on the basis e_0, ..., e_{dim-1}, in one of two forms.

    Monomial: for each generator g a permutation `perms[g]` of the basis
    indices and one twist code per index, `twists[g]`, with
    g.e_j = twists[g][j] e_{perms[g][j]}.  Twisted permutation modules and
    every operation on them (sums, twists, duals, tensors, restriction,
    inflation, Brauer points) have this form, and a labeled module is always
    monomial.  Dense: one matrix per generator, for modules that are only
    subquotients (homology, syzygies, Brauer quotients); they have no Brauer
    points.

    With `check=True`, labels are rebuilt from the orbits of the
    permutations (`_orbit_summands`): each summand must be one orbit in
    increasing order, labeled by its first point's stabilizer and twisted
    by its character's values.

    `gen_mats` and `elem_mat` give the matrices of either form.  On a
    monomial module they are built from the permutations only when asked
    for; `act`, `act_right`, `apply` and `elem_monomial` never build them.
    """

    __slots__ = (
        "group", "field", "dim", "labels", "perms", "twists",
        "_gen_mats", "_mono_cache", "_elem_cache", "_fixed_cache",
    )

    def __init__(
        self, group, field, gen_mats=None, labels=None, check=True, perms=None, twists=None
    ):
        self.group = group
        self.field = field
        ngens = len(group.generators)
        if perms is None:
            if gen_mats is None:
                raise PermchainError("a module needs generator matrices or permutations")
            self._gen_mats = tuple(gen_mats)
            if len(self._gen_mats) != ngens:
                raise PermchainError("one matrix per group generator required")
            dims = {m.rows for m in self._gen_mats} | {m.cols for m in self._gen_mats}
            if len(dims) > 1:
                raise PermchainError("generator matrices must be square of equal size")
            self.dim = self._gen_mats[0].rows if self._gen_mats else 0
            self.perms = self.twists = self._mono_cache = None
            self._elem_cache = {group.identity: FqMatrix.identity(field, self.dim)}
        else:
            self.perms = tuple(np.asarray(x, dtype=np.intp) for x in perms)
            self.twists = tuple(np.asarray(c, dtype=np.int16) for c in twists)
            if len(self.perms) != ngens or len(self.twists) != ngens:
                raise PermchainError("one permutation and twist list per group generator required")
            self.dim = len(self.perms[0]) if self.perms else 0
            shapes = {x.shape for x in self.perms} | {c.shape for c in self.twists}
            if shapes - {(self.dim,)}:
                raise PermchainError("generator permutations must be of equal length")
            self._gen_mats = None
            ident = (np.arange(self.dim), np.ones(self.dim, dtype=np.int16))
            self._mono_cache = {group.identity: ident}
            self._elem_cache = {}
        self.labels = tuple(labels) if labels is not None else None
        self._fixed_cache = {}
        if self.labels is not None:
            if self.perms is None:
                raise PermchainError("summand labels need a monomial module")
            total = sum(len(s.indices) for s in self.labels)
            if total != self.dim:
                raise PermchainError("summand labels do not cover the basis")
        if check:
            self._verify_relations()
            if self.labels is not None:
                self._verify_labels()

    @property
    def gen_mats(self) -> tuple:
        if self._gen_mats is None:
            self._gen_mats = tuple(
                _monomial_matrix(self.field, x, c) for x, c in zip(self.perms, self.twists)
            )
        return self._gen_mats

    def _verify_relations(self):
        """Relation check: each generator permutes the basis with unit
        twists, and the BFS word assignment is consistent, i.e. gen * elem
        lands on the action already assigned to the product."""
        G = self.group
        for x, c in zip(self.perms or (), self.twists or ()):
            if self.dim and (x.min() < 0 or (np.bincount(x, minlength=self.dim) != 1).any()):
                raise PermchainError("generator images are not a permutation of the basis")
            if ((c <= 0) | (c >= self.field.q)).any():
                raise PermchainError("twists must be unit codes")
        for gi, g in enumerate(G.gen_indices):
            for x in range(G.order):
                if self.perms is None:
                    ok = (self.gen_mats[gi] @ self.elem_mat(x)) == self.elem_mat(G.mul(g, x))
                else:
                    have = _compose(self.field, self._gen_monomial(gi), self.elem_monomial(x))
                    ok = all(map(np.array_equal, have, self.elem_monomial(G.mul(g, x))))
                if not ok:
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
            G = self.group
            w = G.words[i]
            rest = G.mul(G.inv(G.gen_indices[w[0]]), i)
            got = _compose(self.field, self._gen_monomial(w[0]), self.elem_monomial(rest))
            self._mono_cache[i] = got
        return got

    def element_perms(self) -> np.ndarray:
        """Row e: the permutation of the basis by group element e."""
        return np.array([self.elem_monomial(e)[0] for e in range(self.group.order)])

    def elem_mat(self, i: int) -> FqMatrix:
        m = self._elem_cache.get(i)
        if m is None:
            if self.perms is not None:
                m = _monomial_matrix(self.field, *self.elem_monomial(i))
            else:
                w = self.group.words[i]
                rest = self.group.mul(self.group.inv(self.group.gen_indices[w[0]]), i)
                m = self.gen_mats[w[0]] @ self.elem_mat(rest)
            self._elem_cache[i] = m
        return m

    def act(self, gi: int, X: FqMatrix) -> FqMatrix:
        """Generator gi applied to the columns of X."""
        if self.perms is None:
            return self._gen_mats[gi] @ X
        return _move_rows(self.field, *self._gen_monomial(gi), X)

    def act_right(self, X: FqMatrix, gi: int) -> FqMatrix:
        """X times the matrix of generator gi: column j of the product is
        column perms[gi][j] of X scaled by twists[gi][j]."""
        if self.perms is None:
            return X @ self._gen_mats[gi]
        cols = X.a[:, self.perms[gi]]
        if self.field.q > 2:
            cols = self.field.mul[cols, self.twists[gi][None, :]]
        return FqMatrix(self.field, cols)

    def apply(self, i: int, X: FqMatrix) -> FqMatrix:
        """Group element i applied to the columns of X."""
        if self.perms is None:
            return self.elem_mat(i) @ X
        return _move_rows(self.field, *self.elem_monomial(i), X)

    def fixed_points(self, P: Subgroup) -> FqMatrix:
        """Column basis of the P-fixed subspace."""
        key = P.elems
        got = self._fixed_cache.get(key)
        if got is None:
            gens = minimal_generators(self.group, P.elems)
            if not gens:
                got = FqMatrix.identity(self.field, self.dim)
            else:
                eye = FqMatrix.identity(self.field, self.dim)
                stacked = vstack([self.elem_mat(g) - eye for g in gens])
                got = kernel_basis(stacked)
            self._fixed_cache[key] = got
        return got

    def __repr__(self):
        return f"KgModule(dim {self.dim} over {self.group.describe()}, F{self.field.q})"


def _compose(f: FqField, outer, inner):
    """The monomial action of A.B, for A = (perm, twists) and B likewise:
    A(B e_j) = c_B[j] c_A[pi_B(j)] e_{pi_A(pi_B(j))}."""
    (perm, tw), (iperm, itw) = outer, inner
    return perm[iperm], f.mul[itw, tw[iperm]]


def _monomial_matrix(f: FqField, perm, tw) -> FqMatrix:
    a = np.zeros((len(perm), len(perm)), dtype=np.int16)
    a[perm, np.arange(len(perm))] = tw
    return FqMatrix(f, a)


def _move_rows(f: FqField, perm, tw, X: FqMatrix) -> FqMatrix:
    """The monomial matrix (perm, tw) times X: row j of X, scaled by tw[j],
    becomes row perm[j]."""
    rows = f.mul[tw[:, None], X.a] if f.q > 2 else X.a
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


def _require_monomial(*mods):
    if any(m.perms is None for m in mods):
        raise PermchainError("operation defined on monomial (twisted permutation) modules only")


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

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

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


def coset_list(G: FiniteGroup, H: Subgroup) -> list:
    """Left cosets gH as sorted tuples, ordered by least member."""
    seen = set()
    cosets = []
    for x in range(G.order):
        if x in seen:
            continue
        c = tuple(sorted(G.mul(x, h) for h in H.elems))
        seen.update(c)
        cosets.append(c)
    cosets.sort(key=lambda c: c[0])
    return cosets


def perm_module(G: FiniteGroup, H: Subgroup, field: FqField) -> KgModule:
    """k[G/H] on the deterministic coset basis."""
    cosets = coset_list(G, H)
    member = {}
    for i, c in enumerate(cosets):
        for x in c:
            member[x] = i
    dim = len(cosets)
    perms = [[member[G.mul(g, c[0])] for c in cosets] for g in G.gen_indices]
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
    if any(m.perms is None for m in mods):
        mats = [block_diag(f, [m.gen_mats[gi] for m in mods]) for gi in gens]
        return KgModule(G, f, mats, labels=None, check=False)
    offsets = np.cumsum([0] + [m.dim for m in mods])
    perms = [np.concatenate([m.perms[gi] + o for m, o in zip(mods, offsets)]) for gi in gens]
    twists = [np.concatenate([m.twists[gi] for m in mods]) for gi in gens]
    labels = None
    if all(m.labels is not None for m in mods):
        labels = tuple(
            Summand(s.character, s.subgroup, tuple(int(i + o) for i in s.indices))
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
    _require_monomial(M)
    twists = [M.field.mul[c, v] for c, v in zip(M.twists, char.values)]
    return _relabel(M, twists, lambda x: x * char)


def dual(M: KgModule) -> KgModule:
    """The dual action on the dual basis: the inverse transpose of
    c_j e_{pi(j)} keeps pi and inverts every twist."""
    _require_monomial(M)
    return _relabel(M, [M.field.inv[c] for c in M.twists], Character.inverse)


def tensor(M: KgModule, N: KgModule) -> KgModule:
    """Diagonal action on the Kronecker basis e_i (x) e_j -> i*dim(N)+j:
    the product permutation, with twists multiplied.

    If both factors carry labels, each pair of summands is split into the
    orbits of the product permutation (`_orbit_summands`).
    """
    if M.group is not N.group or M.field != N.field:
        raise IncompatibleHandles("tensor over mixed groups or fields")
    _require_monomial(M, N)
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
    if M.perms is None:
        return KgModule(H, M.field, [M.elem_mat(x) for x in elems], check=False)
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
    """Restriction along H <= G; the result lives over H as its own group.

    Labels follow Mackey: a summand w (x) k[G/K] splits into the H-orbits of
    its points, each labeled by Res_H w and its stabilizer H n gKg^{-1}."""
    if H.parent is not M.group:
        raise IncompatibleHandles("restriction to a subgroup of another group")
    Hgrp = M.group.lattice().as_group(H)
    if Hgrp is M.group:
        return M
    return _elements_acting(M, Hgrp, [M.group.index[perm] for perm in Hgrp.generators])


def inflate(M: KgModule, quot: Quotient) -> KgModule:
    """Inflation along the projection quot.source -> quot.group; a summand
    stays one orbit, labeled by the preimage of its subgroup."""
    if M.group is not quot.group:
        raise IncompatibleHandles("module is not over the quotient group")
    return _elements_acting(M, quot.source, [quot.project(g) for g in quot.source.gen_indices])


def frobenius_twist_module(M: KgModule) -> KgModule:
    """Scalar restriction along Frobenius: twists mapped by F^{-1}.

    Permutation modules come back identical; twisting characters are
    composed with the inverse automorphism.
    """
    _require_monomial(M)
    f = M.field
    table = np.arange(f.q, dtype=np.int16)
    for _ in range(f.n - 1):
        table = f.frob[table]
    return _relabel(M, [table[c] for c in M.twists], Character.frobenius_inverse_twist)


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


class BrauerContext:
    """Shared data for Brauer quotients at a fixed p-subgroup P: the
    normalizer N, the quotient N/P, and index translations."""

    def __init__(self, G: FiniteGroup, P: Subgroup):
        self.group = G
        self.P = P
        lat = G.lattice()
        self.normalizer = lat.normalizer(P)
        self.n_group = lat.as_group(self.normalizer)
        if P.order == 1:
            self.quot = None
            self.quotient_group = self.n_group
        else:
            n_lat = self.n_group.lattice()
            p_in_n = n_lat.subgroup(
                frozenset(self.n_group.index[G.elements[x]] for x in P.elems)
            )
            self.quot = quotient(self.n_group, p_in_n)
            self.quotient_group = self.quot.group

    def to_n_index(self, g: int) -> int:
        """Translate a G element index (inside N) to an N-group index."""
        if self.n_group is self.group:
            return g
        return self.n_group.index[self.group.elements[g]]

    def from_n_index(self, i: int) -> int:
        if self.n_group is self.group:
            return i
        return self.group.index[self.n_group.elements[i]]

    def project_from_g(self, g: int) -> int:
        """Image in N/P of a G element that normalizes P."""
        i = self.to_n_index(g)
        return i if self.quot is None else self.quot.project(i)

    def quotient_generator_lifts(self) -> list:
        """G element indices lifting the quotient group's generators."""
        if self.quot is None:
            return [self.from_n_index(i) for i in self.n_group.gen_indices]
        return [
            self.from_n_index(self.quot.lift(qg))
            for qg in self.quotient_group.gen_indices
        ]


def brauer_context(G: FiniteGroup, P: Subgroup) -> BrauerContext:
    ctx = G._brauer_ctx_cache.get(P.elems)
    if ctx is None:
        ctx = G._brauer_ctx_cache[P.elems] = BrauerContext(G, P)
    return ctx


@dataclass
class BrauerData:
    """A Brauer quotient M(P) with its coordinate bookkeeping.

    fixed: basis of M^P in ambient coordinates (dim x f)
    proj: M^P-coordinates -> M(P)-coordinates (q x f)
    section: one-sided inverse of proj (f x q)
    """

    module: KgModule
    ctx: BrauerContext
    fixed: FqMatrix
    proj: FqMatrix
    section: FqMatrix


def brauer_quotient(M: KgModule, P: Subgroup) -> BrauerData:
    """M^P modulo all relative traces from maximal subgroups of P, as a
    module over N_G(P)/P.  Non-p-subgroups give the zero module."""
    G, f = M.group, M.field
    ctx = brauer_context(G, P)
    Q = ctx.quotient_group
    if not is_p_power(P.order, f.p):
        zero = zero_module(Q, f)
        e = FqMatrix.zeros(f, M.dim, 0)
        return BrauerData(zero, ctx, e, FqMatrix.zeros(f, 0, 0), FqMatrix.zeros(f, 0, 0))
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
    for g in ctx.quotient_generator_lifts():
        coords = solve_matrix(F, M.apply(g, reps))
        if coords is None:
            raise PermchainError("normalizer action does not preserve fixed points")
        mats.append(proj @ coords)
    mod = KgModule(Q, f, mats, labels=None, check=False)
    return BrauerData(mod, ctx, F, proj, section)


def brauer_points(M: KgModule, P: Subgroup):
    """The Brauer construction of a monomial module by picking coordinates.

    On a monomial basis X, M(P) = k[X^P] (Broue): a p-group has no
    nontrivial homomorphism into k^x, so P fixes the lines of the points it
    fixes, and each orbit it moves spans k[P/Q], whose fixed vectors are
    traces from Q < P.  N_G(P) permutes the points every generator of P
    fixes; returns them and k[X^P] as a monomial module over N_G(P)/P.
    Non-p-subgroups give no points; a dense module raises.
    """
    if P.parent is not M.group:
        raise IncompatibleHandles("Brauer points at a subgroup of another group")
    _require_monomial(M)
    fixed = np.full(M.dim, is_p_power(P.order, M.field.p))
    for g in P.gens:
        fixed &= M.elem_monomial(g)[0] == np.arange(M.dim)
    pts = np.flatnonzero(fixed)
    local = np.zeros(M.dim, dtype=np.intp)
    local[pts] = np.arange(pts.size)
    ctx = brauer_context(M.group, P)
    lifts = [M.elem_monomial(g) for g in ctx.quotient_generator_lifts()]
    return pts, KgModule(
        ctx.quotient_group,
        M.field,
        perms=[local[x[pts]] for x, _ in lifts],
        twists=[c[pts] for _, c in lifts],
        check=False,
    )
