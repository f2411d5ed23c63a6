"""Modules over group algebras kG in characteristic p.

A module is one exact matrix per group generator.  On a labeled (twisted
permutation) basis X the Brauer construction at a p-subgroup P is k[X^P],
read off by picking the P-fixed basis points (`brauer_points`).  Unlabeled
modules take M^P modulo the relative traces from the maximal subgroups of
P, by linear algebra over F_q (`brauer_quotient`).  Syzygies and free
summands use the fact that over a p-group the group algebra is local and
self-injective, with the norm element spanning the socle of the regular
module.

Direct-sum decompositions into twisted transitive permutation summands are
construction provenance: they are attached when a constructor knows them
and never recovered by a decomposition algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    IncompatibleHandles,
    NotNested,
    PermchainError,
    PGroupOnly,
)
from .ffield import FqField, FqScalar
from .groups import FiniteGroup, Quotient, Subgroup, is_p_power, minimal_generators, quotient
from .linalg import (
    FqMatrix,
    block_diag,
    complete_to_basis,
    hstack,
    image_basis,
    kernel_basis,
    quotient_space,
    rank,
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
    __slots__ = ("group", "field", "dim", "gen_mats", "labels", "_elem_cache", "_fixed_cache")

    def __init__(self, group, field, gen_mats, labels=None, check=True):
        self.group = group
        self.field = field
        self.gen_mats = tuple(gen_mats)
        if len(self.gen_mats) != len(group.generators):
            raise PermchainError("one matrix per group generator required")
        dims = {m.rows for m in self.gen_mats} | {m.cols for m in self.gen_mats}
        if len(dims) > 1:
            raise PermchainError("generator matrices must be square of equal size")
        self.dim = self.gen_mats[0].rows if self.gen_mats else 0
        self.labels = tuple(labels) if labels is not None else None
        self._elem_cache = {group.identity: FqMatrix.identity(field, self.dim)}
        self._fixed_cache = {}
        if self.labels is not None:
            total = sum(len(s.indices) for s in self.labels)
            if total != self.dim:
                raise PermchainError("summand labels do not cover the basis")
        if check:
            self._verify_relations()

    def _verify_relations(self):
        """Relation check: the BFS word assignment must be consistent, i.e.
        gen * elem lands on the matrix already assigned to the product."""
        G = self.group
        for gi, g in enumerate(G.gen_indices):
            A = self.gen_mats[gi]
            for x in range(G.order):
                if (A @ self.elem_mat(x)) != self.elem_mat(G.mul(g, x)):
                    raise PermchainError(
                        "generator matrices violate the group relations"
                    )

    def elem_mat(self, i: int) -> FqMatrix:
        m = self._elem_cache.get(i)
        if m is None:
            w = self.group.words[i]
            rest = self.group.mul(self.group.inv(self.group.gen_indices[w[0]]), i)
            m = self.gen_mats[w[0]] @ self.elem_mat(rest)
            self._elem_cache[i] = m
        return m

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


@dataclass
class ModuleMap:
    """A kG-homomorphism; commutes with every generator action."""

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
        for gi in range(len(self.source.gen_mats)):
            if (self.target.gen_mats[gi] @ self.matrix) != (
                self.matrix @ self.source.gen_mats[gi]
            ):
                raise PermchainError("matrix does not commute with the group action")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


# -- constructors ----------------------------------------------------------


def zero_module(G: FiniteGroup, field: FqField) -> KgModule:
    mats = [FqMatrix.zeros(field, 0, 0) for _ in G.generators]
    return KgModule(G, field, mats, labels=(), check=False)


def trivial_module(G: FiniteGroup, field: FqField) -> KgModule:
    return one_dim_module(trivial_character(G, field))


def one_dim_module(char: Character) -> KgModule:
    G, f = char.group, char.field
    mats = [FqMatrix(f, [[v]]) for v in char.values]
    full = G.lattice().full
    return KgModule(G, f, mats, labels=(Summand(char, full, (0,)),), check=False)


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
    pos = {c[0]: i for i, c in enumerate(cosets)}
    member = {}
    for i, c in enumerate(cosets):
        for x in c:
            member[x] = i
    dim = len(cosets)
    mats = []
    for g in G.gen_indices:
        a = np.zeros((dim, dim), dtype=np.int16)
        for j, c in enumerate(cosets):
            a[member[G.mul(g, c[0])], j] = 1
        mats.append(FqMatrix(field, a))
    labels = (Summand(trivial_character(G, field), H, tuple(range(dim))),)
    return KgModule(G, field, mats, labels=labels, check=False)


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
    mats = [
        block_diag(f, [m.gen_mats[gi] for m in mods]) for gi in range(len(G.generators))
    ]
    labels = []
    offset = 0
    for m in mods:
        if m.labels is None:
            labels = None
            break
        for s in m.labels:
            labels.append(Summand(s.character, s.subgroup, tuple(i + offset for i in s.indices)))
        offset += m.dim
    return KgModule(G, f, mats, labels=tuple(labels) if labels is not None else None, check=False)


def twist(M: KgModule, char: Character) -> KgModule:
    if char.group is not M.group or char.field != M.field:
        raise IncompatibleHandles("twisting character on a different group or field")
    mats = [m.scale(v) for m, v in zip(M.gen_mats, char.values)]
    labels = None
    if M.labels is not None:
        labels = tuple(
            Summand(s.character * char, s.subgroup, s.indices) for s in M.labels
        )
    return KgModule(M.group, M.field, mats, labels=labels, check=False)


def dual(M: KgModule) -> KgModule:
    """Inverse-transpose action on the dual basis."""
    G = M.group
    mats = [
        M.elem_mat(G.inv(g)).T for g in G.gen_indices
    ]
    labels = None
    if M.labels is not None:
        labels = tuple(
            Summand(s.character.inverse(), s.subgroup, s.indices) for s in M.labels
        )
    return KgModule(G, M.field, mats, labels=labels, check=False)


def _summand_perm_action(M: KgModule, s: Summand):
    """Per-generator permutation of the summand's indices, extracted from the
    monomial structure of the restricted generator matrices."""
    f = M.field
    pos = {t: k for k, t in enumerate(s.indices)}
    perms = []
    for gi in range(len(M.group.generators)):
        a = M.gen_mats[gi].a
        want = s.character.values[gi]
        img = []
        for t in s.indices:
            col = a[:, t]
            nz = np.nonzero(col)[0]
            if nz.size != 1 or int(col[nz[0]]) != want or int(nz[0]) not in pos:
                raise PermchainError("summand label does not match the action")
            img.append(pos[int(nz[0])])
        perms.append(tuple(img))
    return perms


def _element_perms(G: FiniteGroup, gen_perms):
    """Extend per-generator permutations to all elements along BFS words."""
    out = [None] * G.order
    n = len(gen_perms[0]) if gen_perms else 0
    out[G.identity] = tuple(range(n))
    for i in sorted(range(G.order), key=lambda j: len(G.words[j])):
        w = G.words[i]
        if not w:
            continue
        rest = G.mul(G.inv(G.gen_indices[w[0]]), i)
        gp = gen_perms[w[0]]
        out[i] = tuple(gp[x] for x in out[rest])
    return out


def tensor(M: KgModule, N: KgModule) -> KgModule:
    """Diagonal action on the Kronecker basis e_i (x) e_j -> i*dim(N)+j.

    If both factors carry labels, the result is labeled by the orbit
    decomposition of the product of the underlying coset actions.
    """
    if M.group is not N.group or M.field != N.field:
        raise IncompatibleHandles("tensor over mixed groups or fields")
    G, f = M.group, M.field
    mats = [a.kron(b) for a, b in zip(M.gen_mats, N.gen_mats)]
    labels = None
    if M.labels is not None and N.labels is not None:
        lat = G.lattice()
        labels = []
        for s1 in M.labels:
            p1 = _summand_perm_action(M, s1)
            e1 = _element_perms(G, p1)
            for s2 in N.labels:
                p2 = _summand_perm_action(N, s2)
                e2 = _element_perms(G, p2)
                char = s1.character * s2.character
                npairs = len(s1.indices) * len(s2.indices)
                seen = [False] * npairs
                for start in range(npairs):
                    if seen[start]:
                        continue
                    x0, y0 = divmod(start, len(s2.indices))
                    orbit = []
                    stack = [(x0, y0)]
                    seen[start] = True
                    while stack:
                        x, y = stack.pop()
                        orbit.append((x, y))
                        for gi in range(len(G.generators)):
                            nx, ny = p1[gi][x], p2[gi][y]
                            k = nx * len(s2.indices) + ny
                            if not seen[k]:
                                seen[k] = True
                                stack.append((nx, ny))
                    stab = [
                        e
                        for e in range(G.order)
                        if e1[e][x0] == x0 and e2[e][y0] == y0
                    ]
                    ambient = tuple(
                        sorted(
                            s1.indices[x] * N.dim + s2.indices[y] for x, y in orbit
                        )
                    )
                    labels.append(Summand(char, lat.subgroup(stab), ambient))
        labels = tuple(labels)
    return KgModule(G, f, mats, labels=labels, check=False)


def restrict(M: KgModule, H: Subgroup) -> KgModule:
    """Restriction along H <= G; the result lives over H as its own group."""
    Hgrp = M.group.lattice().as_group(H)
    if Hgrp is M.group:
        return M
    mats = [M.elem_mat(M.group.index[perm]) for perm in Hgrp.generators]
    return KgModule(Hgrp, M.field, mats, labels=None, check=False)


def inflate(M: KgModule, quot: Quotient) -> KgModule:
    """Inflation along the projection quot.source -> quot.group."""
    if M.group is not quot.group:
        raise IncompatibleHandles("module is not over the quotient group")
    G = quot.source
    mats = [M.elem_mat(quot.project(g)) for g in G.gen_indices]
    labels = None
    if M.labels is not None:
        lat = G.lattice()
        labels = []
        for s in M.labels:
            preimage = [x for x in range(G.order) if quot.project(x) in s.subgroup.elemset]
            char = Character(
                G,
                M.field,
                [s.character.value_code(quot.project(g)) for g in G.gen_indices],
                check=False,
            )
            labels.append(Summand(char, lat.subgroup(preimage), s.indices))
        labels = tuple(labels)
    return KgModule(G, M.field, mats, labels=labels, check=False)


def frobenius_twist_module(M: KgModule) -> KgModule:
    """Scalar restriction along Frobenius: entries mapped by F^{-1}.

    Permutation modules come back entrywise identical; twisting characters
    are composed with the inverse automorphism.
    """
    f = M.field
    table = np.arange(f.q, dtype=np.int16)
    for _ in range(f.n - 1):
        table = f.frob[table]
    mats = [m.map_codes(table) for m in M.gen_mats]
    labels = None
    if M.labels is not None:
        labels = tuple(
            Summand(s.character.frobenius_inverse_twist(), s.subgroup, s.indices)
            for s in M.labels
        )
    return KgModule(M.group, f, mats, labels=labels, check=False)


# -- fixed points, traces, Brauer construction ------------------------------


def fixed_points(M: KgModule, P: Subgroup) -> FqMatrix:
    return M.fixed_points(P)


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
        term = M.elem_mat(r) @ FQ
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

    def push(self, ambient_cols: FqMatrix) -> FqMatrix:
        """Express ambient vectors lying in M^P in quotient coordinates."""
        coords = solve_matrix(self.fixed, ambient_cols)
        if coords is None:
            raise PermchainError("vector not fixed by P")
        return self.proj @ coords

    def lift(self, quotient_cols: FqMatrix) -> FqMatrix:
        return self.fixed @ (self.section @ quotient_cols)


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
    qdim = proj.rows
    gen_lift = ctx.quotient_generator_lifts()
    mats = []
    for g in gen_lift:
        acted = M.elem_mat(g) @ (F @ section)
        coords = solve_matrix(F, acted)
        if coords is None:
            raise PermchainError("normalizer action does not preserve fixed points")
        mats.append(proj @ coords)
    mod = KgModule(Q, f, mats, labels=None, check=False)
    return BrauerData(mod, ctx, F, proj, section)


def brauer_points(M: KgModule, P: Subgroup):
    """The Brauer construction of a labeled module by picking coordinates.

    On a twisted permutation basis X, M(P) = k[X^P]: traces from proper
    subgroups of P kill the orbit sums of non-fixed points, and a degree
    one character is trivial on a p-group, so the P-fixed points are the
    basis indices t with g.t = t, seen as a nonzero diagonal entry of g,
    for each generator g of P.  Returns those indices and k[X^P] as a
    module over N_G(P)/P; non-p-subgroups give no points.
    """
    if M.dim and M.labels is None:
        raise PermchainError("Brauer points need a labeled module")
    fixed = np.full(M.dim, is_p_power(P.order, M.field.p))
    for g in minimal_generators(M.group, P.elems):
        fixed &= M.elem_mat(g).a.diagonal() != 0
    pts = np.flatnonzero(fixed)
    ctx = brauer_context(M.group, P)
    mats = [
        FqMatrix(M.field, M.elem_mat(g).a[np.ix_(pts, pts)])
        for g in ctx.quotient_generator_lifts()
    ]
    return pts, KgModule(ctx.quotient_group, M.field, mats, labels=None, check=False)


def brauer_quotient_map(fmap: ModuleMap, P: Subgroup, src: BrauerData = None, dst: BrauerData = None) -> ModuleMap:
    """The induced map M(P) -> N(P); functorial in the map."""
    if src is None:
        src = brauer_quotient(fmap.source, P)
    if dst is None:
        dst = brauer_quotient(fmap.target, P)
    if src.module.dim == 0 or dst.module.dim == 0:
        return ModuleMap(
            src.module,
            dst.module,
            FqMatrix.zeros(fmap.source.field, dst.module.dim, src.module.dim),
        )
    carried = fmap.matrix @ src.lift(FqMatrix.identity(fmap.source.field, src.module.dim))
    return ModuleMap(src.module, dst.module, dst.push(carried))


def is_split_injective(fmap: ModuleMap) -> bool:
    """Split injectivity via injectivity of every induced local map."""
    p = fmap.source.field.p
    lat = fmap.source.group.lattice()
    for P in lat.p_class_reps(p):
        g = brauer_quotient_map(fmap, P)
        if rank(g.matrix) != g.source.dim:
            return False
    return True


def is_split_surjective(fmap: ModuleMap) -> bool:
    p = fmap.source.field.p
    lat = fmap.source.group.lattice()
    for P in lat.p_class_reps(p):
        g = brauer_quotient_map(fmap, P)
        if rank(g.matrix) != g.target.dim:
            return False
    return True


def vertex_classes(M: KgModule) -> list:
    """Class representatives P with M(P) nonzero."""
    lat = M.group.lattice()
    return [
        P
        for P in lat.p_class_reps(M.field.p)
        if brauer_quotient(M, P).module.dim != 0
    ]


# -- p-group syzygy machinery ----------------------------------------------


def _require_p_group(G: FiniteGroup, field: FqField):
    if not is_p_power(G.order, field.p):
        raise PGroupOnly("operation defined for p-groups in characteristic p only")


def radical_basis(M: KgModule) -> FqMatrix:
    """Basis of rad M = span{(g-1)m} over the generators."""
    eye = FqMatrix.identity(M.field, M.dim)
    cols = hstack([m - eye for m in M.gen_mats])
    return image_basis(cols)


class OmegaData(NamedTuple):
    module: KgModule     # the kernel of the cover
    cover: ModuleMap     # free module -> M, a projective cover
    inclusion: FqMatrix  # kernel basis inside the free module


def omega(M: KgModule) -> OmegaData:
    """Kernel of the projective cover kG^n -> M, n = dim M/rad M."""
    G, f = M.group, M.field
    _require_p_group(G, f)
    if M.dim == 0:
        raise PermchainError("omega of the zero module")
    rad = radical_basis(M)
    head_idx = complete_to_basis(rad)
    n = len(head_idx)
    free = free_module(G, f, n)
    cols = []
    for j in head_idx:
        target = FqMatrix.zeros(f, M.dim, G.order)
        for g in range(G.order):
            target.a[:, g] = M.elem_mat(g).a[:, j]
        cols.append(target)
    cover_mat = hstack(cols)
    cover = ModuleMap(free, M, cover_mat)
    if rank(cover_mat) != M.dim:
        raise PermchainError("cover is not surjective")
    K = kernel_basis(cover_mat)
    mats = []
    for gi in range(len(G.generators)):
        moved = free.gen_mats[gi] @ K
        coords = solve_matrix(K, moved)
        if coords is None:
            raise PermchainError("kernel is not a submodule")
        mats.append(coords)
    kernel_mod = KgModule(G, f, mats, labels=None, check=False)
    return OmegaData(kernel_mod, cover, K)


def norm_matrix(M: KgModule) -> FqMatrix:
    total = None
    for g in range(M.group.order):
        m = M.elem_mat(g)
        total = m if total is None else total + m
    return total


def free_rank(M: KgModule) -> int:
    """Rank of the norm element's action; the multiplicity of kG in M."""
    _require_p_group(M.group, M.field)
    if M.dim == 0:
        return 0
    return rank(norm_matrix(M))


class SplitFree(NamedTuple):
    rank: int
    free: KgModule            # kG^rank
    free_inclusion: FqMatrix  # columns: basis of the free summand in M
    complement: KgModule
    complement_inclusion: FqMatrix
    retraction: FqMatrix      # M -> free coordinates, identity on the summand


def free_generators(M: KgModule):
    """Vectors w with norm(w) jointly independent; each generates a free
    rank-one summand since every nonzero submodule of kG meets the socle."""
    f = M.field
    nm = norm_matrix(M)
    chosen = []
    images = FqMatrix.zeros(f, M.dim, 0)
    for j in range(M.dim):
        cand = nm.col(j)
        trial = hstack([images, cand])
        if rank(trial) > images.cols:
            images = image_basis(trial)
            chosen.append(j)
    return chosen, images


def split_free_summand(M: KgModule) -> SplitFree:
    """M = kG^r (+) complement with the complement free-rank zero.

    The retraction is built from the symmetrizing form of kG: a linear
    functional L with L(norm . w_j) = delta_ij spreads to the kG-map
    m -> sum_g L(g^{-1} m) g, and the head of the composite with the
    inclusion is exactly that delta matrix, so the composite is invertible.
    """
    G, f = M.group, M.field
    _require_p_group(G, f)
    chosen, _ = free_generators(M)
    r = len(chosen)
    free = free_module(G, f, r)
    if r == 0:
        return SplitFree(
            0,
            free,
            FqMatrix.zeros(f, M.dim, 0),
            M,
            FqMatrix.identity(f, M.dim),
            FqMatrix.zeros(f, 0, M.dim),
        )
    incl = FqMatrix.zeros(f, M.dim, r * G.order)
    for i, j in enumerate(chosen):
        for g in range(G.order):
            incl.a[:, i * G.order + g] = M.elem_mat(g).a[:, j]
    nm = norm_matrix(M)
    U = nm.take_cols(chosen)  # independent columns
    lam = solve_matrix(U.T, FqMatrix.identity(f, r))
    if lam is None:
        raise PermchainError("failed to dualize the norm images")
    lamT = lam.T  # r x dim with lamT @ U = I_r
    rho = FqMatrix.zeros(f, r * G.order, M.dim)
    for g in range(G.order):
        row_block = lamT @ M.elem_mat(G.inv(g))
        for i in range(r):
            rho.a[i * G.order + g, :] = row_block.a[i, :]
    S = rho @ incl
    Sinv = solve_matrix(S, FqMatrix.identity(f, r * G.order))
    if Sinv is None:
        raise PermchainError("free summand retraction is singular")
    retraction = Sinv @ rho
    C = kernel_basis(retraction)
    cmats = []
    for gi in range(len(G.generators)):
        moved = M.gen_mats[gi] @ C
        coords = solve_matrix(C, moved)
        if coords is None:
            raise PermchainError("complement is not a submodule")
        cmats.append(coords)
    comp = KgModule(G, f, cmats, labels=None, check=False)
    return SplitFree(r, free, incl, comp, C, retraction)


class SyzygyData(NamedTuple):
    module: KgModule
    inclusion: FqMatrix
    ambient: KgModule


def relative_syzygy(G: FiniteGroup, H: Subgroup, field: FqField) -> SyzygyData:
    """Kernel of the augmentation k[G/H] -> k."""
    M = perm_module(G, H, field)
    aug = FqMatrix(field, np.ones((1, M.dim), dtype=np.int16))
    K = kernel_basis(aug)
    mats = []
    for gi in range(len(G.generators)):
        coords = solve_matrix(K, M.gen_mats[gi] @ K)
        if coords is None:
            raise PermchainError("syzygy is not a submodule")
        mats.append(coords)
    return SyzygyData(KgModule(G, field, mats, labels=None, check=False), K, M)


# -- hom spaces --------------------------------------------------------------


def hom_space_basis(M: KgModule, N: KgModule) -> list:
    """Basis of Hom_kG(M, N) as matrices, via the equivariance equations."""
    if M.group is not N.group or M.field != N.field:
        raise IncompatibleHandles("hom space over mixed groups or fields")
    f = M.field
    if M.dim == 0 or N.dim == 0:
        return []
    eyeM = FqMatrix.identity(f, M.dim)
    eyeN = FqMatrix.identity(f, N.dim)
    blocks = []
    for gi in range(len(M.gen_mats)):
        lhs = N.gen_mats[gi].kron(eyeM)
        rhs = eyeN.kron(M.gen_mats[gi].T)
        blocks.append(lhs - rhs)
    K = kernel_basis(vstack(blocks))
    out = []
    for j in range(K.cols):
        out.append(FqMatrix(f, K.a[:, j].reshape(N.dim, M.dim).copy()))
    return out


def module_check_labels(M: KgModule) -> bool:
    """Verify the labeled block structure matches the action (test helper)."""
    if M.labels is None:
        return False
    for s in M.labels:
        _summand_perm_action(M, s)
        if len(s.indices) != M.group.order // s.subgroup.order:
            return False
    return True
