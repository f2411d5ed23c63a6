"""Dense reference constructions for kG-modules.

`DenseModule` is the dense module form, one matrix per generator, that
`permchain.modules.KgModule` no longer has: every module the package builds
is monomial.  It has the interface the package's readers use (`dim`,
`act`, `act_right`, `apply`, `fixed_points`, no labels), so the oracles
below run dense modules through the package's `ModuleMap`,
`BoundedComplex`, `brauer_quotient` and `homology_at`.  Those readers, and
`trace_map` and `solve_matrix` under them, stay in the package although no
package path calls them, because the benchmark's tracer (`TARGETS` in
`perfbench/tracing.py`) names them; they can move here once ROADMAP item
6 retires the tracer.  `gen_mats` and `elem_mat` give the matrices of either form.

These build every module operation from dense generator matrices, the way
`permchain.modules` did before modules carried their monomial action: the
Kronecker product for tensors, scaling for twists, the inverse transpose
for duals, element matrices as products along BFS words, summand
permutations and stabilizers read off the matrix columns, and the
commutation check of a module map as two matrix products per generator.

The Brauer construction by linear algebra lives here too: M^P modulo the
relative traces (`permchain.modules.brauer_quotient`), the maps it induces,
split detection and vertices read off it, and the local complex built from
it term by term.  The package picks coordinates instead (`brauer_points`).
The property tests compare the monomial code against all of these.

N_G(P)/P is built here the way the package built it before it took the
quotient of the section N_G(P) of G straight from G's tables: the
normalizer as a standalone group on G's own points (`subgroup_group`), P
found in that group's own lattice, the quotient of that group by cosets,
and indices translated back to G.  Restriction to H is built here over
`subgroup_group(H)` too, with its Mackey labels walked orbit by orbit; the
package restricts over the section H/1, which acts on |H| points.

Local characters of a virtual element are read here from the dense
matrix of every element on every local term (`dense_trace_beta`); the
package reads each trace off the twists at the fixed points.

Three conveniences only the tests call are here as well: a character
composed with the inverse Frobenius automorphism (`frobenius_inverse_twist`),
a complex's d_i with an absent one made the zero map (`diff_at`), and the
composite of two module maps (`compose`).

The free rank and the splitting kG^r (+) complement of a module over a
p-group are here as oracles for the syzygy layer, which finds free
summands from `free_generators` alone.  So is the syzygy as the package
built it before it kept syzygies as spans inside their permutation
modules (`dense_omega`): the radical and the head of a dense module, the
cover into it, and its kernel made a dense module by `subquotient`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from permchain.complexes import BoundedComplex
from permchain.errors import NonCharacterTrace, NotUnitDimension, PermchainError, PGroupOnly
from permchain.groups import DEFAULT_MAX_ORDER, FiniteGroup, Subgroup, is_p_power, minimal_generators
from permchain.invariants import BetaEntry, BetaTuple
from permchain.linalg import (
    FqMatrix,
    complete_to_basis,
    hstack,
    image_basis,
    kernel_basis,
    kernel_from_rref,
    rank,
    rref,
    solve_matrix,
    vstack,
)
from permchain.modules import (
    BrauerData,
    Character,
    KgModule,
    ModuleMap,
    Summand,
    brauer_points,
    brauer_quotient,
    free_module,
    local_quotient,
    word_steps,
)
from permchain.syzygies import free_generators, orbit_map, subquotient

from linalg_reference import block_diag


class DenseModule:
    """A kG-module on the basis e_0, ..., e_{dim-1} given by one matrix per
    generator, element matrices composed along the group's words.  With
    `check=True` the matrices must be square of one size and satisfy the
    group's relations."""

    labels = None

    def __init__(self, group, field, mats, check=False):
        self.group, self.field = group, field
        self.gen_mats = tuple(mats)
        if len(self.gen_mats) != len(group.generators):
            raise PermchainError("one matrix per group generator required")
        self.dim = self.gen_mats[0].rows
        self._elem = {group.identity: FqMatrix.identity(field, self.dim)}
        if check:
            if {m.shape for m in self.gen_mats} != {(self.dim, self.dim)}:
                raise PermchainError("generator matrices must be square of equal size")
            for gi, g in enumerate(group.gen_indices):
                for x in range(group.order):
                    if self.gen_mats[gi] @ self.elem_mat(x) != self.elem_mat(group.mul(g, x)):
                        raise PermchainError("generator matrices violate the group relations")

    def elem_mat(self, i: int) -> FqMatrix:
        m = self._elem.get(i)
        if m is None:
            k, rest = word_steps(self.group)[i]
            m = self._elem[i] = self.gen_mats[k] @ self.elem_mat(rest)
        return m

    def act(self, gi: int, X: FqMatrix) -> FqMatrix:
        return self.gen_mats[gi] @ X

    def act_right(self, X: FqMatrix, gi: int) -> FqMatrix:
        return X @ self.gen_mats[gi]

    def apply(self, i: int, X: FqMatrix) -> FqMatrix:
        return self.elem_mat(i) @ X

    def fixed_points(self, P) -> FqMatrix:
        """The kernel of g - 1 stacked over the generators g of P."""
        eye = FqMatrix.identity(self.field, self.dim)
        return kernel_basis(vstack([self.elem_mat(g) - eye for g in P.gens])) if P.gens else eye


def monomial_matrix(f, perm, tw) -> FqMatrix:
    """The matrix of g.e_j = tw[j] e_{perm[j]}: tw[j] at (perm[j], j)."""
    a = np.zeros((len(perm), len(perm)), dtype=np.int16)
    a[perm, np.arange(len(perm))] = tw
    return FqMatrix(f, a)


def gen_mats(M) -> list:
    """The generator matrices of M: a `DenseModule`'s own, a `KgModule`'s
    from its permutations and twists."""
    if isinstance(M, DenseModule):
        return list(M.gen_mats)
    return [monomial_matrix(M.field, x, c) for x, c in zip(M.perms, M.twists)]


def elem_mat(M, i: int) -> FqMatrix:
    """The matrix of group element i on M, a `KgModule`'s from the
    permutation and twists of i (`elem_monomial`)."""
    if isinstance(M, DenseModule):
        return M.elem_mat(i)
    return monomial_matrix(M.field, *M.elem_monomial(i))


def scale(A: FqMatrix, code: int) -> FqMatrix:
    """Every entry of A times the scalar `code`."""
    return FqMatrix(A.field, A.field.mul[A.a, int(code)])


def dense_copy(M) -> DenseModule:
    """M as a dense module: its generator matrices, no labels."""
    return DenseModule(M.group, M.field, gen_mats(M))


def brauer_module(bd: BrauerData) -> DenseModule:
    """The Brauer quotient M(P) as a dense module over N_G(P)/P."""
    return DenseModule(bd.ctx.group, bd.fixed.field, bd.action)


def elem_mats(M) -> list:
    """Every element's matrix, by products of generator matrices along the
    group's BFS words."""
    G, mats = M.group, gen_mats(M)
    out = [None] * G.order
    out[G.identity] = FqMatrix.identity(M.field, M.dim)
    for i in sorted(range(G.order), key=lambda j: len(G.words[j])):
        w = G.words[i]
        if w:
            rest = G.mul(G.inv(G.gen_indices[w[0]]), i)
            out[i] = mats[w[0]] @ out[rest]
    return out


def direct_sum_mats(mods) -> list:
    G, f = mods[0].group, mods[0].field
    mats = [gen_mats(m) for m in mods]
    return [block_diag(f, [m[gi] for m in mats]) for gi in range(len(G.generators))]


def twist_mats(M, char) -> list:
    return [scale(m, v) for m, v in zip(gen_mats(M), char.values)]


def dual_mats(M: KgModule) -> list:
    G = M.group
    mats = elem_mats(M)
    return [mats[G.inv(g)].T for g in G.gen_indices]


def tensor_mats(M, N) -> list:
    return [a.kron(b) for a, b in zip(gen_mats(M), gen_mats(N))]


def subgroup_group(H: Subgroup) -> FiniteGroup:
    """H as a group on G's own points, generated by `minimal_generators(H)`
    (the identity for H = 1) named h0, h1, ...; G itself when H is G."""
    G = H.parent
    if H.order == G.order:
        return G
    gens = minimal_generators(H) or [G.identity]
    return FiniteGroup(
        [G.elements[g] for g in gens],
        gen_names=[f"h{i}" for i in range(len(gens))],
        max_order=max(DEFAULT_MAX_ORDER, H.order),
    )


class Restriction(NamedTuple):
    """Res_H M over `subgroup_group(H)`: per generator the permutation and
    the twists, and per summand its character's generator values, its
    indices and its stabilizer in G's element indices."""

    group: FiniteGroup
    perms: list
    twists: list
    labels: list  # (character values, indices, stabilizer as a set of G indices)


def restriction_over_points(M: KgModule, H: Subgroup) -> Restriction:
    """Each generator of `subgroup_group(H)` acts as M's element with its
    permutation; each summand of M splits into the orbits of its points,
    walked breadth first from each point not yet seen, by increasing point."""
    G, Hgrp = M.group, subgroup_group(H)
    elems = [G.index[perm] for perm in Hgrp.generators]
    mono = [M.elem_monomial(x) for x in elems]
    perms = [np.asarray(x).tolist() for x, _ in mono]
    labels, seen = [], set()
    for s in M.labels or ():
        values = tuple(s.character.value_code(x) for x in elems)
        for t0 in s.indices:
            if t0 in seen:
                continue
            orbit = [t0]
            for t in orbit:  # grows while walked
                for u in (perm[t] for perm in perms):
                    if u not in orbit:
                        orbit.append(u)
            seen.update(orbit)
            stab = {h for h in H.elems if M.elem_monomial(h)[0][t0] == t0}
            labels.append((values, tuple(sorted(orbit)), stab))
    return Restriction(Hgrp, perms, [np.asarray(c).tolist() for _, c in mono], labels)


def restrict_mats(M: KgModule, Hgrp) -> list:
    mats = elem_mats(M)
    return [mats[M.group.index[perm]] for perm in Hgrp.generators]


def inflate_mats(M: KgModule, quot) -> list:
    mats = elem_mats(M)
    return [mats[quot.project(g)] for g in quot.source.gen_indices]


def _inverse_frobenius_table(f) -> np.ndarray:
    """The inverse Frobenius automorphism of F_q, x -> x^p n - 1 times, by code."""
    table = np.arange(f.q, dtype=np.int16)
    for _ in range(f.n - 1):
        table = f.frob[table]
    return table


def frobenius_inverse_twist(c: Character) -> Character:
    """c composed with the inverse Frobenius automorphism of F_q, its
    element values walked from its generator values."""
    table = _inverse_frobenius_table(c.field)
    return Character(c.group, c.field, table[list(c.values)], check=False)


def frobenius_mats(M) -> list:
    table = _inverse_frobenius_table(M.field)
    return [FqMatrix(M.field, table[m.a]) for m in gen_mats(M)]


def frobenius_twist_module(M: KgModule) -> KgModule:
    """Scalar restriction along Frobenius: twists mapped by F^{-1}.
    Permutation modules come back identical; twisting characters are
    composed with the inverse automorphism."""
    table = _inverse_frobenius_table(M.field)
    labels = None
    if M.labels is not None:
        labels = tuple(
            Summand(frobenius_inverse_twist(s.character), s.subgroup, s.indices) for s in M.labels
        )
    return KgModule(M.group, M.field, M.perms, [table[c] for c in M.twists], labels=labels, check=False)


class CosetQuotient(NamedTuple):
    """G/N on its cosets: the group, G index -> G/N index, G/N index -> the
    least member of its coset."""

    group: FiniteGroup
    proj: list
    lifts: list


def coset_quotient(G: FiniteGroup, N: Subgroup) -> CosetQuotient:
    """G/N for N normal in G, by G's own generators acting on the cosets
    ordered by least member, each element found by its image of N."""
    order = G.order
    coset_of = [-1] * order
    reps = []
    for x in range(order):
        if coset_of[x] != -1:
            continue
        members = sorted(G.mul(x, n) for n in N.elems)
        for m in members:
            coset_of[m] = len(reps)
        reps.append(members[0])
    k = len(reps)
    gen_perms = [tuple(coset_of[G.mul(g, reps[c])] for c in range(k)) for g in G.gen_indices]
    Q = FiniteGroup(gen_perms, gen_names=G.gen_names, max_order=max(DEFAULT_MAX_ORDER, k))
    coset_to_q = [-1] * k
    for qi, perm in enumerate(Q.elements):
        coset_to_q[perm[coset_of[G.identity]]] = qi
    lifts = [0] * Q.order
    for c in range(k):
        lifts[coset_to_q[c]] = reps[c]
    return CosetQuotient(Q, [coset_to_q[coset_of[x]] for x in range(order)], lifts)


class NormalizerQuotient(NamedTuple):
    """N_G(P)/P: the group, {G index in N_G(P): its image}, and the G
    indices lifting the group's generators."""

    group: FiniteGroup
    project: dict
    generator_lifts: list


def normalizer_group_quotient(P: Subgroup) -> NormalizerQuotient:
    """N_G(P)/P through the normalizer as its own group (`subgroup_group`),
    P in that group's lattice, and `coset_quotient` of that group; at P = 1
    the normalizer group itself, which is G."""
    G = P.parent
    lat = G.lattice()
    NG = subgroup_group(lat.normalizer(P))
    to_g = [G.index[e] for e in NG.elements]
    if P.order == 1:
        return NormalizerQuotient(NG, dict(zip(to_g, range(NG.order))), [to_g[i] for i in NG.gen_indices])
    PN = NG.lattice().subgroup(frozenset(NG.index[G.elements[x]] for x in P.elems))
    q = coset_quotient(NG, PN)
    return NormalizerQuotient(
        q.group, dict(zip(to_g, q.proj)), [to_g[q.lifts[i]] for i in q.group.gen_indices]
    )


def brauer_points_dense(M: KgModule, P, lifts, pgens, p_power: bool):
    """The P-fixed points as the nonzero diagonal entries of the matrices
    of P's generators, and the local matrices as submatrices."""
    mats = elem_mats(M)
    fixed = np.full(M.dim, p_power)
    for g in pgens:
        fixed &= mats[g].a.diagonal() != 0
    pts = np.flatnonzero(fixed)
    local = [
        FqMatrix(M.field, mats[g].a[np.ix_(pts, pts)]) for g in lifts
    ]
    return pts, local


def commutes_dense(source, target, matrix: FqMatrix) -> bool:
    """The dense commutation check: A^T_g F == F A^S_g for every generator."""
    return all(
        (t @ matrix) == (matrix @ s) for s, t in zip(gen_mats(source), gen_mats(target))
    )


def summand_perm_action(M: KgModule, s):
    """Per-generator permutation of the summand's indices, read off the
    columns of the generator matrices; None if a column is not a single
    entry equal to the summand's character value inside the summand."""
    pos = {t: k for k, t in enumerate(s.indices)}
    perms = []
    for gi, m in enumerate(gen_mats(M)):
        a = m.a
        want = s.character.values[gi]
        img = []
        for t in s.indices:
            col = a[:, t]
            nz = np.nonzero(col)[0]
            if nz.size != 1 or int(col[nz[0]]) != want or int(nz[0]) not in pos:
                return None
            img.append(pos[int(nz[0])])
        perms.append(tuple(img))
    return perms


def module_check_labels(M: KgModule) -> bool:
    """The labels match the action: the summands partition the basis, each
    lists its indices in increasing order, every generator acts on it by its
    character value, the generators' permutations of it are transitive, and
    the elements whose matrices keep its first point on its own line are
    exactly the labeled subgroup."""
    if M.labels is None:
        return False
    mats = elem_mats(M)
    covered = []
    for s in M.labels:
        if list(s.indices) != sorted(s.indices) or not s.indices:
            return False
        perms = summand_perm_action(M, s)
        if perms is None:
            return False
        orbit = {0}
        stack = [0]
        while stack:
            k = stack.pop()
            for perm in perms:
                if perm[k] not in orbit:
                    orbit.add(perm[k])
                    stack.append(perm[k])
        if len(orbit) != len(s.indices):
            return False
        t = s.indices[0]
        stab = tuple(g for g in range(M.group.order) if mats[g].a[t, t] != 0)
        if stab != s.subgroup.elems:
            return False
        covered += s.indices
    return sorted(covered) == list(range(M.dim))


# -- the Brauer construction by traces ---------------------------------------


def fixed_points(M: KgModule, P) -> FqMatrix:
    return M.fixed_points(P)


def push(bd: BrauerData, ambient_cols: FqMatrix) -> FqMatrix:
    """Ambient vectors lying in M^P in the quotient coordinates of M(P)."""
    coords = solve_matrix(bd.fixed, ambient_cols)
    if coords is None:
        raise PermchainError("vector not fixed by P")
    return bd.proj @ coords


def lift(bd: BrauerData, quotient_cols: FqMatrix) -> FqMatrix:
    return bd.fixed @ (bd.section @ quotient_cols)


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g o f."""
    return ModuleMap(f.source, g.target, g.matrix @ f.matrix)


def diff_at(C: BoundedComplex, i: int) -> ModuleMap:
    """d_i of C as a module map, the zero map where C holds none."""
    d = C.diffs.get(i)
    if d is not None:
        return d
    src, dst = C.module_at(i), C.module_at(i - 1)
    return ModuleMap(src, dst, FqMatrix.zeros(C.field, dst.dim, src.dim))


def brauer_quotient_map(fmap: ModuleMap, P, src: BrauerData = None, dst: BrauerData = None) -> ModuleMap:
    """The induced map M(P) -> N(P); functorial in the map."""
    if src is None:
        src = brauer_quotient(fmap.source, P)
    if dst is None:
        dst = brauer_quotient(fmap.target, P)
    M, N = brauer_module(src), brauer_module(dst)
    if M.dim == 0 or N.dim == 0:
        return ModuleMap(M, N, FqMatrix.zeros(fmap.source.field, N.dim, M.dim))
    carried = fmap.matrix @ lift(src, FqMatrix.identity(fmap.source.field, M.dim))
    return ModuleMap(M, N, push(dst, carried))


def is_split_injective(fmap: ModuleMap) -> bool:
    """Split injectivity via injectivity of every induced local map."""
    lat = fmap.source.group.lattice()
    for P in lat.p_class_reps(fmap.source.field.p):
        g = brauer_quotient_map(fmap, P)
        if rank(g.matrix) != g.source.dim:
            return False
    return True


def is_split_surjective(fmap: ModuleMap) -> bool:
    lat = fmap.source.group.lattice()
    for P in lat.p_class_reps(fmap.source.field.p):
        g = brauer_quotient_map(fmap, P)
        if rank(g.matrix) != g.target.dim:
            return False
    return True


def vertex_classes(M: KgModule) -> list:
    """Class representatives P with M(P) nonzero."""
    lat = M.group.lattice()
    return [P for P in lat.p_class_reps(M.field.p) if brauer_module(brauer_quotient(M, P)).dim != 0]


def trace_quotient_complex(C: BoundedComplex, P) -> BoundedComplex:
    """The local complex at P by linear algebra: every term's Brauer
    quotient and every differential's induced map, for dense terms too."""
    datas = [brauer_quotient(C.module_at(i), P) for i in C.degrees()]
    diffs = {
        i: brauer_quotient_map(diff_at(C, i), P, datas[i - C.lo], datas[i - 1 - C.lo])
        for i in range(C.lo + 1, C.hi + 1)
    }
    group = local_quotient(P).group
    return BoundedComplex(group, C.field, C.lo, [brauer_module(d) for d in datas], diffs)


def dense_trace_beta(t) -> BetaTuple:
    """`invariants.beta_direct` with every trace read off a dense matrix:
    the matrix of each element of N_G(P)/P on each local term, its trace,
    and the product rule checked on every pair of elements."""
    G, f = t.group, t.field
    entries = {}
    for P in G.lattice().p_class_reps(f.p):
        ctx = local_quotient(P)
        Q = ctx.group
        vdim = 0
        tracesum = [0] * Q.order
        for char, sub, coeff in t.items():
            _, local = brauer_points(t.module_for(char, sub), P)
            vdim += coeff * local.dim
            cmod = coeff % f.p
            for e in range(Q.order):
                tr = elem_mat(local, e).trace().code if local.dim else 0
                tracesum[e] = int(f.add[tracesum[e], f.mul[tr, cmod]])
        if vdim not in (1, -1):
            raise NotUnitDimension(f"virtual dimension {vdim} at a class of order {P.order}")
        inv_eps = int(f.inv[1 if vdim == 1 else f.neg[1]])
        rho = [int(f.mul[inv_eps, v]) for v in tracesum]
        if any(v == 0 for v in rho) or rho[Q.identity] != 1:
            raise NonCharacterTrace("trace vector has non-unit values")
        for x in range(Q.order):
            for y in range(Q.order):
                if int(f.mul[rho[x], rho[y]]) != rho[Q.mul(x, y)]:
                    raise NonCharacterTrace("trace vector is not multiplicative")
        char = Character(Q, f, [rho[g] for g in Q.gen_indices], check=False)
        entries[P.class_id] = BetaEntry(P, vdim, char, ctx)
    return BetaTuple(G, f, entries)


# -- free summands over a p-group ---------------------------------------------


def _require_p_group(M: KgModule):
    if not is_p_power(M.group.order, M.field.p):
        raise PGroupOnly("operation defined for p-groups in characteristic p only")


def norm_matrix(M: KgModule) -> FqMatrix:
    total = None
    for g in range(M.group.order):
        m = elem_mat(M, g)
        total = m if total is None else total + m
    return total


def free_rank(M: KgModule) -> int:
    """Rank of the norm element's action; the multiplicity of kG in M."""
    _require_p_group(M)
    if M.dim == 0:
        return 0
    return rank(norm_matrix(M))


def radical_basis(M: KgModule) -> FqMatrix:
    """Basis of rad M = span{(g-1)m} over the generators."""
    eye = FqMatrix.identity(M.field, M.dim)
    cols = hstack([m - eye for m in gen_mats(M)])
    return image_basis(cols)


class DenseOmega(NamedTuple):
    module: DenseModule  # the kernel of the cover
    cover: ModuleMap     # free module -> M, a projective cover
    inclusion: FqMatrix  # kernel basis inside the free module


def dense_omega(M: KgModule) -> DenseOmega:
    """Kernel of the projective cover kG^n -> M, n = dim M/rad M; one
    reduction of the cover gives its rank and its kernel."""
    G, f = M.group, M.field
    _require_p_group(M)
    if M.dim == 0:
        raise PermchainError("omega of the zero module")
    head_idx = complete_to_basis(radical_basis(M))
    free = free_module(G, f, len(head_idx))
    cover_mat = orbit_map(M, FqMatrix.identity(f, M.dim).take_cols(head_idx))
    cover = ModuleMap(free, M, cover_mat)
    R, rk, pivots = rref(cover_mat)
    if rk != M.dim:
        raise PermchainError("cover is not surjective")
    K = kernel_from_rref(R, rk, pivots)
    return DenseOmega(DenseModule(G, f, subquotient(free, K).action), cover, K)


class SplitFree(NamedTuple):
    rank: int
    free: KgModule            # kG^rank
    free_inclusion: FqMatrix  # columns: basis of the free summand in M
    complement: KgModule
    complement_inclusion: FqMatrix
    retraction: FqMatrix      # M -> free coordinates, identity on the summand


def split_free_summand(M: KgModule) -> SplitFree:
    """M = kG^r (+) complement with the complement free-rank zero.

    The retraction is built from the symmetrizing form of kG: a linear
    functional L with L(norm . w_j) = delta_ij spreads to the kG-map
    m -> sum_g L(g^{-1} m) g, and the head of the composite with the
    inclusion is exactly that delta matrix, so the composite is invertible.
    """
    G, f = M.group, M.field
    _require_p_group(M)
    chosen, U = free_generators(M)
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
    incl = orbit_map(M, FqMatrix.identity(f, M.dim).take_cols(chosen))
    lam = solve_matrix(U.T, FqMatrix.identity(f, r))
    if lam is None:
        raise PermchainError("failed to dualize the norm images")
    lamT = lam.T  # r x dim with lamT @ U = I_r
    # row i*|G| + g of rho is row i of lamT g^{-1}
    blocks = [(lamT @ elem_mat(M, G.inv(g))).a for g in range(G.order)]
    rho = FqMatrix(f, np.stack(blocks, axis=1).reshape(r * G.order, M.dim))
    S = rho @ incl
    Sinv = solve_matrix(S, FqMatrix.identity(f, r * G.order))
    if Sinv is None:
        raise PermchainError("free summand retraction is singular")
    retraction = Sinv @ rho
    C = kernel_basis(retraction)
    return SplitFree(r, free, incl, DenseModule(G, f, subquotient(M, C).action), C, retraction)
