"""Dense reference constructions for kG-modules.

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
normalizer as a standalone group, P found in that group's own lattice,
the quotient of that group by cosets, and indices translated back to G.

Local characters of a virtual element are read here from the dense
matrix of every element on every local term (`dense_trace_beta`); the
package reads each trace off the twists at the fixed points.

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
from permchain.groups import DEFAULT_MAX_ORDER, FiniteGroup, Subgroup, is_p_power
from permchain.invariants import BetaEntry, BetaTuple
from permchain.linalg import (
    FqMatrix,
    block_diag,
    complete_to_basis,
    hstack,
    image_basis,
    kernel_basis,
    kernel_from_rref,
    rank,
    rref,
    solve_matrix,
)
from permchain.modules import (
    BrauerData,
    Character,
    KgModule,
    ModuleMap,
    brauer_points,
    brauer_quotient,
    free_module,
    local_quotient,
)
from permchain.syzygies import free_generators, orbit_map, subquotient


def scale(A: FqMatrix, code: int) -> FqMatrix:
    """Every entry of A times the scalar `code`."""
    return FqMatrix(A.field, A.field.mul[A.a, int(code)])


def dense_copy(M: KgModule) -> KgModule:
    """M as a dense module: its generator matrices, no labels."""
    return KgModule(M.group, M.field, M.gen_mats, labels=None, check=False)


def elem_mats(M: KgModule) -> list:
    """Every element's matrix, by products of generator matrices along the
    group's BFS words."""
    G = M.group
    out = [None] * G.order
    out[G.identity] = FqMatrix.identity(M.field, M.dim)
    for i in sorted(range(G.order), key=lambda j: len(G.words[j])):
        w = G.words[i]
        if w:
            rest = G.mul(G.inv(G.gen_indices[w[0]]), i)
            out[i] = M.gen_mats[w[0]] @ out[rest]
    return out


def direct_sum_mats(mods) -> list:
    G, f = mods[0].group, mods[0].field
    return [block_diag(f, [m.gen_mats[gi] for m in mods]) for gi in range(len(G.generators))]


def twist_mats(M: KgModule, char) -> list:
    return [scale(m, v) for m, v in zip(M.gen_mats, char.values)]


def dual_mats(M: KgModule) -> list:
    G = M.group
    mats = elem_mats(M)
    return [mats[G.inv(g)].T for g in G.gen_indices]


def tensor_mats(M: KgModule, N: KgModule) -> list:
    return [a.kron(b) for a, b in zip(M.gen_mats, N.gen_mats)]


def restrict_mats(M: KgModule, Hgrp) -> list:
    mats = elem_mats(M)
    return [mats[M.group.index[perm]] for perm in Hgrp.generators]


def inflate_mats(M: KgModule, quot) -> list:
    mats = elem_mats(M)
    return [mats[quot.project(g)] for g in quot.source.gen_indices]


def frobenius_mats(M: KgModule) -> list:
    f = M.field
    table = np.arange(f.q, dtype=np.int16)
    for _ in range(f.n - 1):
        table = f.frob[table]
    return [FqMatrix(f, table[m.a]) for m in M.gen_mats]


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
    """N_G(P)/P through the normalizer as its own group (`as_group`), P in
    that group's lattice, and `coset_quotient` of that group; at P = 1 the
    normalizer group itself, which is G."""
    G = P.parent
    lat = G.lattice()
    NG = lat.as_group(lat.normalizer(P))
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


def commutes_dense(source: KgModule, target: KgModule, matrix: FqMatrix) -> bool:
    """The dense commutation check: A^T_g F == F A^S_g for every generator."""
    return all(
        (target.gen_mats[gi] @ matrix) == (matrix @ source.gen_mats[gi])
        for gi in range(len(source.group.generators))
    )


def summand_perm_action(M: KgModule, s):
    """Per-generator permutation of the summand's indices, read off the
    columns of the generator matrices; None if a column is not a single
    entry equal to the summand's character value inside the summand."""
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


def brauer_quotient_map(fmap: ModuleMap, P, src: BrauerData = None, dst: BrauerData = None) -> ModuleMap:
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
    carried = fmap.matrix @ lift(src, FqMatrix.identity(fmap.source.field, src.module.dim))
    return ModuleMap(src.module, dst.module, push(dst, carried))


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
    return [P for P in lat.p_class_reps(M.field.p) if brauer_quotient(M, P).module.dim != 0]


def trace_quotient_complex(C: BoundedComplex, P) -> BoundedComplex:
    """The local complex at P by linear algebra: every term's Brauer
    quotient and every differential's induced map, for dense terms too."""
    datas = [brauer_quotient(C.module_at(i), P) for i in C.degrees()]
    diffs = {
        i: brauer_quotient_map(C.diff_at(i), P, datas[i - C.lo], datas[i - 1 - C.lo])
        for i in range(C.lo + 1, C.hi + 1)
    }
    group = local_quotient(P).group
    return BoundedComplex(group, C.field, C.lo, [d.module for d in datas], diffs)


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
                tr = local.elem_mat(e).trace().code if local.dim else 0
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
        m = M.elem_mat(g)
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
    cols = hstack([m - eye for m in M.gen_mats])
    return image_basis(cols)


class DenseOmega(NamedTuple):
    module: KgModule     # the kernel of the cover
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
    return DenseOmega(subquotient(free, K).module, cover, K)


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
    blocks = [(lamT @ M.elem_mat(G.inv(g))).a for g in range(G.order)]
    rho = FqMatrix(f, np.stack(blocks, axis=1).reshape(r * G.order, M.dim))
    S = rho @ incl
    Sinv = solve_matrix(S, FqMatrix.identity(f, r * G.order))
    if Sinv is None:
        raise PermchainError("free summand retraction is singular")
    retraction = Sinv @ rho
    C = kernel_basis(retraction)
    return SplitFree(r, free, incl, subquotient(M, C).module, C, retraction)
