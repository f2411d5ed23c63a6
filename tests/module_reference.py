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
"""

from __future__ import annotations

import numpy as np

from permchain.complexes import BoundedComplex
from permchain.errors import PermchainError
from permchain.linalg import FqMatrix, block_diag, rank, solve_matrix
from permchain.modules import BrauerData, KgModule, ModuleMap, brauer_context, brauer_quotient


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


def brauer_points_dense(M: KgModule, P, ctx, pgens, p_power: bool):
    """The P-fixed points as the nonzero diagonal entries of the matrices
    of P's generators, and the local matrices as submatrices."""
    mats = elem_mats(M)
    fixed = np.full(M.dim, p_power)
    for g in pgens:
        fixed &= mats[g].a.diagonal() != 0
    pts = np.flatnonzero(fixed)
    local = [
        FqMatrix(M.field, mats[g].a[np.ix_(pts, pts)]) for g in ctx.quotient_generator_lifts()
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
    group = brauer_context(C.group, P).quotient_group
    return BoundedComplex(group, C.field, C.lo, [d.module for d in datas], diffs)
