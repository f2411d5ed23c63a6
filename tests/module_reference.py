"""Dense reference constructions for kG-modules.

These build every module operation from dense generator matrices, the way
`permchain.modules` did before modules carried their monomial action: the
Kronecker product for tensors, scaling for twists, the inverse transpose
for duals, element matrices as products along BFS words, summand
permutations read off the matrix columns, and the commutation check of a
module map as two matrix products per generator.  The property tests
compare the monomial code against them.
"""

from __future__ import annotations

import numpy as np

from permchain.errors import PermchainError
from permchain.linalg import FqMatrix, block_diag
from permchain.modules import KgModule


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


def summand_perm_action(M: KgModule, s) -> list:
    """Per-generator permutation of the summand's indices, read off the
    columns of the generator matrices; raises if a column is not a single
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
                raise PermchainError("summand label does not match the action")
            img.append(pos[int(nz[0])])
        perms.append(tuple(img))
    return perms


def module_check_labels(M: KgModule) -> bool:
    """The labels match the action: each summand is a transitive block of
    the right size on which every generator acts by its character value."""
    if M.labels is None:
        return False
    for s in M.labels:
        summand_perm_action(M, s)
        if len(s.indices) != M.group.order // s.subgroup.order:
            return False
    return True
