"""Syzygies, free summands and Hom spaces of kG-modules.

Over a p-group the group algebra is local and self-injective, with the
norm element spanning the socle of the regular module.  `omega` takes the
kernel of a projective cover, `split_free_summand` splits off kG^r by the
symmetrizing form, and `relative_syzygy` is the kernel of k[G/H] -> k.
These are subquotients, so their modules are dense.  `hom_space_basis`
solves the equivariance equations of Hom_kG(M, N).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import IncompatibleHandles, PermchainError, PGroupOnly
from .ffield import FqField
from .groups import FiniteGroup, Subgroup, is_p_power
from .linalg import (
    FqMatrix,
    complete_to_basis,
    hstack,
    image_basis,
    kernel_basis,
    rank,
    solve_matrix,
    vstack,
)
from .modules import KgModule, ModuleMap, free_module, perm_module


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
        moved = free.act(gi, K)
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
        moved = M.act(gi, C)
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
        coords = solve_matrix(K, M.act(gi, K))
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
