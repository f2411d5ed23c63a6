"""Syzygies, free summands and Hom spaces of kG-modules.

`subquotient(M, V, W)` is the only way to build a dense subquotient
span(V)/span(W) of a module: the syzygies, the complements of free
summands and the homology modules (`complexes.homology_at`) are all built
by it.  `orbit_map(M, W)` is the only way to build a map out of a free
module kG^r, the one sending the i-th free generator to W[:, i]: the
projective covers and the inclusions of free summands.

Over a p-group the group algebra is local and self-injective, with the
norm element spanning the socle of the regular module.  `omega` takes the
kernel of a projective cover, `free_generators` finds the generators of a
free summand kG^r among the norm images of the basis (splitting it off is
a test oracle), and `relative_syzygy` is the kernel of k[G/H] -> k.
`hom_space_basis` solves the equivariance equations of Hom_kG(M, N).
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
    kernel_from_rref,
    quotient_space,
    rref,
    solve_matrix,
    vstack,
)
from .modules import KgModule, ModuleMap, free_module, perm_module


# -- subquotients and maps out of free modules --------------------------------


class Subquotient(NamedTuple):
    module: KgModule      # span(V)/span(W), dense
    witness: FqMatrix     # M-coordinates of representatives of its basis
    projection: FqMatrix  # V-coordinates -> quotient coordinates


def subquotient(M: KgModule, V: FqMatrix, W: FqMatrix = None) -> Subquotient:
    """The module span(V)/span(W) for G-stable column spans W <= V of M,
    V independent; W empty or omitted gives span(V) itself, with the
    identity projection.  One solve gives every generator's action."""
    G, f = M.group, M.field
    quotient = W is not None and W.cols > 0
    if quotient:
        section, proj = quotient_space(V, W)
        witness = V @ section
    else:
        witness, proj = V, FqMatrix.identity(f, V.cols)
    gens = range(len(G.generators))
    coords = solve_matrix(V, hstack([M.act(gi, witness) for gi in gens]))
    if coords is None:
        raise PermchainError("the span is not a submodule")
    if quotient:
        coords = proj @ coords
    mats = [FqMatrix(f, a) for a in np.hsplit(coords.a, len(gens))]
    return Subquotient(KgModule(G, f, mats, labels=None, check=False), witness, proj)


def orbit_map(M: KgModule, W: FqMatrix) -> FqMatrix:
    """The matrix of the kG-map kG^r -> M sending the i-th free generator
    to W[:, i]: column i*|G| + g is g.W[:, i]."""
    G = M.group
    moved = np.stack([M.apply(g, W).a for g in range(G.order)], axis=2)
    return FqMatrix(M.field, moved.reshape(M.dim, W.cols * G.order))


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
    """Kernel of the projective cover kG^n -> M, n = dim M/rad M; one
    reduction of the cover gives its rank and its kernel."""
    G, f = M.group, M.field
    _require_p_group(G, f)
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
    return OmegaData(subquotient(free, K).module, cover, K)


def norm_matrix(M: KgModule) -> FqMatrix:
    total = None
    for g in range(M.group.order):
        m = M.elem_mat(g)
        total = m if total is None else total + m
    return total


def free_generators(M: KgModule):
    """The pivot columns j of the norm matrix, and the norm images
    norm . e_j at them.  The images are independent, and each e_j generates
    a free rank-one summand, since every nonzero submodule of kG meets the
    socle; they are the columns a greedy search for rank increases keeps."""
    nm = norm_matrix(M)
    pivots = rref(nm)[2]
    return pivots, nm.take_cols(pivots)


class SyzygyData(NamedTuple):
    module: KgModule
    inclusion: FqMatrix
    ambient: KgModule


def relative_syzygy(G: FiniteGroup, H: Subgroup, field: FqField) -> SyzygyData:
    """Kernel of the augmentation k[G/H] -> k."""
    M = perm_module(G, H, field)
    K = kernel_basis(FqMatrix(field, np.ones((1, M.dim), dtype=np.int16)))
    return SyzygyData(subquotient(M, K).module, K, M)


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
