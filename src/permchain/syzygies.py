"""Syzygies and free summands of kG-modules.

A syzygy is a column span V inside the permutation module M it lives in,
and the construction layer never leaves those modules.  `orbit_map(M, W)`
is the only way to build a map out of a free module kG^r, the one sending
the i-th free generator to W[:, i]: the projective covers and the
inclusions of free summands.  `subquotient(M, V, W)` gives the action
on span(V)/span(W), one matrix per generator, for homology modules and
test oracles only.

Over a p-group the group algebra is local and self-injective, with the
norm element spanning the socle of the regular module.  `omega(M, V)`
covers span(V) and gives the kernel inside the free module,
`free_generators(M, V)` finds free generators among the norm images of the
columns of V (splitting them off is a test oracle), and `relative_syzygy`
is the kernel of k[G/H] -> k inside k[G/H].
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotSubmodule, PermchainError, PGroupOnly
from .ffield import FqField
from .groups import FiniteGroup, Subgroup, is_p_power
from .linalg import (
    FqMatrix,
    complete_to_basis,
    hstack,
    kernel_basis,
    kernel_from_rref,
    quotient_space,
    rref,
    solve_matrix,
)
from .modules import KgModule, ModuleMap, free_module, perm_module


# -- subquotients and maps out of free modules --------------------------------


class Subquotient(NamedTuple):
    action: list          # one matrix per generator on span(V)/span(W)
    witness: FqMatrix     # M-coordinates of representatives of its basis
    projection: FqMatrix  # V-coordinates -> quotient coordinates


def subquotient(M: KgModule, V: FqMatrix, W: FqMatrix = None) -> Subquotient:
    """The action on span(V)/span(W), for homology and test oracles, of
    G-stable column spans W <= V of M, V independent, as one matrix per
    generator; W empty or omitted gives span(V), with the identity
    projection.  One solve gives the action."""
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
        raise NotSubmodule("the span is not a submodule")
    if quotient:
        coords = proj @ coords
    return Subquotient([FqMatrix(f, a) for a in np.hsplit(coords.a, len(gens))], witness, proj)


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


class OmegaData(NamedTuple):
    cover: ModuleMap     # free module -> M, onto span(V): a projective cover
    inclusion: FqMatrix  # basis of the cover's kernel inside the free module


def omega(M: KgModule, V: FqMatrix = None) -> OmegaData:
    """The projective cover kG^n -> span(V) <= M (all of M when V is
    omitted), V independent, and its kernel's basis in kG^n.  The head is
    the columns of V completing the (g - 1)V over the generators g.  The
    cover's rank exceeds V.cols exactly when span(V) is not a submodule."""
    G, f = M.group, M.field
    _require_p_group(G, f)
    if V is None:
        V = FqMatrix.identity(f, M.dim)
    if V.cols == 0:
        raise PermchainError("omega of the zero module")
    radical = hstack([M.act(gi, V) - V for gi in range(len(G.generators))])
    head = complete_to_basis(radical, V)
    free = free_module(G, f, len(head))
    cover = ModuleMap(free, M, orbit_map(M, V.take_cols(head)))
    R, rk, pivots = rref(cover.matrix)
    if rk != V.cols:
        raise NotSubmodule(f"span(V) is not a submodule: its cover has rank {rk}, not {V.cols}")
    return OmegaData(cover, kernel_from_rref(R, rk, pivots))


def free_generators(M: KgModule, V: FqMatrix = None):
    """The pivot columns j of the norm images sum_g g.V (V the identity
    when omitted), and the images there: independent, and each V[:, j]
    generates a free rank-one summand, as every nonzero submodule of kG
    meets the socle; the columns a greedy search for rank increases keeps."""
    if V is None:
        V = FqMatrix.identity(M.field, M.dim)
    norm = M.apply(0, V)
    for g in range(1, M.group.order):
        norm = norm + M.apply(g, V)
    pivots = rref(norm)[2]
    return pivots, norm.take_cols(pivots)


class SyzygyData(NamedTuple):
    inclusion: FqMatrix  # basis of the kernel inside the ambient module
    ambient: KgModule


def relative_syzygy(G: FiniteGroup, H: Subgroup, field: FqField) -> SyzygyData:
    """Kernel of the augmentation k[G/H] -> k, as a basis inside k[G/H]."""
    M = perm_module(G, H, field)
    K = kernel_basis(FqMatrix(field, np.ones((1, M.dim), dtype=np.int16)))
    return SyzygyData(K, M)
