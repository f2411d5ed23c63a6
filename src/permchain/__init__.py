"""permchain: exact computations with chain complexes of p-permutation modules."""

from .ffield import GF, FqField, FqScalar, field_from_q, frobenius, frobenius_inverse
from .groups import (
    FiniteGroup,
    Subgroup,
    SubgroupLattice,
    catalog,
    enumerate_subgroups,
    group_from_spec,
    p_subgroups,
    quotient,
)
from .linalg import FqMatrix, image_basis, kernel_basis, quotient_space, rank, rref

__all__ = [
    "GF",
    "FqField",
    "FqScalar",
    "FqMatrix",
    "FiniteGroup",
    "Subgroup",
    "SubgroupLattice",
    "catalog",
    "enumerate_subgroups",
    "field_from_q",
    "frobenius",
    "frobenius_inverse",
    "group_from_spec",
    "image_basis",
    "kernel_basis",
    "p_subgroups",
    "quotient",
    "quotient_space",
    "rank",
    "rref",
]
