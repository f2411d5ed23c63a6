"""Bounded chain complexes of kG-modules.

Differentials go down in degree (d_i: C_i -> C_{i-1}) and d o d = 0 is
checked eagerly at construction, as are the chain-map conditions - silent
nonsense is worse than a loud failure in exact arithmetic.

Homology dimensions come from ranks: dim C_i - rank d_i - rank d_{i+1}.
`reduce_differentials` reduces each differential once and keeps the
reductions, so a caller reads ranks and kernels off the same `rref`; the
dims are kept on the complex.  `homology_at` reads the action on the
subquotient cycles/boundaries from `syzygies.subquotient`, one matrix per
generator with explicit witnesses, so group actions on homology are
computed exactly.
`endotrivial_report` is the one pass over the p-subgroup classes, made
once per complex.  C(P) is k[X^P] with the submatrices d_i[X_{i-1}^P,
X_i^P] as differentials (Broue), so the report reads the P-fixed points
of each term and reduces each nonempty submatrix once; it builds no local
module, map or complex.  By the Hopf trace formula a chain automorphism g
has sum_i (-1)^i tr(g | C_i) = sum_i (-1)^i tr(g | H_i), so on homology
that is one line in degree h, chi(g) = sum_i (-1)^(i+h) tr(g | C_i); on a
monomial term that trace is the field sum of g's twists at the points g
fixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Optional

import numpy as np

from .errors import (
    IncompatibleHandles,
    NotChainMap,
    NotEndotrivial,
    PermchainError,
)
from .ffield import FqField
from .groups import FiniteGroup, Quotient, Subgroup
from .linalg import FqMatrix, image_basis, kernel_basis, rref
from .modules import (
    Character,
    KgModule,
    ModuleMap,
    brauer_points,
    character_warning,
    direct_sum,
    dual,
    fixed_basis_points,
    local_quotient,
    monomial_trace,
    point_action,
    tensor,
    twist,
    zero_module,
)
from .syzygies import subquotient


class BoundedComplex:
    """Degree-indexed modules with differentials d_i: C_i -> C_{i-1}.

    `diffs` holds the differentials given, and d o d = 0 is checked between
    given neighbours; an absent one is zero.
    Immutable after construction, down to the differentials' arrays.  The
    nonzero homology dims and the endotriviality report are computed on
    first use and kept on the complex."""

    def __init__(self, group: FiniteGroup, field: FqField, lo: int, modules, diffs):
        mods = tuple(modules) or (zero_module(group, field),)
        if any(m.group is not group or m.field != field for m in mods):
            raise IncompatibleHandles("component over the wrong group or field")
        hi = lo + len(mods) - 1
        for i in diffs:
            if not (lo + 1 <= i <= hi):
                raise PermchainError(f"differential at degree {i} out of range")
        own = {}  # the given differentials only: an absent one is zero
        for i in sorted(diffs):
            d = diffs[i]
            own[i] = d if isinstance(d, ModuleMap) else ModuleMap(mods[i - lo], mods[i - 1 - lo], d)
        for i in own:
            if i - 1 in own and not (own[i - 1].matrix @ own[i].matrix).is_zero():
                raise PermchainError(f"d^2 != 0 between degrees {i} and {i - 2}")
        for d in own.values():
            d.matrix.a.setflags(write=False)
        self.__dict__.update(group=group, field=field, lo=lo, hi=hi, mods=mods, _homology=None, _report=None)
        self.__dict__["diffs"] = MappingProxyType(own)

    def __setattr__(self, name, value):
        raise AttributeError(f"BoundedComplex is immutable; cannot set {name}")

    def module_at(self, i: int) -> KgModule:
        if self.lo <= i <= self.hi:
            return self.mods[i - self.lo]
        return zero_module(self.group, self.field)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def dims(self) -> dict:
        return {i: self.module_at(i).dim for i in self.degrees()}

    def __repr__(self):
        dims = " ".join(f"{i}:{self.module_at(i).dim}" for i in self.degrees())
        return f"BoundedComplex({self.group.describe()}, F{self.field.q}, {dims})"


def module_complex(M: KgModule, degree: int = 0) -> BoundedComplex:
    return BoundedComplex(M.group, M.field, degree, [M], {})


def trivial_complex(G: FiniteGroup, field: FqField, degree: int = 0) -> BoundedComplex:
    from .modules import trivial_module

    return module_complex(trivial_module(G, field), degree)


# -- algebra on complexes -----------------------------------------------------


def tensor_complex(C: BoundedComplex, D: BoundedComplex) -> BoundedComplex:
    """Tensor product with the usual sign: d(x (x) y) uses c on the left
    factor and (-1)^i id (x) d on the right."""
    if C.group is not D.group or C.field != D.field:
        raise IncompatibleHandles("tensor of complexes over different handles")
    G, f = C.group, C.field
    lo, hi = C.lo + D.lo, C.hi + D.hi

    def blocks(n):
        return [
            (i, n - i)
            for i in range(C.lo, C.hi + 1)
            if D.lo <= n - i <= D.hi
            and C.module_at(i).dim > 0
            and D.module_at(n - i).dim > 0
        ]

    mods = {}
    for n in range(lo, hi + 1):
        bl = blocks(n)
        mods[n] = (
            direct_sum([tensor(C.module_at(i), D.module_at(j)) for i, j in bl])
            if bl
            else zero_module(G, f)
        )

    diffs = {}
    for n in range(lo + 1, hi + 1):
        src_bl, dst_bl = blocks(n), blocks(n - 1)
        if not src_bl or not dst_bl:
            continue
        src_off = {}
        acc = 0
        for i, j in src_bl:
            src_off[(i, j)] = acc
            acc += C.module_at(i).dim * D.module_at(j).dim
        dst_off = {}
        acc = 0
        for i, j in dst_bl:
            dst_off[(i, j)] = acc
            acc += C.module_at(i).dim * D.module_at(j).dim
        mat = FqMatrix.zeros(f, mods[n - 1].dim, mods[n].dim)
        for i, j in src_bl:
            ci, dj = C.module_at(i), D.module_at(j)
            if (i - 1, j) in dst_off and i in C.diffs:
                block = C.diffs[i].matrix.kron(FqMatrix.identity(f, dj.dim))
                r, c = dst_off[(i - 1, j)], src_off[(i, j)]
                mat.a[r : r + block.rows, c : c + block.cols] = block.a
                diffs[n] = mat
            if (i, j - 1) in dst_off and j in D.diffs:
                block = FqMatrix.identity(f, ci.dim).kron(D.diffs[j].matrix)
                if i % 2:
                    block = -block
                r, c = dst_off[(i, j - 1)], src_off[(i, j)]
                mat.a[r : r + block.rows, c : c + block.cols] = block.a
                diffs[n] = mat
    return BoundedComplex(G, f, lo, [mods[n] for n in range(lo, hi + 1)], diffs)


def dual_complex(C: BoundedComplex) -> BoundedComplex:
    """Degree -i carries the dual of C_i; the differential picks up the sign
    (-1)^(n+1) when mapping out of degree n."""
    G, f = C.group, C.field
    lo, hi = -C.hi, -C.lo
    mods = [dual(C.module_at(-n)) for n in range(lo, hi + 1)]
    diffs = {}
    for i, d in C.diffs.items():  # C_i -> C_{i-1} gives degree n = 1 - i -> -n
        mat = d.matrix.T
        diffs[1 - i] = -mat if i % 2 else mat  # i and n + 1 = 2 - i have one parity
    return BoundedComplex(G, f, lo, mods, diffs)


def shift(C: BoundedComplex, k: int) -> BoundedComplex:
    """Degree shift by k; differentials are scaled by (-1)^k so that the
    result agrees with tensoring by the one-term complex k[k]."""
    mods = [C.module_at(i) for i in C.degrees()]
    diffs = {i + k: -d.matrix if k % 2 else d.matrix for i, d in C.diffs.items()}
    return BoundedComplex(C.group, C.field, C.lo + k, mods, diffs)


def twist_complex(C: BoundedComplex, char: Character) -> BoundedComplex:
    mods = [twist(C.module_at(i), char) for i in C.degrees()]
    diffs = {i: d.matrix for i, d in C.diffs.items()}
    return BoundedComplex(C.group, C.field, C.lo, mods, diffs)


@dataclass
class ChainMap:
    source: BoundedComplex
    target: BoundedComplex
    components: Dict[int, ModuleMap]

    def __post_init__(self):
        if (
            self.source.group is not self.target.group
            or self.source.field != self.target.field
        ):
            raise IncompatibleHandles("chain map between incompatible complexes")
        f, dS, dT = self.components, self.source.diffs, self.target.diffs
        for i in sorted({i for i in f if i in dT} | {i + 1 for i in f if i + 1 in dS}):
            # d_i f_i = f_{i-1} d_i, where a side with an absent factor is zero
            lhs = dT[i].matrix @ f[i].matrix if i in f and i in dT else None
            rhs = f[i - 1].matrix @ dS[i].matrix if i - 1 in f and i in dS else None
            sides = [m for m in (lhs, rhs) if m is not None]
            if not (sides[0] == sides[1] if len(sides) == 2 else sides[0].is_zero()):
                raise NotChainMap(f"square at degree {i} does not commute")


def mapping_cone(f: ChainMap) -> BoundedComplex:
    """cone(f)_n = source_{n-1} (+) target_n with d(c, d) = (-dc, dd - fc)."""
    C, D = f.source, f.target
    G, fld = C.group, C.field
    lo = min(C.lo + 1, D.lo)
    hi = max(C.hi + 1, D.hi)
    mods = {}
    for n in range(lo, hi + 1):
        parts = []
        if C.module_at(n - 1).dim > 0:
            parts.append(C.module_at(n - 1))
        if D.module_at(n).dim > 0:
            parts.append(D.module_at(n))
        mods[n] = direct_sum(parts) if parts else zero_module(G, fld)
    diffs = {}
    for n in range(lo + 1, hi + 1):
        csrc, dsrc = C.module_at(n - 1).dim, D.module_at(n).dim
        cdst, ddst = C.module_at(n - 2).dim, D.module_at(n - 1).dim
        if csrc + dsrc == 0 or cdst + ddst == 0:
            continue
        mat = FqMatrix.zeros(fld, cdst + ddst, csrc + dsrc)
        if cdst and csrc and n - 1 in C.diffs:
            mat.a[:cdst, :csrc] = (-C.diffs[n - 1].matrix).a
        if ddst and csrc and n - 1 in f.components:
            mat.a[cdst:, :csrc] = (-f.components[n - 1].matrix).a
        if ddst and dsrc and n in D.diffs:
            mat.a[cdst:, csrc:] = D.diffs[n].matrix.a
        diffs[n] = mat
    return BoundedComplex(G, fld, lo, [mods[n] for n in range(lo, hi + 1)], diffs)


# -- homology -----------------------------------------------------------------


@dataclass
class HomologyData:
    """H_i = ker d_i / im d_{i+1} with an explicit ambient witness basis."""

    action: list  # one matrix per generator on the homology basis
    witness: FqMatrix  # C_i-coordinates of homology basis representatives
    cycles: FqMatrix
    projection: FqMatrix  # cycle coordinates -> homology coordinates

    @property
    def dim(self) -> int:
        return self.witness.cols


def homology_at(C: BoundedComplex, i: int) -> HomologyData:
    """H_i(C) off the differentials C holds: an absent d_i makes every
    vector a cycle, and an absent d_{i+1} gives no boundaries."""
    Mi = C.module_at(i)
    if Mi.dim == 0:
        e = FqMatrix.zeros(C.field, 0, 0)
        return HomologyData([e] * len(C.group.generators), e, e, e)
    d, up = C.diffs.get(i), C.diffs.get(i + 1)
    Z = FqMatrix.identity(C.field, Mi.dim) if d is None else kernel_basis(d.matrix)
    sq = subquotient(Mi, Z, None if up is None else image_basis(up.matrix))
    return HomologyData(sq.action, sq.witness, Z, sq.projection)


def homology(C: BoundedComplex) -> Dict[int, HomologyData]:
    return {i: homology_at(C, i) for i in C.degrees()}


def homology_dims(C: BoundedComplex) -> dict:
    """Nonzero dim H_i = dim C_i - rank d_i - rank d_{i+1}, by degree, as
    the first `reduce_differentials` of C kept them."""
    if C._homology is None:
        reduce_differentials(C)
    return dict(C._homology)


def reduce_differentials(C: BoundedComplex):
    """The `rref` of each differential, by degree, and the nonzero homology
    dims by rank, kept on C; a caller that needs a kernel reads it off the
    first."""
    reds = {i: rref(d.matrix) for i, d in C.diffs.items()}
    dims = _dims_by_rank(C.lo, [M.dim for M in C.mods], {i: r[1] for i, r in reds.items()})
    object.__setattr__(C, "_homology", MappingProxyType(dims))
    return reds, dict(dims)


def _dims_by_rank(lo: int, sizes, rk: dict) -> dict:
    """Nonzero size_i - rank_i - rank_{i+1}, by degree i from lo."""
    return {i: h for i, n in enumerate(sizes, lo) if (h := n - rk.get(i, 0) - rk.get(i + 1, 0))}


def _line_character(C: BoundedComplex, h: int, P: Subgroup, pts) -> list:
    """The character of N_G(P)/P on a one-dimensional H_h(C(P)), at its
    generators, for the P-fixed points `pts` of each term: chi(g) is
    sum_i (-1)^(i+h) tr(g | C(P)_i), read off the twists of g's lift at the
    points it fixes (`monomial_trace`)."""
    signs = [-1 if (i + h) % 2 else 1 for i in C.degrees()]
    return [
        monomial_trace(C.field, [(s, *point_action(M, x, g)) for s, M, x in zip(signs, C.mods, pts)])
        for g in local_quotient(P).generator_lifts()
    ]


# -- Brauer construction on complexes -----------------------------------------


class BrauerComplex:
    """Degreewise Brauer construction of a complex of monomial modules, over
    N_G(P)/P: the P-fixed basis points X_i^P of each term (`brauer_points`),
    with the local differentials the submatrices d_i[X_{i-1}^P, X_i^P].  At
    P = 1 every point is fixed and N_G(P)/P is G, so C(1) is C itself.  The
    report reads the same points and submatrices without building C(P)."""

    def __init__(self, C: BoundedComplex, P: Subgroup):
        self.ctx = local_quotient(P)
        if P.order == 1:
            self.complex = C
            return
        pts, mods = zip(*(brauer_points(C.module_at(i), P) for i in C.degrees()))
        diffs = {
            i: FqMatrix(C.field, d.matrix.a[np.ix_(pts[i - 1 - C.lo], pts[i - C.lo])])
            for i, d in C.diffs.items()
        }
        self.complex = BoundedComplex(self.ctx.group, C.field, C.lo, mods, diffs)


def brauer_complex(C: BoundedComplex, P: Subgroup) -> BoundedComplex:
    return BrauerComplex(C, P).complex


# -- endotriviality and the invariant -----------------------------------------


@dataclass
class XiEntry:
    subgroup: Subgroup
    h: int
    character: Character  # on N_G(P)/P
    ctx: Quotient  # N_G(P)/P


class XiInvariant:
    """Per conjugacy class of p-subgroups: the degree of the unique nonzero
    local homology and the degree-one character the normalizer quotient
    induces on it.  A complete homotopy invariant on endotrivial complexes."""

    def __init__(self, group: FiniteGroup, field: FqField, entries):
        self.group = group
        self.field = field
        self.entries = MappingProxyType(dict(entries))  # class_id -> XiEntry, read-only

    def class_reps(self):
        return [self.entries[c].subgroup for c in sorted(self.entries)]

    def h_mark(self, P: Subgroup) -> int:
        return self.entries[P.class_id].h

    def character(self, P: Subgroup) -> Character:
        return self.entries[P.class_id].character

    def value_at(self, X: Subgroup, g: int):
        """(h, character code) at an arbitrary p-subgroup X and g in N_G(X),
        transported from the class representative by conjugation."""
        e = self.entries[X.class_id]
        G = self.group
        c = X.conj_to_rep  # X = c . rep . c^{-1}
        moved = G.mul(G.inv(c), G.mul(g, c))
        q = e.ctx.project(moved)
        if q < 0:  # N_G(P)/P projects the normalizer only
            raise PermchainError(f"element {g} does not normalize the subgroup")
        return e.h, e.character.value_code(q)

    def __add__(self, other: "XiInvariant") -> "XiInvariant":
        if self.group is not other.group or self.field != other.field:
            raise IncompatibleHandles("invariants over different handles")
        out = {}
        for cid, e in self.entries.items():
            o = other.entries[cid]
            out[cid] = XiEntry(e.subgroup, e.h + o.h, e.character * o.character, e.ctx)
        return XiInvariant(self.group, self.field, out)

    def __neg__(self) -> "XiInvariant":
        out = {
            cid: XiEntry(e.subgroup, -e.h, e.character.inverse(), e.ctx)
            for cid, e in self.entries.items()
        }
        return XiInvariant(self.group, self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, XiInvariant):
            return NotImplemented
        if self.group is not other.group or set(self.entries) != set(other.entries):
            return False
        for cid, e in self.entries.items():
            o = other.entries[cid]
            if e.h != o.h or e.character != o.character:
                return False
        return True

    def is_trivial(self) -> bool:
        return all(e.h == 0 and e.character.is_trivial() for e in self.entries.values())

    def __repr__(self):
        parts = ", ".join(
            f"[{e.subgroup.order}]:{e.h}" for _, e in sorted(self.entries.items())
        )
        return f"XiInvariant({parts})"


@dataclass(frozen=True)
class EndotrivialReport:
    ok: bool
    violations: MappingProxyType  # class_id -> tuple of (degree, dim) of nonzero homology
    xi: Optional[XiInvariant] = None  # set exactly when ok

    def __bool__(self):
        return self.ok


def endotrivial_report(C: BoundedComplex) -> EndotrivialReport:
    """Local homology must be one-dimensional and concentrated in a single
    degree at every conjugacy class of p-subgroups; when it is, the report
    carries xi read off those local homologies.  Made once, kept on C.

    The local checks need no rerun: N_G(P) permutes X^P with d's twists,
    and a moved P-orbit O adds |O| equal terms to (d^2)(P), so that
    (d^2)(P) = d(P)^2 = 0."""
    if C._report is not None:
        return C._report
    character_warning(C.group, C.field)
    entries = {}
    violations = {}
    for P in C.group.lattice().p_class_reps(C.field.p):
        pts = [fixed_basis_points(M, P) for M in C.mods]
        if P.order == 1:
            dims = homology_dims(C)
        else:
            sub = {i: d.matrix.a[np.ix_(pts[i - 1 - C.lo], pts[i - C.lo])] for i, d in C.diffs.items()}
            rk = {i: rref(FqMatrix(C.field, a))[1] for i, a in sub.items() if a.size}
            dims = _dims_by_rank(C.lo, [x.size for x in pts], rk)
        degs = tuple(dims.items())
        if len(degs) != 1 or degs[0][1] != 1:
            violations[P.class_id] = degs
            continue
        h = degs[0][0]
        ctx = local_quotient(P)
        char = Character(ctx.group, C.field, _line_character(C, h, P, pts))
        entries[P.class_id] = XiEntry(P, h, char, ctx)
    inv = None if violations else XiInvariant(C.group, C.field, entries)
    object.__setattr__(C, "_report", EndotrivialReport(not violations, MappingProxyType(violations), inv))
    return C._report


def is_endotrivial(C: BoundedComplex) -> bool:
    return endotrivial_report(C).ok


def xi(C: BoundedComplex) -> XiInvariant:
    """h-marks and local homology characters across [s_p(G)], from the report."""
    rep = endotrivial_report(C)
    if not rep.ok:
        raise NotEndotrivial("complex is not endotrivial", report=dict(rep.violations))
    return rep.xi


def homotopy_equivalent_endotrivial(C: BoundedComplex, D: BoundedComplex) -> bool:
    """Equality of the complete invariant, read off the report kept on each
    complex, decides homotopy equivalence for endotrivial complexes."""
    return xi(C) == xi(D)


# -- restriction / inflation on complexes -------------------------------------


def restrict_complex(C: BoundedComplex, H: Subgroup) -> BoundedComplex:
    from .modules import restrict

    mods = [restrict(C.module_at(i), H) for i in C.degrees()]
    diffs = {i: d.matrix for i, d in C.diffs.items()}
    return BoundedComplex(mods[0].group, C.field, C.lo, mods, diffs)


def inflate_complex(C: BoundedComplex, quot) -> BoundedComplex:
    from .modules import inflate

    mods = [inflate(C.module_at(i), quot) for i in C.degrees()]
    diffs = {i: d.matrix for i, d in C.diffs.items()}
    return BoundedComplex(quot.source, C.field, C.lo, mods, diffs)
