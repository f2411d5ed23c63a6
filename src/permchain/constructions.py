"""Explicit endotrivial complexes for the supported group families.

Each builder returns a CatalogEntry holding the complex, the expected
h-mark table where one is known in closed form, and a short construction
note.  Entries are verified by recomputation, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .complexes import (
    BoundedComplex,
    ChainMap,
    endotrivial_report,
    homology_dims,
    inflate_complex,
    mapping_cone,
    module_complex,
    tensor_complex,
    trivial_complex,
)
from .errors import (
    BadIndex,
    ConstructionFailure,
    NotAbelian,
    NotPRankOne,
    PermchainError,
    UnknownCatalogName,
)
from .ffield import GF, FqField
from .groups import FiniteGroup, catalog as group_catalog, class_name
from .invariants import (
    TrivialSourceElement,
    beta_direct,
    cached_quotient,
    is_frobenius_stable,
)
from .linalg import FqMatrix, kernel_basis, rank, solve_matrix
from .modules import (
    Character,
    KgModule,
    ModuleMap,
    all_characters,
    coset_list,
    direct_sum,
    free_module,
    one_dim_module,
    perm_module,
    regular_module,
    trivial_character,
    trivial_module,
)
from .syzygies import free_generators, omega, relative_syzygy

MAX_PERIOD_SEARCH = 4


@dataclass
class CatalogEntry:
    name: str
    group: FiniteGroup
    field: FqField
    complex: BoundedComplex
    expected_h: Optional[dict] = None  # class_id -> h-mark, where known
    note: str = ""

    def verify(self):
        """Endotriviality and the invariant from the report kept on the
        complex; compare when an expected table is present.  Returns the
        report and the invariant, which is None when not endotrivial."""
        rep = endotrivial_report(self.complex)
        result = {"name": self.name, "endotrivial": rep.ok}
        if not rep.ok:
            result["violations"] = rep.violations
            return result, None
        inv = rep.xi
        lat = self.group.lattice()
        result["h_marks"] = {
            class_name(lat, e.subgroup): e.h for _, e in sorted(inv.entries.items())
        }
        if self.expected_h is not None:
            mismatches = {
                cid: (self.expected_h[cid], inv.entries[cid].h)
                for cid in self.expected_h
                if self.expected_h[cid] != inv.entries[cid].h
            }
            result["matches_expected"] = not mismatches
            if mismatches:
                result["mismatches"] = {
                    class_name(lat, lat.class_reps[cid]): v
                    for cid, v in mismatches.items()
                }
        return result, inv


# -- truncated periodic resolutions -----------------------------------------


def truncated_periodic_resolution(G: FiniteGroup, fld: FqField) -> BoundedComplex:
    """Iterate syzygies of the trivial module of a p-group until the kernel
    collapses to dimension one, then assemble the covers into a complex
    ending with k in degree zero; homology k sits in the period degree.

    A kernel that never collapses within the search bound means the group
    has p-rank above one and no such resolution exists.
    """
    k = trivial_module(G, fld)
    if G.order == 1:
        return module_complex(k, 0)
    covers = []
    inclusions = []
    cur = k
    for _ in range(MAX_PERIOD_SEARCH):
        om = omega(cur)
        covers.append(om.cover)
        inclusions.append(om.inclusion)
        cur = om.module
        if cur.dim == 1:
            break
    else:
        raise NotPRankOne(
            "no one-dimensional syzygy within the period bound; "
            "the group is not cyclic or generalized quaternion"
        )
    period = len(covers)
    mods = [k] + [c.source for c in covers]
    diffs = {1: covers[0].matrix}
    for i in range(1, period):
        diffs[i + 1] = inclusions[i - 1] @ covers[i].matrix
    return BoundedComplex(G, fld, 0, mods, diffs)


def entry_truncated(group_name: str, fld: FqField) -> CatalogEntry:
    G = group_catalog(group_name)
    C = truncated_periodic_resolution(G, fld)
    lat = G.lattice()
    period = C.hi
    expected = {
        P.class_id: (period if P.order == 1 else 0) for P in lat.p_class_reps(fld.p)
    }
    return CatalogEntry(
        name=f"trunc-{group_name}",
        group=G,
        field=fld,
        complex=C,
        expected_h=expected,
        note=f"truncated period-{period} free resolution of k over {group_name}",
    )


# -- dihedral three-term complex ---------------------------------------------


def gamma_dihedral(i: int, fld: FqField) -> BoundedComplex:
    """kD -> k[D/<b>] (+) k[D/<ab>] -> k over the dihedral group of order 2^i,
    with x -> (xH1, xH2) and the signed sum of augmentations."""
    if i < 2:
        raise BadIndex("dihedral index must be at least 2")
    if fld.p != 2:
        raise PermchainError("dihedral complexes live in characteristic 2")
    G = group_catalog(f"D{2 ** i}")
    lat = G.lattice()
    H1 = lat.generated_by([G.element_by_word("b")])
    H2 = lat.generated_by([G.element_by_word("a*b")])
    kG = regular_module(G, fld)
    M1 = perm_module(G, H1, fld)
    M2 = perm_module(G, H2, fld)
    mid = direct_sum([M1, M2])
    k = trivial_module(G, fld)
    pos1 = {}
    for idx, c in enumerate(coset_list(G, H1)):
        for x in c:
            pos1[x] = idx
    pos2 = {}
    for idx, c in enumerate(coset_list(G, H2)):
        for x in c:
            pos2[x] = idx
    d2 = FqMatrix.zeros(fld, mid.dim, kG.dim)
    for x in range(G.order):
        d2.a[pos1[x], x] = 1
        d2.a[M1.dim + pos2[x], x] = 1
    d1 = FqMatrix.zeros(fld, 1, mid.dim)
    for j in range(M1.dim):
        d1.a[0, j] = 1
    for j in range(M2.dim):
        d1.a[0, M1.dim + j] = int(fld.neg[1])
    return BoundedComplex(G, fld, 0, [k, mid, kG], {1: d1, 2: d2})


def entry_gamma_dihedral(i: int, fld: FqField) -> CatalogEntry:
    C = gamma_dihedral(i, fld)
    G = C.group
    lat = G.lattice()
    H1 = lat.generated_by([G.element_by_word("b")])
    H2 = lat.generated_by([G.element_by_word("a*b")])
    expected = {}
    for P in lat.p_class_reps(2):
        if P.order == 1:
            expected[P.class_id] = 2
        elif P.class_id in (H1.class_id, H2.class_id):
            expected[P.class_id] = 1
        else:
            expected[P.class_id] = 0
    return CatalogEntry(
        name=f"gamma-D{2 ** i}",
        group=G,
        field=fld,
        complex=C,
        expected_h=expected,
        note="three-term reflection-coset complex over the dihedral group",
    )


# -- semidihedral period-four complex -----------------------------------------


def gamma_semidihedral(n: int, fld: FqField) -> BoundedComplex:
    """Order-2^n semidihedral construction: cover the augmentation kernel of
    k[G/H] (H noncentral of order two), tensor the three-term complex with
    itself, split the free part off the top kernel and cone it away."""
    if n < 4:
        raise BadIndex("semidihedral groups need order at least 16")
    if fld.p != 2:
        raise PermchainError("semidihedral complexes live in characteristic 2")
    G = group_catalog(f"SD{2 ** n}")
    lat = G.lattice()
    noncentral = [
        P for P in lat.p_class_reps(2) if P.order == 2 and not P.is_normal
    ]
    if len(noncentral) != 1:
        raise ConstructionFailure("expected one noncentral class of order two")
    H = noncentral[0]
    syz = relative_syzygy(G, H, fld)
    om = omega(syz.module)
    P_mod = om.cover.source
    M = syz.ambient
    c2 = syz.inclusion @ om.cover.matrix
    c1 = FqMatrix(fld, np.ones((1, M.dim), dtype=np.int16))
    k = trivial_module(G, fld)
    C = BoundedComplex(G, fld, 0, [k, M, P_mod], {1: c1, 2: c2})
    hd = homology_dims(C)
    if set(hd) != {2}:
        raise ConstructionFailure(f"three-term stage has homology {hd}")
    D = tensor_complex(C, C)
    hdD = homology_dims(D)
    if set(hdD) != {4}:
        raise ConstructionFailure(f"tensor-square stage has homology {hdD}")
    d4 = D.diff_at(4).matrix
    K = kernel_basis(d4)
    D4 = D.module_at(4)
    kermats = []
    for gi in range(len(G.generators)):
        coords = solve_matrix(K, D4.act(gi, K))
        if coords is None:
            raise ConstructionFailure("top kernel is not a submodule")
        kermats.append(coords)
    Kmod = KgModule(G, fld, kermats, labels=None, check=False)
    chosen, _ = free_generators(Kmod)
    r = len(chosen)
    if Kmod.dim != 1 + r * G.order:
        raise ConstructionFailure(
            f"top kernel has dimension {Kmod.dim}, expected 1 + {r}*{G.order}"
        )
    incl = FqMatrix.zeros(fld, D4.dim, r * G.order)
    for i, j in enumerate(chosen):
        w = K.col(j)
        for g in range(G.order):
            incl.a[:, i * G.order + g] = D4.apply(g, w).a[:, 0]
    if rank(incl) != r * G.order:
        raise ConstructionFailure("free part failed to embed freely")
    if not (d4 @ incl).is_zero():
        raise ConstructionFailure("free part escaped the top kernel")
    Pp = free_module(G, fld, r)
    iota = ChainMap(
        source=module_complex(Pp, 4),
        target=D,
        components={4: ModuleMap(Pp, D4, incl)},
    )
    Gam = mapping_cone(iota)
    if homology_dims(Gam) != {4: 1}:
        raise ConstructionFailure(
            f"cone stage has homology {homology_dims(Gam)}, expected k in degree 4"
        )
    return Gam


def entry_gamma_semidihedral(n: int, fld: FqField) -> CatalogEntry:
    C = gamma_semidihedral(n, fld)
    G = C.group
    lat = G.lattice()
    expected = {}
    for P in lat.p_class_reps(2):
        if P.order == 1:
            expected[P.class_id] = 4
        elif P.order == 2 and not P.is_normal:
            expected[P.class_id] = 2
        else:
            expected[P.class_id] = 0
    return CatalogEntry(
        name=f"gamma-SD{2 ** n}",
        group=G,
        field=fld,
        complex=C,
        expected_h=expected,
        note="period-four semidihedral complex via the coset syzygy tensor square",
    )


# -- abelian generators --------------------------------------------------------


def abelian_generators(G: FiniteGroup, fld: FqField) -> list:
    """Generating entries over an abelian group: inflations of truncated
    resolutions from the cyclic p-quotients, the degree shift of k, and the
    one-dimensional twists."""
    if not G.is_abelian():
        raise NotAbelian("abelian groups only")
    p = fld.p
    if G.order % p:
        raise PermchainError("p must divide the group order")
    lat = G.lattice()
    pprime = lat.subgroup([x for x in range(G.order) if _coprime_order(G, x, p)])
    sylow = lat.sylow_p(p)
    gname = G.describe()
    entries = []
    idx = 0
    for P in lat.normal_p_subgroups(p):
        img = cached_quotient(G, lat.join(P, pprime))
        Q = img.group
        if Q.order == 1 or not Q.is_cyclic():
            continue
        res = truncated_periodic_resolution(Q, fld)
        C = inflate_complex(res, img)
        kernel = lat.join(P, pprime)
        expected = {
            X.class_id: (res.hi if kernel.contains(X) else 0)
            for X in lat.p_class_reps(p)
        }
        entries.append(
            CatalogEntry(
                name=f"abelian-{gname}-res{idx}",
                group=G,
                field=fld,
                complex=C,
                expected_h=expected,
                note=f"inflated truncated resolution from the quotient of order {Q.order}",
            )
        )
        idx += 1
    shift_expected = {X.class_id: 1 for X in lat.p_class_reps(p)}
    entries.append(
        CatalogEntry(
            name=f"abelian-{gname}-shift",
            group=G,
            field=fld,
            complex=trivial_complex(G, fld, 1),
            expected_h=shift_expected,
            note="degree shift of the trivial module",
        )
    )
    tor = 0
    for char in all_characters(G, fld):
        if char.is_trivial():
            continue
        entries.append(
            CatalogEntry(
                name=f"abelian-{gname}-torsion{tor}",
                group=G,
                field=fld,
                complex=module_complex(one_dim_module(char), 0),
                expected_h={X.class_id: 0 for X in lat.p_class_reps(p)},
                note="one-dimensional twist in degree zero",
            )
        )
        tor += 1
    return entries


def _coprime_order(G: FiniteGroup, x: int, p: int) -> bool:
    return G.element_order(x) % p != 0


# -- the A4 obstruction example -------------------------------------------------


def a4_frobenius_example(fld: FqField = None):
    """The order-12 example: a unit of the twisted permutation ring whose
    local character tuple is not stable under the field automorphism, hence
    cannot arise from any endotrivial complex."""
    if fld is None:
        fld = GF(2, 2)
    if fld.p != 2 or fld.n < 2:
        raise PermchainError("the example needs a field with cube roots of unity")
    G = group_catalog("A4")
    lat = G.lattice()
    w = 2  # the class of the modulus root generates the cube roots of unity
    omega_char = Character(G, fld, [w, 1])
    C3 = lat.generated_by([G.element_by_word("a")])
    u = TrivialSourceElement(G, fld)
    u.add_term(omega_char, lat.full, 1)                 # k_w
    u.add_term(trivial_character(G, fld), C3, 1)        # k[G/C3]
    u.add_term(omega_char, C3, -1)                      # k_w (x) k[G/C3]
    beta = beta_direct(u)
    return u, beta, is_frobenius_stable(beta)


# -- registry --------------------------------------------------------------------


def _builders():
    F2 = GF(2)
    F3 = GF(3)
    reg = {}
    reg["trunc-C2"] = lambda: entry_truncated("C2", F2)
    reg["trunc-C4"] = lambda: entry_truncated("C4", F2)
    reg["trunc-C8"] = lambda: entry_truncated("C8", F2)
    reg["trunc-C9"] = lambda: entry_truncated("C9", F3)
    reg["trunc-Q8"] = lambda: entry_truncated("Q8", F2)
    reg["gamma-D8"] = lambda: entry_gamma_dihedral(3, F2)
    reg["gamma-D16"] = lambda: entry_gamma_dihedral(4, F2)
    reg["gamma-SD16"] = lambda: entry_gamma_semidihedral(4, F2)

    def family(group_name, fld):
        def build():
            return abelian_generators(group_catalog(group_name), fld)

        return build

    reg["abelian-V4"] = family("V4", F2)
    reg["abelian-C6"] = family("C6", F3)
    reg["abelian-CpxCp3"] = family("CpxCp3", F3)
    return reg


_REGISTRY = None


def catalog_names() -> list:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _builders()
    return sorted(_REGISTRY)


@lru_cache(maxsize=None)
def build_entries(name: str) -> tuple:
    """Entries for a registered name; family members resolve by their own
    names too (e.g. 'abelian-V4-res0' inside the 'abelian-V4' family)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _builders()
    if name in _REGISTRY:
        built = _REGISTRY[name]()
        if isinstance(built, CatalogEntry):
            return (built,)
        return tuple(built)
    for reg in _REGISTRY:
        if name.startswith(reg + "-"):
            hits = [e for e in build_entries(reg) if e.name == name]
            if hits:
                return tuple(hits)
    raise UnknownCatalogName(f"unknown catalog entry {name!r}")


def all_entries() -> list:
    out = []
    for name in catalog_names():
        out.extend(build_entries(name))
    return out
