import time

import numpy as np
import pytest

from permchain.complexes import (
    BoundedComplex,
    ChainMap,
    brauer_complex,
    reduce_differentials,
    dual_complex,
    endotrivial_report,
    homology,
    homology_dims,
    homotopy_equivalent_endotrivial,
    is_endotrivial,
    mapping_cone,
    module_complex,
    restrict_complex,
    shift,
    tensor_complex,
    trivial_complex,
    twist_complex,
    xi,
)
from permchain.constructions import (
    CatalogEntry,
    build_entries,
    gamma_dihedral,
    truncated_periodic_resolution,
)
from permchain.errors import NotChainMap, NotEndotrivial, PermchainError
from permchain.ffield import GF
from permchain.groups import FiniteGroup, catalog, perm_from_cycles
from permchain.linalg import FqMatrix
from permchain.literals import complex_from_obj
from permchain.modules import (
    ModuleMap,
    all_characters,
    one_dim_module,
    perm_module,
    regular_module,
    trivial_module,
)

from helpers import random_complex, random_hom

F2 = GF(2)
F3 = GF(3)


def _cyclic_truncation(name, fld):
    return build_entries(f"trunc-{name}")[0].complex


# -- construction and validation ------------------------------------------------


def test_d_squared_checked():
    C2 = catalog("C2")
    R = regular_module(C2, F2)
    d = FqMatrix.from_int_rows(F2, [[1, 0], [0, 1]])
    with pytest.raises(PermchainError):
        BoundedComplex(C2, F2, 0, [R, R, R], {1: d, 2: d})


def test_differential_must_be_equivariant():
    C2 = catalog("C2")
    R = regular_module(C2, F2)
    k = trivial_module(C2, F2)
    bad = FqMatrix.from_int_rows(F2, [[1, 0]])
    with pytest.raises(PermchainError):
        BoundedComplex(C2, F2, 0, [k, R], {1: bad})


def test_second_report_on_a_group_makes_no_commutator_pass(monkeypatch):
    """The field-size warning reads |G : [G, G]|, kept on G: reports on
    two complexes over one group find the commutator subgroup once."""
    G = FiniteGroup([perm_from_cycles("(0 1 2 3)", 4), perm_from_cycles("(0 2)", 4)])
    passes = []
    original = FiniteGroup.commutator_subgroup_elems

    def counting(self):
        passes.append(self)
        return original(self)

    monkeypatch.setattr(FiniteGroup, "commutator_subgroup_elems", counting)
    for C in (trivial_complex(G, F2), module_complex(regular_module(G, F2))):
        endotrivial_report(C)
    assert passes == [G] and G.abelianization_order() == 4 and passes == [G]


# -- homology ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gamma-D8", "trunc-C9", "gamma-SD16", "abelian-CpxCp3"])
def test_kept_homology_dims_match_a_fresh_reduction(name, linalg_calls):
    """`homology_dims` reduces a complex once and keeps the nonzero dims on
    it: they equal a fresh `reduce_differentials` of a copy, a second call
    reduces nothing, and the dict it returns is a copy."""
    for e in build_entries(name):
        C = e.complex
        fresh = BoundedComplex(C.group, C.field, C.lo, C.mods, C.diffs)
        kept = homology_dims(C)
        before = linalg_calls["rref"]
        again = homology_dims(C)
        assert linalg_calls["rref"] == before
        assert kept == again == reduce_differentials(fresh)[1]
        kept[C.hi + 1] = 1
        assert homology_dims(C) == again != kept


def test_homology_single_module():
    G = catalog("D8")
    C = trivial_complex(G, F2, 0)
    assert homology_dims(C) == {0: 1}


def test_homology_cyclic_truncation():
    C = _cyclic_truncation("C9", GF(3))
    assert homology_dims(C) == {2: 1}
    hd = homology(C)
    assert hd[2].module.dim == 1 and hd[0].dim == 0 and hd[1].dim == 0


def test_homology_contractible():
    C2 = catalog("C2")
    R = regular_module(C2, F2)
    ident = FqMatrix.identity(F2, 2)
    C = BoundedComplex(C2, F2, 0, [R, R], {1: ident})
    assert homology_dims(C) == {}


def test_euler_identity():
    rng = np.random.default_rng(3)
    for _ in range(8):
        C = random_complex(rng, catalog("C2"), F2)
        total = sum((-1) ** i * h.dim for i, h in homology(C).items())
        assert total == C.euler_characteristic()


# -- tensor, dual, shift --------------------------------------------------------------


def test_tensor_with_unit():
    C = _cyclic_truncation("C4", F2)
    U = trivial_complex(C.group, F2, 0)
    T = tensor_complex(C, U)
    assert T.dims() == C.dims()
    for i in range(T.lo + 1, T.hi + 1):
        assert T.diff_at(i).matrix == C.diff_at(i).matrix


def test_shift_additivity():
    G = catalog("C2")
    k1 = trivial_complex(G, F2, 1)
    T = tensor_complex(k1, k1)
    assert T.dims() == {2: 1}
    assert shift(k1, 1).dims() == {2: 1}


def test_kunneth_random():
    rng = np.random.default_rng(29)
    for fld, gname in ((F2, "C2"), (F3, "C3")):
        G = catalog(gname)
        for _ in range(6):
            C = random_complex(rng, G, fld)
            D = random_complex(rng, G, fld)
            hC = {i: h.dim for i, h in homology(C).items()}
            hD = {i: h.dim for i, h in homology(D).items()}
            T = tensor_complex(C, D)
            hT = {i: h.dim for i, h in homology(T).items()}
            for n in T.degrees():
                want = sum(
                    hC.get(i, 0) * hD.get(n - i, 0) for i in range(C.lo, C.hi + 1)
                )
                assert hT.get(n, 0) == want


def test_dual_of_shifted_unit():
    G = catalog("C2")
    k3 = trivial_complex(G, F2, 3)
    D = dual_complex(k3)
    assert D.dims() == {-3: 1}


def test_dual_homology_dims():
    rng = np.random.default_rng(31)
    G = catalog("C3")
    for _ in range(6):
        C = random_complex(rng, G, F3)
        D = dual_complex(C)
        hC = {i: h.dim for i, h in homology(C).items()}
        hD = {i: h.dim for i, h in homology(D).items()}
        for i, d in hC.items():
            assert hD.get(-i, 0) == d
        DD = dual_complex(D)
        assert {i: h.dim for i, h in homology(DD).items()} == hC


def test_dual_cyclic_truncation_h_mark():
    C = _cyclic_truncation("C4", F2)
    D = dual_complex(C)
    x = xi(D)
    lat = D.group.lattice()
    assert x.h_mark(lat.trivial) == -2


# -- Brauer complexes ----------------------------------------------------------------


def test_brauer_complex_at_trivial():
    C = _cyclic_truncation("C4", F2)
    B = brauer_complex(C, C.group.lattice().trivial)
    assert B is C
    assert B.dims() == C.dims()
    assert homology_dims(B) == homology_dims(C)


def test_gamma_dihedral_local_shape():
    C = build_entries("gamma-D8")[0].complex
    G = C.group
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    B = brauer_complex(C, Hb)
    assert {i: B.module_at(i).dim for i in B.degrees()} == {0: 1, 1: 2, 2: 0}
    assert homology_dims(B) == {1: 1}


def test_free_components_vanish_at_sylow():
    C = _cyclic_truncation("C4", F2)
    L = C.group.lattice()
    B = brauer_complex(C, L.full)
    assert {i: B.module_at(i).dim for i in B.degrees()} == {0: 1, 1: 0, 2: 0}


# -- endotriviality -------------------------------------------------------------------


def test_one_dim_twist_is_endotrivial():
    C6 = catalog("C6")
    w = [c for c in all_characters(C6, F3) if not c.is_trivial()][0]
    C = module_complex(one_dim_module(w), 0)
    assert is_endotrivial(C)
    x = xi(C)
    for cid, e in x.entries.items():
        assert e.h == 0


def test_v4_two_term_endotrivial():
    G = catalog("V4")
    L = G.lattice()
    H1 = L.generated_by([G.element_by_word("a")])
    M = perm_module(G, H1, F2)
    k = trivial_module(G, F2)
    aug = FqMatrix(F2, np.ones((1, M.dim), dtype=np.int16))
    C = BoundedComplex(G, F2, 0, [k, M], {1: aug})
    assert is_endotrivial(C)


def test_single_free_module_not_endotrivial():
    C2 = catalog("C2")
    C = module_complex(regular_module(C2, F2), 0)
    rep = endotrivial_report(C)
    assert not rep.ok
    full_cid = C2.lattice().full.class_id
    assert full_cid in rep.violations
    assert rep.violations[full_cid] == ()  # local complex has no homology at all
    with pytest.raises(NotEndotrivial):
        xi(C)


def test_kept_report_is_read_only():
    """The report kept on a complex hands out read-only mappings; callers
    that may edit get plain copies, and the kept report stays as made."""
    D8 = catalog("D8")
    bad = module_complex(regular_module(D8, F2), 0)
    rep = endotrivial_report(bad)
    before = dict(rep.violations)
    cid = next(iter(before))
    with pytest.raises(TypeError):
        rep.violations[cid] = ()
    with pytest.raises(TypeError):
        del rep.violations[cid]
    with pytest.raises(NotEndotrivial) as err:
        xi(bad)
    err.value.report.clear()
    result, inv = CatalogEntry("free-D8", D8, F2, bad).verify()
    assert inv is None
    result["violations"].clear()
    again = endotrivial_report(bad)
    assert again is rep and not again.ok and dict(again.violations) == before and before

    good = build_entries("gamma-D8")[0].complex
    x = xi(good)
    entries = dict(x.entries)
    with pytest.raises(TypeError):
        x.entries[cid] = None
    with pytest.raises(TypeError):
        del x.entries[next(iter(entries))]
    assert dict(endotrivial_report(good).xi.entries) == entries and entries


# -- xi ---------------------------------------------------------------------------------


def test_xi_gamma_dihedral_table():
    e = build_entries("gamma-D8")[0]
    x = xi(e.complex)
    lat = e.group.lattice()
    G = e.group
    Hb = lat.generated_by([G.element_by_word("b")])
    Hab = lat.generated_by([G.element_by_word("a*b")])
    for P in lat.p_class_reps(2):
        expected = 2 if P.order == 1 else (
            1 if P.class_id in (Hb.class_id, Hab.class_id) else 0
        )
        assert x.h_mark(P) == expected
        assert x.character(P).is_trivial()


def test_xi_cyclic_c9():
    e = build_entries("trunc-C9")[0]
    x = xi(e.complex)
    lat = e.group.lattice()
    for P in lat.p_class_reps(3):
        assert x.h_mark(P) == (2 if P.order == 1 else 0)


def test_value_at_refuses_an_element_outside_the_normalizer():
    """N_G(P)/P projects N_G(P) only: for X = <b> in D8 the element a
    does not normalize X and has no value; a^2 does."""
    x = xi(build_entries("gamma-D8")[0].complex)
    G = x.group
    X = G.lattice().generated_by([G.element_by_word("b")])
    assert x.value_at(X, G.element_by_word("a^2"))[0] == x.h_mark(X)
    with pytest.raises(PermchainError, match="does not normalize"):
        x.value_at(X, G.element_by_word("a"))


def test_xi_twist_character_descends():
    C6 = catalog("C6")
    w = [c for c in all_characters(C6, F3) if not c.is_trivial()][0]
    x = xi(module_complex(one_dim_module(w), 0))
    lat = C6.lattice()
    for P in lat.p_class_reps(3):
        e = x.entries[P.class_id]
        # the local character is the restriction of w through the quotient
        for gi, g in enumerate(e.ctx.generator_lifts()):
            assert e.character.values[gi] == w.value_code(g)


def test_xi_additive_and_dual():
    a = build_entries("abelian-V4-res0")[0].complex
    b = build_entries("abelian-V4-res1")[0].complex
    xa, xb = xi(a), xi(b)
    T = tensor_complex(a, b)
    assert xi(T) == xa + xb
    assert xi(dual_complex(a)) == -xa


def test_homotopy_equivalence_decision():
    C = _cyclic_truncation("C4", F2)
    U = trivial_complex(C.group, F2, 0)
    assert homotopy_equivalent_endotrivial(C, tensor_complex(C, U))
    C6 = catalog("C6")
    w = [c for c in all_characters(C6, F3) if not c.is_trivial()][0]
    kw = module_complex(one_dim_module(w), 0)
    k0 = trivial_complex(C6, F3, 0)
    assert not homotopy_equivalent_endotrivial(kw, k0)


# -- mapping cone -------------------------------------------------------------------------


def test_cone_of_identity_contractible():
    C = _cyclic_truncation("C4", F2)
    ident = ChainMap(
        C,
        C,
        {
            i: ModuleMap(
                C.module_at(i),
                C.module_at(i),
                FqMatrix.identity(F2, C.module_at(i).dim),
            )
            for i in C.degrees()
        },
    )
    cone = mapping_cone(ident)
    assert homology_dims(cone) == {}


def test_cone_of_zero_map():
    G = catalog("C2")
    C = _cyclic_truncation("C2", F2)
    D = trivial_complex(G, F2, 0)
    z = ChainMap(C, D, {})
    cone = mapping_cone(z)
    want = dict(homology_dims(D))
    for i, d in homology_dims(shift(C, 1)).items():
        want[i] = want.get(i, 0) + d
    assert homology_dims(cone) == want
    assert cone.euler_characteristic() == D.euler_characteristic() - C.euler_characteristic()


def test_not_chain_map():
    # equivariant components whose square does not commute must be rejected
    C = _cyclic_truncation("C2", F2)
    comp0 = ModuleMap(
        C.module_at(0), C.module_at(0), FqMatrix.identity(F2, 1)
    )
    with pytest.raises(NotChainMap):
        ChainMap(C, C, {0: comp0})  # degree 1 forced to zero, square breaks


def first_broken_square(S: BoundedComplex, T: BoundedComplex, comps: dict):
    """The first degree i where d_i f_i != f_{i-1} d_i, every absent
    differential and component read as a zero matrix; None if none."""
    f = S.field

    def zeros(X, i, Y, j):
        return FqMatrix.zeros(f, Y.module_at(j).dim, X.module_at(i).dim)

    def diff(X, i):
        return X.diffs[i].matrix if i in X.diffs else zeros(X, i, X, i - 1)

    def comp(i):
        return comps[i].matrix if i in comps else zeros(S, i, T, i)

    for i in range(min(S.lo, T.lo), max(S.hi, T.hi) + 1):
        if diff(T, i) @ comp(i) != comp(i - 1) @ diff(S, i):
            return i
    return None


def test_chain_map_squares_match_zero_filled_check():
    """Squares are checked over the given components and differentials
    only; random components between random complexes fail at the degree,
    and with the message, that the check with every absent piece filled by
    a zero matrix gives."""
    rng = np.random.default_rng(41)
    outcomes = set()
    for fld, name in ((F2, "C2"), (F2, "C4"), (F3, "C3")):
        G = catalog(name)
        for _ in range(12):
            S = random_complex(rng, G, fld)
            T = shift(random_complex(rng, G, fld), int(rng.integers(-1, 2)))
            comps = {
                i: random_hom(rng, S.module_at(i), T.module_at(i))
                for i in range(max(S.lo, T.lo), min(S.hi, T.hi) + 1)
                if rng.integers(0, 2)
            }
            want = first_broken_square(S, T, comps)
            outcomes.add(want is None)
            if want is None:
                ChainMap(S, T, comps)
            else:
                with pytest.raises(NotChainMap, match=f"^square at degree {want} does not commute$"):
                    ChainMap(S, T, comps)
    assert outcomes == {True, False}


def test_chain_map_into_complex_without_differentials_is_fast():
    """k -> [G/1]^512 over D8 in degree 0 by the norm column, into the
    complex with that term in degrees 0..2 and no differential.  Absent
    differentials and components stay absent: filling them with checked
    zero maps took 1.5 s at a 114 MB peak."""
    obj = {
        "group": "D8",
        "field": {"p": 2, "n": 1},
        "lo": 0,
        "modules": {str(i): "[G/1]^512" for i in range(3)},
        "differentials": {},
    }
    D = complex_from_obj(obj)
    k = trivial_module(D.group, F2)
    t = time.perf_counter()
    norm = ModuleMap(k, D.module_at(0), FqMatrix(F2, np.ones((D.module_at(0).dim, 1), dtype=np.int16)))
    ChainMap(module_complex(k), D, {0: norm})
    assert time.perf_counter() - t < 0.2


# -- compatibilities ------------------------------------------------------------------------


def test_restriction_preserves_h_marks():
    C = build_entries("gamma-D8")[0].complex
    G = C.group
    L = G.lattice()
    x = xi(C)
    A = L.generated_by([G.element_by_word("a")])  # cyclic of order 4
    R = restrict_complex(C, A)
    assert is_endotrivial(R)
    xr = xi(R)
    LA = R.group.lattice()
    for P in LA.p_class_reps(2):
        # both groups permute the same ambient points
        bigP = L.subgroup(frozenset(G.index[R.group.elements[i]] for i in P.elems))
        assert xr.h_mark(P) == x.h_mark(bigP)


def test_twist_complex_keeps_h_marks():
    C6 = catalog("C6")
    e = build_entries("abelian-C6-res0")[0]
    w = [c for c in all_characters(C6, F3) if not c.is_trivial()][0]
    T = twist_complex(e.complex, w)
    assert is_endotrivial(T)
    assert {c: en.h for c, en in xi(T).entries.items()} == {
        c: en.h for c, en in xi(e.complex).entries.items()
    }


def test_endotriviality_preserved_by_functors():
    C = build_entries("gamma-D8")[0].complex
    L = C.group.lattice()
    assert is_endotrivial(dual_complex(C))
    assert is_endotrivial(brauer_complex(C, L.generated_by([C.group.element_by_word("b")])))
    assert is_endotrivial(restrict_complex(C, L.generated_by([C.group.element_by_word("a")])))
    assert is_endotrivial(tensor_complex(C, C))


# -- work over extension fields ------------------------------------------------


def _gamma_d8_squared(fld):
    g = gamma_dihedral(3, fld)
    return tensor_complex(g, g)


def _trunc_c8_squared(fld):
    t = truncated_periodic_resolution(catalog("C8"), fld)
    return tensor_complex(t, t)


def _trunc_q8(fld):
    return truncated_periodic_resolution(catalog("Q8"), fld)


@pytest.mark.parametrize("build", [_gamma_d8_squared, _trunc_c8_squared, _trunc_q8])
def test_report_work_does_not_depend_on_field(linalg_calls, build):
    """A complex over F2, read over F4 and F8: the report makes the same
    row reductions, and no products, and finds the same h-marks."""
    seen = []
    for fld in (F2, GF(2, 2), GF(2, 3)):
        C = build(fld)
        before = dict(linalg_calls)
        rep = endotrivial_report(C)
        calls = tuple(linalg_calls[k] - before[k] for k in ("rref", "matmul"))
        seen.append((calls, {cid: e.h for cid, e in rep.xi.entries.items()}))
    assert seen[0][0][0] > 0 and seen[0][0][1] == 0
    assert seen[1] == seen[0] and seen[2] == seen[0]
