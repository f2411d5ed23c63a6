import numpy as np
import pytest

from permchain.errors import NotNested, PermchainError, PGroupOnly
from permchain.ffield import GF
from permchain.groups import catalog
from permchain.linalg import FqMatrix, rank, solve_matrix
from permchain.modules import (
    Character,
    KgModule,
    ModuleMap,
    all_characters,
    brauer_quotient,
    coset_list,
    direct_sum,
    dual,
    free_module,
    frobenius_twist_module,
    inflate,
    one_dim_module,
    perm_module,
    regular_module,
    restrict,
    tensor,
    trace_map,
    trivial_character,
    trivial_module,
    twist,
)
from permchain.syzygies import free_rank, hom_space_basis, omega, relative_syzygy, split_free_summand

from helpers import oracle_orbit_count, random_hom, random_labeled_module
from module_reference import (
    brauer_quotient_map,
    fixed_points,
    is_split_injective,
    is_split_surjective,
    module_check_labels,
    vertex_classes,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F9 = GF(3, 2)


# -- characters -----------------------------------------------------------------


def test_character_validation():
    C2 = catalog("C2")
    with pytest.raises(PermchainError):
        Character(C2, F4, [2])  # w has order 3, no homomorphism from C2
    with pytest.raises(PermchainError):
        Character(C2, F2, [0])  # values must be units
    C3 = catalog("C3")
    chars = all_characters(C3, F4)
    assert len(chars) == 3
    w = [c for c in chars if not c.is_trivial()][0]
    assert (w * w * w).is_trivial()
    assert w.inverse() == w * w


def test_character_counts():
    assert len(all_characters(catalog("C2"), F2)) == 1
    assert len(all_characters(catalog("C2"), F3)) == 2
    assert len(all_characters(catalog("V4"), F2)) == 1
    assert len(all_characters(catalog("A4"), F4)) == 3
    assert len(all_characters(catalog("C6"), F3)) == 2


# -- permutation modules -----------------------------------------------------------


def test_perm_module_basics():
    G = catalog("D8")
    L = G.lattice()
    assert perm_module(G, L.full, F2).dim == 1
    C2 = catalog("C2")
    assert perm_module(C2, C2.lattice().trivial, F2).dim == 2
    Hb = L.generated_by([G.element_by_word("b")])
    M = perm_module(G, Hb, F2)
    assert M.dim == 4
    # a acts as a 4-cycle on the cosets
    a_mat = M.gen_mats[0].a
    perm = [int(np.nonzero(a_mat[:, j])[0][0]) for j in range(4)]
    seen, j, steps = {0}, perm[0], 1
    while j != 0:
        seen.add(j)
        j = perm[j]
        steps += 1
    assert steps == 4
    assert module_check_labels(M)


def test_module_relation_validation():
    G = catalog("C4")
    bad = [FqMatrix(F4, [[2]])]  # w has order 3; a^4 = 1 fails
    with pytest.raises(PermchainError):
        KgModule(G, F4, bad)
    # an order-2 matrix is fine for C4: the action factors through C2
    ok = KgModule(G, F2, [FqMatrix.from_int_rows(F2, [[1, 1], [0, 1]])])
    assert ok.dim == 2


def test_twist_and_one_dim():
    C3 = catalog("C3")
    w = [c for c in all_characters(C3, F4) if not c.is_trivial()][0]
    kw = one_dim_module(w)
    assert kw.dim == 1
    assert kw.gen_mats[0].a[0, 0] == w.values[0]
    tw = twist(trivial_module(C3, F4), w)
    assert tw.gen_mats[0] == kw.gen_mats[0]


def test_dual_of_perm_is_perm():
    G = catalog("D8")
    L = G.lattice()
    M = perm_module(G, L.generated_by([G.element_by_word("b")]), F2)
    D = dual(M)
    # inverse-transpose of a permutation matrix is the matrix itself
    assert all(D.gen_mats[i] == M.gen_mats[i] for i in range(2))


def test_tensor_free_rank():
    C2 = catalog("C2")
    M = perm_module(C2, C2.lattice().trivial, F2)
    T = tensor(M, M)
    assert T.dim == 4
    assert free_rank(T) == 2
    assert module_check_labels(T)


def test_tensor_labels_mackey():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    M = perm_module(G, Hb, F2)
    T = tensor(M, M)
    assert module_check_labels(T)
    # orbits of G on (G/H)^2: diagonal H-part plus free parts, total dim 16
    assert sum(len(s.indices) for s in T.labels) == 16
    stabs = sorted(s.subgroup.order for s in T.labels)
    assert stabs == [1, 2, 2]  # 4 + 4 + 8 points


# -- fixed points and traces ----------------------------------------------------------


def test_fixed_points_examples():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    M = perm_module(G, Hb, F2)
    assert fixed_points(M, L.full).cols == 1  # transitive: the all-ones vector
    C2 = catalog("C2")
    R = perm_module(C2, C2.lattice().trivial, F2)
    FP = fixed_points(R, C2.lattice().full)
    assert FP.cols == 1
    assert list(FP.a[:, 0]) == [1, 1]  # spanned by 1 + sigma


def test_fixed_points_orbit_oracle():
    # dimension of the fixed subspace of a permutation module equals the
    # number of orbits on the basis
    cases = [("D8", F2), ("Q8", F2), ("A4", F2), ("SD16", F2)]
    for name, fld in cases:
        G = catalog(name)
        L = G.lattice()
        for H in L.class_reps:
            M = perm_module(G, H, fld)
            cosets = coset_list(G, H)
            for P in L.p_class_reps(fld.p):
                assert fixed_points(M, P).cols == oracle_orbit_count(G, P, cosets)


def test_trace_identity_and_zero():
    G = catalog("C4")
    L = G.lattice()
    k = trivial_module(G, F2)
    full = L.full
    t = trace_map(k, full, full)
    assert t == FqMatrix.identity(F2, 1)
    # trace from the trivial subgroup multiplies by the index, zero mod p
    t0 = trace_map(k, L.trivial, full)
    assert t0.is_zero()


def test_trace_c4_image():
    G = catalog("C4")
    L = G.lattice()
    R = regular_module(G, F2)
    C2sub = [H for H in L.class_reps if H.order == 2][0]
    t = trace_map(R, C2sub, L.full)
    assert rank(t) == 1


def test_trace_transitivity():
    G = catalog("D8")
    L = G.lattice()
    chains = []
    for A in L.subgroups:
        for B in L.subgroups:
            for C in L.subgroups:
                if B.contains(A) and C.contains(B) and A.order < B.order < C.order:
                    chains.append((A, B, C))
    M = perm_module(G, L.generated_by([G.element_by_word("b")]), F2)
    for A, B, C in chains[:12]:
        lhs = trace_map(M, B, C) @ trace_map(M, A, B)
        assert lhs == trace_map(M, A, C)
    with pytest.raises(NotNested):
        trace_map(M, L.full, L.trivial)


# -- Brauer construction -----------------------------------------------------------


def test_brauer_perm_dims():
    for name in ("D8", "Q8"):
        G = catalog(name)
        L = G.lattice()
        for P in L.p_class_reps(2):
            M = perm_module(G, P, F2)
            bd = brauer_quotient(M, P)
            assert bd.module.dim == L.normalizer(P).order // P.order


def test_brauer_regular_at_c2_vanishes():
    C2 = catalog("C2")
    R = regular_module(C2, F2)
    assert brauer_quotient(R, C2.lattice().full).module.dim == 0


def test_brauer_at_trivial_is_identity():
    G = catalog("D8")
    L = G.lattice()
    M = perm_module(G, L.generated_by([G.element_by_word("b")]), F2)
    bd = brauer_quotient(M, L.trivial)
    assert bd.module.dim == M.dim
    assert bd.module.group is G
    assert all(bd.module.gen_mats[i] == M.gen_mats[i] for i in range(2))


def test_brauer_non_p_subgroup_vanishes():
    G = catalog("A4")
    L = G.lattice()
    C3 = [H for H in L.class_reps if H.order == 3][0]
    M = perm_module(G, L.trivial, F2)
    assert brauer_quotient(M, C3).module.dim == 0


def test_brauer_maximal_subgroups_suffice():
    # quotient by traces from maximal subgroups equals quotient over all
    # proper subgroups (transitivity of the trace)
    G = catalog("D8")
    L = G.lattice()
    Sy = L.full
    M = perm_module(G, L.generated_by([G.element_by_word("b")]), F2)
    from permchain.linalg import hstack, image_basis

    F = M.fixed_points(Sy)
    all_proper = [trace_map(M, Q, Sy) for Q in L.subgroups_of(Sy) if Q.order < Sy.order]
    maximal = [trace_map(M, Q, Sy) for Q in L.maximal_proper_in(Sy)]
    ra = rank(hstack(all_proper))
    rm = rank(hstack(maximal))
    assert ra == rm


def test_brauer_map_functorial():
    G = catalog("D8")
    L = G.lattice()
    rng = np.random.default_rng(41)
    M = random_labeled_module(rng, G, F2)
    N = random_labeled_module(rng, G, F2)
    Q = random_labeled_module(rng, G, F2)
    f = random_hom(rng, M, N)
    g = random_hom(rng, N, Q)
    for P in L.p_class_reps(2):
        lhs = brauer_quotient_map(g.compose(f), P)
        rhs = brauer_quotient_map(g, P).compose(brauer_quotient_map(f, P))
        assert lhs.matrix == rhs.matrix


def test_brauer_map_identity_and_zero():
    G = catalog("C4")
    L = G.lattice()
    M = perm_module(G, L.trivial, F2)
    ident = ModuleMap(M, M, FqMatrix.identity(F2, M.dim))
    z = ModuleMap(M, M, FqMatrix.zeros(F2, M.dim, M.dim))
    for P in L.p_class_reps(2):
        bi = brauer_quotient_map(ident, P)
        assert bi.matrix == FqMatrix.identity(F2, bi.source.dim)
        assert brauer_quotient_map(z, P).matrix.is_zero()


def test_brauer_augmentation_surjective_at_p():
    G = catalog("D8")
    L = G.lattice()
    P = L.full
    M = perm_module(G, P, F2)  # k[G/G] = k; use a Sylow-index module instead
    Hb = L.generated_by([G.element_by_word("b")])
    MP = perm_module(G, Hb, F2)
    k = trivial_module(G, F2)
    aug = ModuleMap(MP, k, FqMatrix(F2, np.ones((1, MP.dim), dtype=np.int16)))
    bmap = brauer_quotient_map(aug, Hb)
    assert bmap.source.dim == 2 and bmap.target.dim == 1
    assert rank(bmap.matrix) == 1  # surjective local augmentation


# -- split detection ------------------------------------------------------------------


def test_augmentation_not_split():
    C2 = catalog("C2")
    R = regular_module(C2, F2)
    k = trivial_module(C2, F2)
    aug = ModuleMap(R, k, FqMatrix.from_int_rows(F2, [[1, 1]]))
    assert rank(aug.matrix) == 1  # surjective
    assert not is_split_surjective(aug)
    incl = ModuleMap(k, R, FqMatrix.from_int_rows(F2, [[1], [1]]))
    assert not is_split_injective(incl)


def test_identity_split_both_ways():
    G = catalog("D8")
    M = perm_module(G, G.lattice().generated_by([G.element_by_word("a^2")]), F2)
    ident = ModuleMap(M, M, FqMatrix.identity(F2, M.dim))
    assert is_split_injective(ident)
    assert is_split_surjective(ident)


def test_summand_inclusion_split():
    G = catalog("C4")
    L = G.lattice()
    M = perm_module(G, L.trivial, F2)
    S = direct_sum([M, trivial_module(G, F2)])
    incl = FqMatrix.zeros(F2, S.dim, M.dim)
    incl.a[: M.dim, :] = np.eye(M.dim, dtype=np.int16)
    f = ModuleMap(M, S, incl)
    assert is_split_injective(f)


# -- syzygies ---------------------------------------------------------------------------


def test_omega_cyclic():
    C3 = catalog("C3")
    om = omega(trivial_module(C3, F3))
    assert om.module.dim == 2
    om2 = omega(om.module)
    assert om2.module.dim == 1  # period two
    C9 = catalog("C9")
    o1 = omega(trivial_module(C9, F3))
    assert o1.module.dim == 8
    assert omega(o1.module).module.dim == 1


def test_omega_q8_dims():
    Q8 = catalog("Q8")
    dims = []
    cur = trivial_module(Q8, F2)
    for _ in range(4):
        om = omega(cur)
        dims.append(om.module.dim)
        assert free_rank(om.module) == 0  # minimality of the cover
        assert rank(om.cover.matrix) == cur.dim
        cur = om.module
    assert dims == [7, 9, 7, 1]


def test_omega_dimension_formula():
    G = catalog("C4")
    M = perm_module(G, G.lattice().generated_by([G.element_by_word("a^2")]), F2)
    om = omega(M)
    n = om.cover.source.dim // G.order
    assert om.module.dim == n * G.order - M.dim


def test_omega_p_group_only():
    with pytest.raises(PGroupOnly):
        omega(trivial_module(catalog("C6"), F3))


def test_free_rank_examples():
    C2 = catalog("C2")
    assert free_rank(regular_module(C2, F2)) == 1
    assert free_rank(trivial_module(C2, F2)) == 0
    Q8 = catalog("Q8")
    assert free_rank(regular_module(Q8, F2)) == 1


def test_split_free_summand():
    C2 = catalog("C2")
    M = tensor(regular_module(C2, F2), regular_module(C2, F2))
    sf = split_free_summand(M)
    assert sf.rank == 2
    assert sf.complement.dim == 0
    G = catalog("Q8")
    M2 = direct_sum([regular_module(G, F2), trivial_module(G, F2)])
    sf2 = split_free_summand(M2)
    assert sf2.rank == 1
    assert sf2.complement.dim == 1
    assert free_rank(sf2.complement) == 0
    # reassembly: dimensions and local dimensions agree with the original
    L = G.lattice()
    for P in L.p_class_reps(2):
        got = (
            brauer_quotient(sf2.free, P).module.dim
            + brauer_quotient(sf2.complement, P).module.dim
        )
        assert got == brauer_quotient(M2, P).module.dim


def test_relative_syzygy():
    G = catalog("C2")
    L = G.lattice()
    assert relative_syzygy(G, L.full, F2).module.dim == 0
    d = relative_syzygy(G, L.trivial, F2)
    assert d.module.dim == 1
    assert d.module.gen_mats[0] == FqMatrix.identity(F2, 1)  # trivial action
    SD = catalog("SD16")
    LS = SD.lattice()
    H = [P for P in LS.p_class_reps(2) if P.order == 2 and not P.is_normal][0]
    assert relative_syzygy(SD, H, F2).module.dim == 7


# -- vertices ------------------------------------------------------------------------


def test_vertex_classes():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    M = perm_module(G, Hb, F2)
    vcs = vertex_classes(M)
    expected = [P for P in L.p_class_reps(2) if any(
        L.rep_of(L.conjugate(P, g)).elemset <= Hb.elemset or L.conjugate(P, g).elemset <= Hb.elemset
        for g in range(G.order)
    )]
    assert {P.class_id for P in vcs} == {P.class_id for P in expected}
    assert [P.order for P in vertex_classes(regular_module(G, F2))] == [1]
    assert len(vertex_classes(trivial_module(G, F2))) == len(L.p_class_reps(2))


# -- functors: restrict, inflate, frobenius ----------------------------------------------


def test_restrict():
    G = catalog("D8")
    L = G.lattice()
    A = L.generated_by([G.element_by_word("a")])
    M = perm_module(G, L.generated_by([G.element_by_word("b")]), F2)
    R = restrict(M, A)
    assert R.group.order == 4
    assert R.dim == 4


def test_inflate():
    from permchain.groups import quotient

    G = catalog("C4")
    L = G.lattice()
    Z = L.generated_by([G.element_by_word("a^2")])
    q = quotient(G, Z)
    Mbar = regular_module(q.group, F2)
    M = inflate(Mbar, q)
    assert M.group is G and M.dim == 2
    assert M.labels is not None
    assert M.labels[0].subgroup.elemset == Z.elemset
    assert module_check_labels(M)


def test_frobenius_twist_module():
    G = catalog("A4")
    L = G.lattice()
    M = perm_module(G, L.class_reps[1], F4)
    assert all(
        frobenius_twist_module(M).gen_mats[i] == M.gen_mats[i] for i in range(2)
    )
    w = [c for c in all_characters(G, F4) if not c.is_trivial()][0]
    kw = one_dim_module(w)
    tw = frobenius_twist_module(kw)
    assert tw.gen_mats[0].a[0, 0] == (w * w).values[0]  # w -> w^2 over F4
    assert all(
        frobenius_twist_module(tw).gen_mats[i] == kw.gen_mats[i] for i in range(2)
    )


# -- local dimension identities ------------------------------------------------------


def test_brauer_tensor_multiplicative():
    rng = np.random.default_rng(17)
    G = catalog("D8")
    L = G.lattice()
    for _ in range(5):
        M = random_labeled_module(rng, G, F2, max_summands=2)
        N = random_labeled_module(rng, G, F2, max_summands=2)
        T = tensor(M, N)
        for P in L.p_class_reps(2):
            dm = brauer_quotient(M, P).module.dim
            dn = brauer_quotient(N, P).module.dim
            assert brauer_quotient(T, P).module.dim == dm * dn


def test_brauer_dual_dimension():
    rng = np.random.default_rng(19)
    G = catalog("A4")
    L = G.lattice()
    for _ in range(4):
        M = random_labeled_module(rng, G, F4, max_summands=2, twists=True)
        D = dual(M)
        for P in L.p_class_reps(2):
            assert (
                brauer_quotient(M, P).module.dim == brauer_quotient(D, P).module.dim
            )


def test_brauer_iterated():
    # dim M(P) equals dim (M(Q))(P/Q) for Q normal in P
    G = catalog("D8")
    L = G.lattice()
    Z = L.generated_by([G.element_by_word("a^2")])
    M = perm_module(G, L.generated_by([G.element_by_word("b")]), F2)
    bd = brauer_quotient(M, Z)
    inner = bd.module  # over N(Z)/Z = G/Z
    Li = inner.group.lattice()
    for P in L.p_class_reps(2):
        if not P.contains(Z):
            continue
        img = Li.subgroup({bd.ctx.project_from_g(x) for x in P.elems})
        lhs = brauer_quotient(M, P).module.dim
        rhs = brauer_quotient(inner, img).module.dim
        assert lhs == rhs


def test_brauer_conjugation_invariant():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    Hab2 = L.generated_by([G.element_by_word("a^2*b")])
    assert Hb.class_id == Hab2.class_id and Hb.elems != Hab2.elems
    M = perm_module(G, L.generated_by([G.element_by_word("a*b")]), F2)
    assert (
        brauer_quotient(M, Hb).module.dim == brauer_quotient(M, Hab2).module.dim
    )


def test_hom_space_dimension():
    C2 = catalog("C2")
    R = regular_module(C2, F2)
    k = trivial_module(C2, F2)
    assert len(hom_space_basis(R, R)) == 2  # End(kC2) = kC2
    assert len(hom_space_basis(k, R)) == 1
    assert len(hom_space_basis(R, k)) == 1
