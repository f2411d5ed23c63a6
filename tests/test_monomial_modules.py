"""Monomial modules against the dense reference constructions.

Every constructor of twisted permutation modules keeps a permutation and
twist codes per generator.  On drawn catalog groups and fields F2, F3, F4,
F8 and F9, the matrices of their generators and elements (`gen_mats`,
`elem_mat`), the Brauer points and the labels must equal what the dense
constructions of `module_reference` give, and the monomial commutation
check of `ModuleMap` must accept and reject exactly the matrices the dense
check does, also on modules whose twists are all 1, where rows and columns
are only moved.  The label check of `KgModule` must accept exactly the
labels the dense label oracle accepts, on constructor labels with one
summand changed.  A module and its `DenseModule` copy act alike, and the
package's trace readers give the same actions on both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain.errors import IncompatibleHandles, PermchainError
from permchain.ffield import GF
from permchain.groups import catalog, is_p_power, minimal_generators, quotient
from permchain.linalg import FqMatrix, image_basis
from permchain.complexes import BoundedComplex, homology_at, module_complex
from permchain.invariants import lefschetz
from permchain.modules import (
    KgModule,
    ModuleMap,
    Summand,
    all_characters,
    brauer_points,
    brauer_quotient,
    coset_list,
    direct_sum,
    dual,
    inflate,
    local_quotient,
    perm_module,
    restrict,
    tensor,
    trivial_character,
    twist,
)
from permchain.syzygies import orbit_map, subquotient
import linalg_reference as ref
from helpers import all_entries, conjugate, hom_space_basis
from module_reference import (
    brauer_points_dense,
    commutes_dense,
    dense_copy,
    direct_sum_mats,
    dual_mats,
    elem_mat,
    elem_mats,
    frobenius_mats,
    frobenius_twist_module,
    gen_mats,
    inflate_mats,
    module_check_labels,
    normalizer_group_quotient,
    restrict_mats,
    restriction_over_points,
    scale,
    subgroup_group,
    tensor_mats,
    twist_mats,
)

GROUPS = ["C2", "C3", "C4", "C6", "V4", "D8", "Q8", "A4", "C9", "CpxCp3", "D16"]
FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]
MAX_DIM = 24

EXAMPLES = settings(max_examples=40, deadline=None)


@st.composite
def group_field(draw):
    return catalog(draw(st.sampled_from(GROUPS))), GF(*draw(st.sampled_from(FIELDS)))


@st.composite
def labeled_module(draw, G, fld, max_dim=MAX_DIM):
    """A direct sum of twisted transitive permutation modules."""
    reps = [H for H in G.lattice().class_reps if G.order // H.order <= max_dim]
    chars = all_characters(G, fld)
    parts, dim = [], 0
    for _ in range(draw(st.integers(1, 3))):
        H = draw(st.sampled_from(reps))
        if parts and dim + G.order // H.order > max_dim:
            break
        m = perm_module(G, H, fld)
        char = draw(st.sampled_from(chars))
        if not char.is_trivial():
            mats = twist_mats(m, char)
            m = twist(m, char)
            assert gen_mats(m) == mats
        parts.append(m)
        dim += m.dim
    return parts


def assert_matches(M: KgModule, mats):
    """M's generator matrices are the reference ones, every element matrix
    is their product along its word, and M carries valid labels if it
    carries any."""
    assert gen_mats(M) == list(mats)
    ref = elem_mats(dense_copy(M))
    assert all(elem_mat(M, i) == ref[i] for i in range(M.group.order))
    assert all(
        M.apply(i, FqMatrix.identity(M.field, M.dim)) == ref[i] for i in range(M.group.order)
    )
    if M.labels is not None:
        assert module_check_labels(M)


def assert_brauer_points(M: KgModule):
    G, p = M.group, M.field.p
    for P in G.lattice().p_class_reps(p):
        ref = normalizer_group_quotient(P)
        pts, local = brauer_points(M, P)
        ref_pts, ref_mats = brauer_points_dense(
            M, P, ref.generator_lifts, minimal_generators(P), is_p_power(P.order, p)
        )
        assert pts.tolist() == ref_pts.tolist()
        assert gen_mats(local) == ref_mats
        assert local.group is local_quotient(P).group


@EXAMPLES
@given(st.data())
def test_sums_twists_duals_frobenius(data):
    G, fld = data.draw(group_field())
    parts = data.draw(labeled_module(G, fld))
    M = direct_sum(parts)
    assert_matches(M, direct_sum_mats(parts))
    assert_matches(dual(M), dual_mats(M))
    assert_matches(frobenius_twist_module(M), frobenius_mats(M))
    char = data.draw(st.sampled_from(all_characters(G, fld)))
    assert_matches(twist(M, char), twist_mats(M, char))
    assert_brauer_points(M)
    assert_brauer_points(dual(M))


@EXAMPLES
@given(st.data())
def test_tensors(data):
    G, fld = data.draw(group_field())
    M = direct_sum(data.draw(labeled_module(G, fld, max_dim=12)))
    N = direct_sum(data.draw(labeled_module(G, fld, max_dim=12)))
    T = tensor(M, N)
    assert_matches(T, tensor_mats(M, N))
    assert sum(len(s.indices) for s in T.labels) == T.dim
    assert_brauer_points(T)


@EXAMPLES
@given(st.data())
def test_restrictions(data):
    G, fld = data.draw(group_field())
    M = direct_sum(data.draw(labeled_module(G, fld)))
    H = data.draw(st.sampled_from(G.lattice().subgroups))
    R = restrict(M, H)
    assert_matches(R, restrict_mats(M, subgroup_group(H)))
    assert R.labels is not None  # Mackey: one summand per H-orbit, checked above
    assert_brauer_points(R)
    assert_restriction_over_points(M, H)


def assert_restriction_over_points(M: KgModule, H):
    """restrict(M, H), over the section H/1 of G, against the restriction
    over H on G's points: the same generator names, permutations and
    twists, and per summand the same character values, indices and
    stabilizer, lifted to G (so the same stabilizer order)."""
    R, ref = restrict(M, H), restriction_over_points(M, H)
    assert R.group.gen_names == ref.group.gen_names
    assert [np.asarray(x).tolist() for x in R.perms] == ref.perms
    assert [np.asarray(c).tolist() for c in R.twists] == ref.twists
    Q = quotient(M.group, M.group.lattice().trivial, H)
    got = [(s.character.values, s.indices, {Q.lift(x) for x in s.subgroup.elems}) for s in R.labels or ()]
    assert got == ref.labels


@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.name)
def test_restriction_matches_points_on_catalog_terms(entry):
    for M in entry.complex.mods:
        for H in entry.group.lattice().class_reps:
            assert_restriction_over_points(M, H)


@EXAMPLES
@given(st.data())
def test_inflations(data):
    G, fld = data.draw(group_field())
    lat = G.lattice()
    N = data.draw(st.sampled_from([H for H in lat.class_reps if H.is_normal]))
    q = quotient(G, N)
    Mbar = direct_sum(data.draw(labeled_module(q.group, fld)))
    M = inflate(Mbar, q)
    assert_matches(M, inflate_mats(Mbar, q))
    assert_brauer_points(M)


def test_inflation_refuses_a_quotient_of_a_proper_subgroup():
    """N_G(P)/P for P = <b> in D8 is a quotient of N_G(P) = <b, a^2>, not of
    G: no module over it inflates to G."""
    G = catalog("D8")
    P = G.lattice().generated_by([G.element_by_word("b")])
    q = local_quotient(P)
    assert q.over.order == 4 and q.group.order == 2
    with pytest.raises(IncompatibleHandles, match="proper subgroup"):
        inflate(perm_module(q.group, q.group.lattice().trivial, GF(2)), q)


RELABELINGS = ["keep", "conjugate", "subgroup", "character", "split", "merge", "repeat"]


@st.composite
def relabeled(draw, M: KgModule, how: str) -> list:
    """M's labels, kept or with one summand changed: its subgroup replaced
    by a conjugate or by any subgroup, its character by another, its indices
    split in two, merged with the next summand's, or put in place of the
    next summand of the same size."""
    labels = list(M.labels)
    lat = M.group.lattice()
    k = draw(st.integers(0, len(labels) - 1))
    s = labels[k]
    if how == "conjugate":
        labels[k] = s._replace(subgroup=conjugate(lat, s.subgroup, draw(st.integers(0, M.group.order - 1))))
    elif how == "subgroup":
        labels[k] = s._replace(subgroup=draw(st.sampled_from(lat.subgroups)))
    elif how == "character":
        others = [c for c in all_characters(M.group, M.field) if c != s.character]
        if others:
            labels[k] = s._replace(character=draw(st.sampled_from(others)))
    elif how == "split" and len(s.indices) > 1:
        cut = draw(st.integers(1, len(s.indices) - 1))
        labels[k : k + 1] = [s._replace(indices=s.indices[:cut]), s._replace(indices=s.indices[cut:])]
    elif how == "merge" and k + 1 < len(labels):
        labels[k : k + 2] = [s._replace(indices=s.indices + labels[k + 1].indices)]
    elif how == "repeat" and k + 1 < len(labels) and len(labels[k + 1].indices) == len(s.indices):
        labels[k + 1] = s
    return labels


def label_verdict(M: KgModule, labels) -> bool:
    try:
        KgModule(M.group, M.field, perms=M.perms, twists=M.twists, labels=labels)
    except PermchainError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_label_check_matches_oracle(data):
    """`check=True` accepts exactly the labels the dense oracle accepts, on
    labels of sums, tensors and restrictions with one summand changed."""
    how = data.draw(st.sampled_from(RELABELINGS))
    pairs = group_field()
    if how == "character":  # a group and field with a second character
        pairs = pairs.filter(lambda gf: len(all_characters(*gf)) > 1)
    G, fld = data.draw(pairs)
    M = direct_sum(data.draw(labeled_module(G, fld, max_dim=12)))
    kind = data.draw(st.sampled_from(["sum", "tensor", "restriction"]))
    if kind == "tensor":
        M = tensor(M, direct_sum(data.draw(labeled_module(G, fld, max_dim=4))))
    elif kind == "restriction":
        M = restrict(M, data.draw(st.sampled_from(G.lattice().subgroups)))
    labels = data.draw(relabeled(M, how))
    unchecked = KgModule(M.group, fld, perms=M.perms, twists=M.twists, labels=labels, check=False)
    assert label_verdict(M, labels) == module_check_labels(unchecked)


def test_labels_are_checked():
    """Each summand must be one orbit, labeled by its first point's
    stabilizer and twisted by its character.  Labeling the regular module
    kC2 as [G/1] on point 0 plus [G/G] on point 1 is refused; unchecked, its
    Lefschetz invariant would read 1*[G/1] + 1*[G/G]."""
    C2, V4, F2, F3 = catalog("C2"), catalog("V4"), GF(2), GF(3)
    lat, triv = C2.lattice(), trivial_character(C2, F2)
    swap = {"perms": [[1, 0]], "twists": [[1, 1]]}
    with pytest.raises(PermchainError, match="orbits"):
        KgModule(C2, F2, **swap, labels=(Summand(triv, lat.trivial, (0,)), Summand(triv, lat.full, (1,))))
    with pytest.raises(PermchainError, match="orbits"):
        KgModule(C2, F2, **swap, labels=(Summand(triv, lat.full, (0, 1)),))
    sign = next(c for c in all_characters(C2, F3) if not c.is_trivial())
    with pytest.raises(PermchainError, match="character"):
        KgModule(C2, F3, **swap, labels=(Summand(sign, lat.trivial, (0, 1)),))
    with pytest.raises(IncompatibleHandles):
        KgModule(C2, F2, **swap, labels=(Summand(triv, V4.lattice().trivial, (0, 1)),))
    M = KgModule(C2, F2, **swap, labels=(Summand(triv, lat.trivial, [0, 1]),))
    assert M.labels == (Summand(triv, lat.trivial, (0, 1)),)
    assert repr(lefschetz(module_complex(M))) == "1*[G/1]"


def induced_module(G, H, chi) -> KgModule:
    """Ind_H^G chi, for chi on `subgroup_group(H)`, on the cosets g_i H:
    g.e_i = chi(h) e_j when g g_i = g_j h.  Unlike a twisted permutation
    module, its twists vary along an orbit."""
    Hgrp = chi.group
    reps = [c[0] for c in coset_list(G, H)]
    where = {G.mul(r, h): (j, h) for j, r in enumerate(reps) for h in H.elems}
    perms, twists = [], []
    for g in G.gen_indices:
        images = [where[G.mul(g, r)] for r in reps]
        perms.append([j for j, _ in images])
        twists.append([chi.value_code(Hgrp.index[G.elements[h]]) for _, h in images])
    return KgModule(G, chi.field, perms=perms, twists=twists)


@EXAMPLES
@given(st.data())
def test_induced_modules(data):
    """Monomial modules beyond twisted permutation modules: the relation
    check accepts them, and their element matrices, duals and tensors
    match the dense constructions."""
    G, fld = data.draw(group_field())
    lat = G.lattice()
    H = data.draw(st.sampled_from([K for K in lat.class_reps if G.order // K.order <= 12]))
    chi = data.draw(st.sampled_from(all_characters(subgroup_group(H), fld)))
    M = induced_module(G, H, chi)
    assert_matches(M, gen_mats(M))
    assert_matches(dual(M), dual_mats(M))
    N = direct_sum([M, perm_module(G, lat.full, fld)])
    assert_matches(tensor(M, N), tensor_mats(M, N))


def test_induced_module_twists_vary():
    C4, F3 = catalog("C4"), GF(3)
    lat = C4.lattice()
    H = lat.generated_by([C4.element_by_word("a^2")])
    sign = [c for c in all_characters(subgroup_group(H), F3) if not c.is_trivial()][0]
    M = induced_module(C4, H, sign)
    assert M.twists[0].tolist() == [1, 2]  # a.e0 = e1, a.e1 = a^2 e0 = -e0
    a2 = C4.element_by_word("a^2")
    assert elem_mat(M, a2) == FqMatrix(F3, [[2, 0], [0, 2]])


def outcome(source, target, matrix):
    try:
        ModuleMap(source, target, matrix)
    except PermchainError:
        return False
    return True


def assert_same_verdict(M, N, F):
    """The monomial check, and the same check on dense copies of either
    side, agree with the dense reference on F."""
    want = commutes_dense(M, N, F)
    dM, dN = dense_copy(M), dense_copy(N)
    assert outcome(M, N, F) == want
    assert outcome(dM, N, F) == want
    assert outcome(M, dN, F) == want
    assert outcome(dM, dN, F) == want
    return want


@EXAMPLES
@given(st.data())
def test_commutation_check_matches_dense(data):
    G, fld = data.draw(group_field())
    M = direct_sum(data.draw(labeled_module(G, fld, max_dim=8)))
    N = direct_sum(data.draw(labeled_module(G, fld, max_dim=8)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    basis = hom_space_basis(M, N)
    F = FqMatrix.zeros(fld, N.dim, M.dim)
    for b in basis:
        F = F + scale(b, int(rng.integers(0, fld.q)))
    assert assert_same_verdict(M, N, F)
    # one planted wrong entry
    i, j = int(rng.integers(0, N.dim)), int(rng.integers(0, M.dim))
    bad = F.copy()
    bad.a[i, j] = fld.add[bad.a[i, j], int(rng.integers(1, fld.q))]
    assert_same_verdict(M, N, bad)
    # a matrix that is most likely not a map at all
    assert_same_verdict(M, N, FqMatrix(fld, rng.integers(0, fld.q, size=(N.dim, M.dim))))


@pytest.mark.parametrize("pn", FIELDS, ids=[f"F{p ** n}" for p, n in FIELDS])
def test_planted_entry_is_rejected(pn):
    """The identity of a twisted regular module is a map; one changed
    entry makes it fail both checks."""
    fld = GF(*pn)
    G = catalog("C6")
    M = perm_module(G, G.lattice().trivial, fld)
    char = all_characters(G, fld)[-1]
    M = twist(M, char)
    eye = FqMatrix.identity(fld, M.dim)
    assert assert_same_verdict(M, M, eye)
    bad = eye.copy()
    bad.a[0, 1] = 1
    assert not assert_same_verdict(M, M, bad)
    with pytest.raises(PermchainError, match="does not commute"):
        ModuleMap(M, M, bad)


def test_monomial_input_is_checked():
    G, F4 = catalog("C4"), GF(2, 2)
    with pytest.raises(PermchainError, match="permutation"):
        KgModule(G, F4, perms=[[0, 0]], twists=[[1, 1]])
    with pytest.raises(PermchainError, match="unit"):
        KgModule(G, F4, perms=[[1, 0]], twists=[[1, 0]])
    with pytest.raises(PermchainError, match="relations"):
        KgModule(G, F4, perms=[[0]], twists=[[2]])  # w has order 3, not dividing 4
    ok = KgModule(G, F4, perms=[[1, 0]], twists=[[1, 1]])
    assert ok.dim == 2 and gen_mats(ok) == [FqMatrix(F4, [[0, 1], [1, 0]])]
    with pytest.raises(TypeError):  # generator matrices are no module form
        KgModule(G, F4, [FqMatrix(F4, [[1, 1], [0, 1]])])


SHORTCUT_CASES = [("C6", (2, 2)), ("A4", (2, 2)), ("D8", (2, 2))]
SHORTCUT_CASES += [("C4", (3, 2)), ("C6", (3, 2)), ("C9", (3, 2))]


@pytest.mark.parametrize(
    "name,pn", SHORTCUT_CASES, ids=[f"{g}-F{p ** n}" for g, (p, n) in SHORTCUT_CASES]
)
def test_actions_match_reference_products(name, pn):
    """On kG + k, whose twists are all 1, and on its twists by every
    nontrivial character, `act`, `act_right` and `apply` are the reference
    products with the dense generator and element matrices."""
    G, fld = catalog(name), GF(*pn)
    lat = G.lattice()
    plain = direct_sum([perm_module(G, lat.trivial, fld), perm_module(G, lat.full, fld)])
    twisted = [twist(plain, c) for c in all_characters(G, fld) if not c.is_trivial()]
    assert all(c.max() == 1 for c in plain.twists)
    assert all(any(c.max() > 1 for c in M.twists) for M in twisted)
    rng = np.random.default_rng(G.order * fld.q)
    for M in [plain, *twisted]:
        X = FqMatrix(fld, rng.integers(0, fld.q, (M.dim, 5)))
        Y = FqMatrix(fld, rng.integers(0, fld.q, (5, M.dim)))
        for gi, A in enumerate(gen_mats(M)):
            assert M.act(gi, X) == ref.matmul(A, X)
            assert M.act_right(Y, gi) == ref.matmul(Y, A)
        for i in range(G.order):
            assert M.apply(i, X) == ref.matmul(elem_mat(M, i), X)


def test_untwisted_map_check_rejects_over_f4():
    """Between modules with every twist 1 over F4, a map with entries
    outside F2 is accepted, and one changed entry, inside F2 or not, makes
    it fail both checks."""
    fld, G = GF(2, 2), catalog("C4")
    M = perm_module(G, G.lattice().trivial, fld)
    assert all(c.max() == 1 for c in M.twists)
    F = FqMatrix(fld, 2 * np.eye(M.dim, dtype=np.int16))  # w times the identity
    assert assert_same_verdict(M, M, F)
    for code in (1, 3):
        bad = F.copy()
        bad.a[0, 1] = code
        assert not assert_same_verdict(M, M, bad)
        with pytest.raises(PermchainError, match="does not commute"):
            ModuleMap(M, M, bad)


# -- the dense oracle against the monomial module ---------------------------------


def assert_dense_copy_agrees(M: KgModule, rng):
    """M and its `dense_copy`, the `DenseModule` on `gen_mats(M)`, act alike
    on random blocks and have the same fixed points at every subgroup
    class, and the trace readers give the same Brauer quotients and
    subquotients on both: what the duck-typed oracles rely on."""
    G, fld = M.group, M.field
    D = dense_copy(M)
    X = FqMatrix(fld, rng.integers(0, fld.q, (M.dim, 3)))
    Y = FqMatrix(fld, rng.integers(0, fld.q, (3, M.dim)))
    for gi in range(len(G.generators)):
        assert M.act(gi, X) == D.act(gi, X)
        assert M.act_right(Y, gi) == D.act_right(Y, gi)
    assert all(M.apply(i, X) == D.apply(i, X) for i in range(G.order))
    for P in G.lattice().class_reps:
        assert M.fixed_points(P) == D.fixed_points(P)
        assert brauer_quotient(M, P).action == brauer_quotient(D, P).action
    eye = FqMatrix.identity(fld, M.dim)
    for W in (None, image_basis(orbit_map(M, X.take_cols([0])))):
        assert subquotient(M, eye, W) == subquotient(D, eye, W)


@EXAMPLES
@given(st.data())
def test_dense_copy_agrees_on_drawn_modules(data):
    """On sums of twisted permutation modules and on induced modules,
    whose twists vary along an orbit."""
    G, fld = data.draw(group_field())
    if data.draw(st.booleans()):
        M = direct_sum(data.draw(labeled_module(G, fld, max_dim=12)))
    else:
        lat = G.lattice()
        H = data.draw(st.sampled_from([K for K in lat.class_reps if G.order // K.order <= 12]))
        M = induced_module(G, H, data.draw(st.sampled_from(all_characters(subgroup_group(H), fld))))
    assert_dense_copy_agrees(M, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))


ENTRIES = all_entries()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
def test_dense_copy_agrees_on_catalog_terms(entry):
    rng = np.random.default_rng(len(entry.name))
    for M in entry.complex.mods:
        assert_dense_copy_agrees(M, rng)


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
def test_homology_action_on_a_dense_copy(entry):
    """`homology_at` reads the same action off a catalog complex and off
    its term-by-term dense copy."""
    C = entry.complex
    diffs = {i: d.matrix for i, d in C.diffs.items()}
    D = BoundedComplex(C.group, C.field, C.lo, [dense_copy(M) for M in C.mods], diffs)
    for i in C.degrees():
        assert homology_at(C, i).action == homology_at(D, i).action
