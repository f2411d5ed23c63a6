import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain.burnside import marks
from permchain.complexes import (
    module_complex,
    restrict_complex,
    shift,
    tensor_complex,
    trivial_complex,
    twist_complex,
    xi,
)
from permchain.constructions import a4_frobenius_example, build_entries
from permchain.errors import (
    IncompatibleHandles,
    NonCharacterTrace,
    NotUnitDimension,
    PGroupOnly,
    UnlabeledComponent,
)
from permchain.ffield import GF
from permchain.groups import catalog, group_from_spec, is_p_power, quotient
from permchain.invariants import (
    TrivialSourceElement,
    _preimage_subgroup,
    beta_direct,
    beta_from_xi,
    faithful_assemble,
    faithful_project,
    is_faithful_invariant,
    is_frobenius_stable,
    is_orthogonal_unit_pgroup,
    lefschetz,
)
from permchain.modules import (
    Character,
    all_characters,
    brauer_points,
    one_dim_module,
    regular_module,
    restrict,
    trivial_character,
)

from helpers import all_entries, faithful_project_by_loop, frobenius_twist_beta
from module_reference import DenseModule, dense_trace_beta

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


# -- Lefschetz ------------------------------------------------------------------


def test_lefschetz_shifted_unit():
    G = catalog("C4")
    t = lefschetz(trivial_complex(G, F2, 1))
    items = t.items()
    assert len(items) == 1
    char, sub, c = items[0]
    assert c == -1 and sub.order == G.order and char.is_trivial()


def test_lefschetz_gamma_dihedral():
    e = build_entries("gamma-D8")[0]
    t = lefschetz(e.complex)
    L = e.group.lattice()
    G = e.group
    Hb = L.generated_by([G.element_by_word("b")])
    Hab = L.generated_by([G.element_by_word("a*b")])
    want = {
        (trivial_character(G, F2)._elem_values, L.trivial.class_id): 1,
        (trivial_character(G, F2)._elem_values, L.full.class_id): 1,
        (trivial_character(G, F2)._elem_values, Hb.class_id): -1,
        (trivial_character(G, F2)._elem_values, Hab.class_id): -1,
    }
    assert t.coeffs == want


def test_lefschetz_cyclic_truncation_cancels():
    e = build_entries("trunc-C9")[0]
    t = lefschetz(e.complex)
    items = t.items()
    # the two free terms cancel, leaving the trivial class
    assert len(items) == 1
    char, sub, c = items[0]
    assert c == 1 and sub.order == e.group.order


def test_lefschetz_unlabeled_rejected():
    from permchain.complexes import homology_at
    e = build_entries("trunc-C4")[0]
    H = DenseModule(e.group, e.field, homology_at(e.complex, 2).action)  # carries no labels
    with pytest.raises(UnlabeledComponent):
        lefschetz(module_complex(H, 0))


P_GROUP_ENTRIES = [e for e in all_entries() if is_p_power(e.group.order, e.field.p)]


def fixed_point_marks(C, L) -> int:
    """sum_i (-1)^i |X_i^L|: the basis points of each term that every
    element of L fixes."""
    total = 0
    for i in C.degrees():
        M = C.module_at(i)
        if M.dim:
            eperms = M.element_perms()[list(L.elems)]
            total += (-1) ** (i % 2) * int((eperms == np.arange(M.dim)).all(axis=0).sum())
    return total


@pytest.mark.parametrize("entry", P_GROUP_ENTRIES, ids=[e.name for e in P_GROUP_ENTRIES])
def test_restriction_keeps_lefschetz_marks(entry):
    """Restriction keeps labels by Mackey: for every subgroup K, the mark of
    Lambda(Res_K C) at L <= K is the mark of Lambda(C) at L's image in G,
    and both count the L-fixed basis points."""
    C = entry.complex
    G, lat = C.group, C.group.lattice()
    big = marks(lefschetz(C).to_burnside())
    for K in lat.subgroups:
        R, section = restrict_complex(C, K), quotient(G, lat.trivial, K)
        small = marks(lefschetz(R).to_burnside())
        for L in R.group.lattice().class_reps:
            image = lat.subgroup(section.lift(x) for x in L.elems)
            assert small[L.class_id] == big[image.class_id] == fixed_point_marks(R, L)


def test_subgroup_of_another_group_is_rejected():
    """A subgroup of C4 handed to a module or element over V4 fails at once,
    before its element indices are read as elements of V4."""
    V4, C4 = catalog("V4"), catalog("C4")
    N2 = next(H for H in C4.lattice().subgroups if H.order == 2)
    with pytest.raises(IncompatibleHandles):
        brauer_points(regular_module(V4, F2), N2)
    with pytest.raises(IncompatibleHandles):
        restrict(regular_module(V4, F2), N2)
    with pytest.raises(IncompatibleHandles):
        TrivialSourceElement(V4, F2).add_term(trivial_character(V4, F2), N2, 1)


# -- orthogonal units ----------------------------------------------------------------


def test_orthogonal_unit_examples():
    G = catalog("C2")
    L = G.lattice()
    k = TrivialSourceElement(G, F2)
    k.add_term(trivial_character(G, F2), L.full, 1)
    assert is_orthogonal_unit_pgroup(k)
    kC2 = TrivialSourceElement(G, F2)
    kC2.add_term(trivial_character(G, F2), L.trivial, 1)
    assert not is_orthogonal_unit_pgroup(kC2)  # mark 2 at the trivial class
    lam = lefschetz(build_entries("gamma-D8")[0].complex)
    assert is_orthogonal_unit_pgroup(lam)
    assert all(v in (1, -1) for v in marks(lam.to_burnside()))


def test_orthogonal_unit_p_group_only():
    G = catalog("A4")
    t = TrivialSourceElement(G, F4)
    t.add_term(trivial_character(G, F4), G.lattice().full, 1)
    with pytest.raises(PGroupOnly):
        is_orthogonal_unit_pgroup(t)


# -- beta ------------------------------------------------------------------------------


def test_beta_from_xi_unit_and_shift():
    G = catalog("C4")
    x0 = xi(trivial_complex(G, F2, 0))
    b0 = beta_from_xi(x0)
    assert all(e.epsilon == 1 and e.character.is_trivial() for e in b0.entries.values())
    x1 = xi(trivial_complex(G, F2, 1))
    b1 = beta_from_xi(x1)
    assert all(e.epsilon == -1 and e.character.is_trivial() for e in b1.entries.values())


def test_beta_from_xi_gamma_dihedral_signs():
    e = build_entries("gamma-D8")[0]
    b = beta_from_xi(xi(e.complex))
    L = e.group.lattice()
    G = e.group
    Hb = L.generated_by([G.element_by_word("b")])
    Hab = L.generated_by([G.element_by_word("a*b")])
    for cid, entry in b.entries.items():
        if cid in (Hb.class_id, Hab.class_id):
            assert entry.epsilon == -1
        else:
            assert entry.epsilon == 1


def test_beta_direct_one_dim_twist():
    G = catalog("A4")
    L = G.lattice()
    w = [c for c in all_characters(G, F4) if not c.is_trivial()][0]
    t = TrivialSourceElement(G, F4)
    t.add_term(w, L.full, 1)
    b = beta_direct(t)
    for cid, e in b.entries.items():
        assert e.epsilon == 1
        for gi, g in enumerate(e.ctx.generator_lifts()):
            assert e.character.values[gi] == w.value_code(g)


def test_beta_direct_free_module_rejected():
    G = catalog("C2")
    t = TrivialSourceElement(G, F2)
    t.add_term(trivial_character(G, F2), G.lattice().trivial, 1)
    with pytest.raises(NotUnitDimension):
        beta_direct(t)


def test_beta_direct_non_character_trace():
    # k_w + k_w2 - k has unit virtual dimensions but trace w + w^2 - 1 = 0
    G = catalog("A4")
    L = G.lattice()
    chars = [c for c in all_characters(G, F4) if not c.is_trivial()]
    t = TrivialSourceElement(G, F4)
    t.add_term(chars[0], L.full, 1)
    t.add_term(chars[1], L.full, 1)
    t.add_term(trivial_character(G, F4), L.full, -1)
    with pytest.raises(NonCharacterTrace):
        beta_direct(t)


def _beta_outcome(fn, t):
    """Each entry's sign and character values, or the rejection and its message."""
    try:
        b = fn(t)
    except (NotUnitDimension, NonCharacterTrace) as exc:
        return type(exc), str(exc)
    return [(cid, e.epsilon, e.character.group, e.character._elem_values) for cid, e in sorted(b.entries.items())]


def test_beta_direct_matches_dense_traces_on_a4_example():
    u, beta, _ = a4_frobenius_example()
    assert beta == dense_trace_beta(u)
    assert _beta_outcome(beta_direct, u) == _beta_outcome(dense_trace_beta, u)


def test_beta_direct_rejects_a_trace_that_is_not_multiplicative():
    """2 k_chi - 3 k over C3 and F7, chi(a) = 2: sign -1 and unit values 6
    and 2 at a and a^2, but 6^2 = 1 is not 2."""
    G, F7 = catalog("C3"), GF(7)
    full = G.lattice().full
    t = TrivialSourceElement(G, F7, [(Character(G, F7, [2]), full, 2), (trivial_character(G, F7), full, -3)])
    want = (NonCharacterTrace, "trace vector is not multiplicative")
    assert _beta_outcome(beta_direct, t) == want == _beta_outcome(dense_trace_beta, t)


_BETA_GROUPS = ["C2", "C3", "C4", "V4", "C6", "D8", "A4", "(0 1 2);(0 1)"]
_BETA_FIELDS = [F2, F3, F4]


@st.composite
def _virtual_elements(draw):
    """k_w plus pairs (k_chi - k_psi) (x) c k[G/H], each pair of dimension 0
    at every P, so every Brauer dimension is 1; or terms drawn freely."""
    G = group_from_spec(draw(st.sampled_from(_BETA_GROUPS)))
    f = draw(st.sampled_from(_BETA_FIELDS))
    chars, reps = all_characters(G, f), G.lattice().class_reps
    t = TrivialSourceElement(G, f)
    if draw(st.booleans()):
        t.add_term(draw(st.sampled_from(chars)), G.lattice().full, 1)
        for _ in range(draw(st.integers(0, 2))):
            H, c = draw(st.sampled_from(reps)), draw(st.integers(1, 2))
            t.add_term(draw(st.sampled_from(chars)), H, c)
            t.add_term(draw(st.sampled_from(chars)), H, -c)
    else:
        for _ in range(draw(st.integers(1, 3))):
            t.add_term(draw(st.sampled_from(chars)), draw(st.sampled_from(reps)), draw(st.integers(-2, 2)))
    return t


@settings(max_examples=80, deadline=None)
@given(_virtual_elements())
def test_beta_direct_matches_dense_traces(t):
    assert _beta_outcome(beta_direct, t) == _beta_outcome(dense_trace_beta, t)


def test_beta_consistency_on_catalog_pgroups():
    for name in ("trunc-C2", "trunc-C4", "trunc-Q8", "gamma-D8"):
        e = build_entries(name)[0]
        assert beta_from_xi(xi(e.complex)) == beta_direct(lefschetz(e.complex))


# -- the A4 example --------------------------------------------------------------------


def test_a4_example_full():
    u, beta, stable = a4_frobenius_example()
    assert stable is False
    G = u.group
    L = G.lattice()
    F = u.field
    # virtual dimension at the trivial subgroup: 1 + 4 - 4
    total = sum(c * (G.order // sub.order) for _, sub, c in u.items())
    assert total == 1
    by_order = {e.subgroup.order: e for e in beta.entries.values()}
    assert by_order[1].character.is_trivial() and by_order[1].epsilon == 1
    assert by_order[2].character.is_trivial() and by_order[2].epsilon == 1
    v4 = by_order[4]
    assert not v4.character.is_trivial()
    # the character sends the coset of the order-3 generator to w
    a = G.element_by_word("a")
    assert v4.character.value_code(v4.ctx.project(a)) == 2  # the code of w


def test_a4_example_twist_changes_character():
    u, beta, _ = a4_frobenius_example()
    tw = frobenius_twist_beta(beta)
    assert tw != beta
    assert frobenius_twist_beta(tw) == beta  # F^2 = id on F4


def test_frobenius_stable_trivial_tuple():
    G = catalog("C4")
    b = beta_from_xi(xi(trivial_complex(G, F2, 0)))
    assert is_frobenius_stable(b)


def test_frobenius_stable_global_twist():
    # a global one-dimensional twist is stable even when its character is not
    G = catalog("A4")
    w = [c for c in all_characters(G, F4) if not c.is_trivial()][0]
    x = xi(module_complex(one_dim_module(w), 0))
    assert is_frobenius_stable(beta_from_xi(x))


def test_catalog_betas_stable():
    for name in ("trunc-C4", "trunc-C9", "gamma-D8", "abelian-C6"):
        for e in build_entries(name):
            b = beta_from_xi(xi(e.complex))
            assert is_frobenius_stable(b)


# -- faithful decomposition --------------------------------------------------------------


def test_faithful_trivial_invariant():
    G = catalog("C4")
    x = xi(trivial_complex(G, F2, 0))
    parts = faithful_project(x)
    assert len(parts) == 3  # 1 < C2 < C4
    for S, comp in parts:
        assert comp.is_trivial()
        assert is_faithful_invariant(comp)
    assert faithful_assemble(parts) == x


def test_faithful_c4_truncation():
    e = build_entries("trunc-C4")[0]
    x = xi(e.complex)
    parts = faithful_project(x)
    hs = {S.order: [en.h for _, en in sorted(comp.entries.items())] for S, comp in parts}
    assert hs[1] == [2, 0, 0]
    assert hs[2] == [0, 0]
    assert hs[4] == [0]
    for S, comp in parts:
        assert is_faithful_invariant(comp)
    assert faithful_assemble(parts) == x


def test_faithful_shift_assembles():
    # the degree shift has h = 1 everywhere; its components distribute over
    # the chain of normal subgroups yet reassemble exactly
    G = catalog("C8")
    x = xi(trivial_complex(G, F2, 1))
    parts = faithful_project(x)
    assert faithful_assemble(parts) == x
    for _, comp in parts:
        assert is_faithful_invariant(comp)


def test_faithful_gamma_dihedral():
    e = build_entries("gamma-D8")[0]
    x = xi(e.complex)
    parts = faithful_project(x)
    assert faithful_assemble(parts) == x
    for S, comp in parts:
        assert is_faithful_invariant(comp)
    # the identity component carries the full pattern: it is x itself there
    S0, comp0 = parts[0]
    assert S0.order == 1
    assert [en.h for _, en in sorted(comp0.entries.items())][0] == 2


def test_faithful_with_torsion_characters():
    e = [en for en in build_entries("abelian-C6") if "torsion" in en.name][0]
    x = xi(e.complex)
    parts = faithful_project(x)
    assert faithful_assemble(parts) == x


@pytest.mark.parametrize("spec", ["D16", "Q16", "SD16", "A4", "(0 1 2 3);(0 1)"])
def test_preimage_subgroup_matches_elementwise_preimage(spec):
    """The preimage of each subgroup of G/N, read off the mask of the
    subgroup below, is the set of x whose coset lies in it."""
    G = group_from_spec(spec)
    L = G.lattice()
    for N in L.subgroups:
        if not N.is_normal:
            continue
        quot = quotient(G, N)
        for Xbar in quot.group.lattice().subgroups:
            P = _preimage_subgroup(quot, Xbar)
            below = set(Xbar.elems)
            assert P.elems == tuple(x for x in range(G.order) if quot.project(x) in below)
            assert P.order == Xbar.order * N.order and P.contains(N)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.name)
def test_faithful_project_powers_match_the_loop(entry):
    """Each value raised to the power mu in one step, the exponent reduced
    mod q - 1, is the value raised by |mu| multiplications: on every
    catalog entry and its twists by every character."""
    C = entry.complex
    for D in [C] + [twist_complex(C, ch) for ch in all_characters(C.group, C.field)]:
        x = xi(D)
        got, want = faithful_project(x), faithful_project_by_loop(x)
        assert [S for S, _ in got] == [S for S, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a == b
            assert [(e.h, e.character.values) for _, e in sorted(a.entries.items())] == [
                (e.h, e.character.values) for _, e in sorted(b.entries.items())
            ]
