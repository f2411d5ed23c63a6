"""The Brauer construction by fixed basis points, the rank form of the
homology dimensions, and the one pass of `endotrivial_report`.

The package has one Brauer construction: `BrauerComplex` picks the P-fixed
basis points of every monomial term, labeled or not, and at P = 1 it is the
complex itself.  The oracle is the trace-quotient construction of
`module_reference`: every term's `brauer_quotient` and every differential's
induced map, with the local homology read from homology modules.  Both must
give the same violations and the same invariant xi, on the catalog, on
restrictions and local complexes of it (which carry no labels), and on
tensor products; a dense complex has no Brauer points and raises.

The report reads each local character by the Hopf trace formula: the
alternating sum of the twists at the points each generator fixes.  Its
values are checked against the homology modules and against the earlier
reading off one cycle outside the boundaries (`helpers.one_cycle_character`),
and the formula itself against the traces on homology, on every local
complex of the catalog and of tensor products, homology in several degrees
included.  The report reads C(P) off the P-fixed points without building
it: its violations, h-marks and characters are checked against the local
complexes `brauer_complex` builds and checks (`helpers.brauer_complex_reading`),
on the catalog, tensor products, cones, twists and random permutation
complexes; it is checked to build no module, map or complex, to read the
points of each class once, to reduce each nonempty local differential once,
to be made once and to be kept on its frozen complex.  The paper's identities
for tensor products, duals, shifts and twists are checked over the whole
catalog and over tensor products of its entries.
"""

import dataclasses
import json
import warnings

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain import complexes
from permchain.cli import main
from permchain.complexes import (
    BoundedComplex,
    ChainMap,
    brauer_complex,
    dual_complex,
    endotrivial_report,
    homology,
    homology_at,
    homology_dims,
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
    abelian_generators,
    all_entries,
    build_entries,
    catalog_names,
    gamma_dihedral,
    gamma_semidihedral,
)
from permchain.errors import PermchainError
from permchain.ffield import GF
from permchain.groups import catalog, group_from_spec
from permchain.modules import (
    KgModule,
    ModuleMap,
    all_characters,
    brauer_points,
    direct_sum,
    fixed_basis_points,
    perm_module,
    trivial_module,
    twist,
)

from helpers import (
    random_complex,
    brauer_complex_reading,
    homology_lefschetz,
    homology_module_reading,
    one_cycle_reading,
    per_generator_homology_action,
)
from module_reference import dense_copy, trace_quotient_complex

ENTRIES = all_entries()
ENTRY_IDS = [e.name for e in ENTRIES]


def variants(C: BoundedComplex) -> list:
    """C, its dual, its shift by 3 and its twists by each nontrivial character."""
    twists = [
        twist_complex(C, ch) for ch in all_characters(C.group, C.field) if not ch.is_trivial()
    ]
    return [C, dual_complex(C), shift(C, 3)] + twists


def permutation_complexes() -> list:
    """k[G/H] in degree 0 for every subgroup class of every catalog group;
    all but k[G/G] fail to be endotrivial."""
    out = {}
    for e in ENTRIES:
        G = e.group
        for H in G.lattice().class_reps:
            out[(id(G), e.field.q, H.elems)] = module_complex(perm_module(G, H, e.field))
    return list(out.values())


def assert_paths_agree(C: BoundedComplex):
    """The report, built on picked coordinates, reads what the homology of
    the trace-quotient complexes gives at every p-subgroup class."""
    by_points = endotrivial_report(C)
    violations, entries = homology_module_reading(C, trace_quotient_complex)
    assert by_points.violations == violations
    assert (by_points.xi is not None) == by_points.ok == (not violations)
    if by_points.ok:
        got = {cid: (e.h, list(e.character.values)) for cid, e in by_points.xi.entries.items()}
        assert got == entries


def _class_reps(C):
    return sorted(P.elems for P in C.group.lattice().p_class_reps(C.field.p))


def assert_rank_dims(C: BoundedComplex):
    assert homology_dims(C) == {i: h.dim for i, h in homology(C).items() if h.dim}


def assert_homology_module_reading(C: BoundedComplex):
    """The report's violations, h-marks and trace-formula characters are
    those the homology modules give at every p-subgroup class, and those of
    the reading off one cycle."""
    violations, entries = homology_module_reading(C)
    assert one_cycle_reading(C) == (violations, entries)
    rep = endotrivial_report(C)
    assert rep.violations == violations
    if violations:
        assert rep.xi is None
        return
    got = {cid: (e.h, list(e.character.values)) for cid, e in rep.xi.entries.items()}
    assert got == entries


def assert_shifted(base, moved, k: int):
    for cid, e in base.entries.items():
        assert moved.entries[cid].h == e.h + k
        assert moved.entries[cid].character == e.character


def assert_twisted(base, twisted, omega):
    """Each local character is multiplied by omega's descent to N_G(P)/P:
    omega's value on the lift of each quotient generator."""
    f = base.field
    for cid, e in base.entries.items():
        lifts = e.ctx.generator_lifts()
        want = [int(f.mul[v, omega.value_code(g)]) for v, g in zip(e.character.values, lifts)]
        assert twisted.entries[cid].h == e.h
        assert list(twisted.entries[cid].character.values) == want


# -- labeled path against the trace-quotient oracle -----------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_points_match_trace_quotients_on_catalog(entry):
    for C in variants(entry.complex):
        assert_paths_agree(C)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_points_match_trace_quotients_off_endotrivial():
    cases = permutation_complexes()
    assert sum(not endotrivial_report(C).ok for C in cases) > 20
    for C in cases:
        assert_paths_agree(C)


def test_points_match_trace_quotients_at_every_subgroup():
    """Both constructions agree on the local complexes at every subgroup
    class, non-p-subgroups (where both are zero) included."""
    for e in build_entries("abelian-C6") + build_entries("gamma-D8"):
        C = e.complex
        p_classes = _class_reps(C)
        for H in C.group.lattice().class_reps:
            by_points = brauer_complex(C, H)
            assert by_points.dims() == trace_quotient_complex(C, H).dims()
            if H.elems not in p_classes:
                assert set(by_points.dims().values()) == {0}


def restrictions_and_local_complexes() -> list:
    """Every catalog complex restricted to each proper subgroup class, and
    its local complex at each nontrivial p-subgroup class: monomial
    complexes over other groups, the local ones without labels."""
    out = []
    for e in ENTRIES:
        C = e.complex
        lat = C.group.lattice()
        out += [restrict_complex(C, H) for H in lat.class_reps if H != lat.full]
        out += [brauer_complex(C, P) for P in lat.p_class_reps(e.field.p) if P != lat.trivial]
    return out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_points_match_trace_quotients_on_restrictions_and_local_complexes():
    cases = restrictions_and_local_complexes()
    assert len(cases) == 172
    assert any(C.mods[0].labels is None for C in cases)
    for C in cases:
        assert_paths_agree(C)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_dense_complex_over_p_prime_group_raises():
    """C3 over F2 has no p-subgroup but 1, where the local complex is the
    complex itself; a dense term still raises there."""
    G = group_from_spec("(0 1 2)")
    with pytest.raises(PermchainError, match="monomial"):
        endotrivial_report(module_complex(dense_copy(trivial_module(G, GF(2)))))


def test_dense_complex_has_no_brauer_points():
    C = build_entries("trunc-C2")[0].complex
    diffs = {i: d.matrix for i, d in C.diffs.items()}
    C = BoundedComplex(C.group, C.field, C.lo, [dense_copy(M) for M in C.mods], diffs)
    M = C.module_at(1)
    with pytest.raises(PermchainError, match="monomial"):
        brauer_points(M, M.group.lattice().trivial)
    with pytest.raises(PermchainError, match="monomial"):
        endotrivial_report(C)


def _tensor_pool(max_dim=400):
    """Pairs of entries over one group whose tensor product has at most
    max_dim basis vectors in all degrees."""
    pool = []
    for name in catalog_names():
        fam = build_entries(name)
        for a in fam:
            for b in fam:
                if sum(a.complex.dims().values()) * sum(b.complex.dims().values()) <= max_dim:
                    pool.append((a, b))
    return pool


TENSOR_POOL = _tensor_pool()


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TENSOR_POOL))
def test_points_match_trace_quotients_on_tensor_products(pair):
    a, b = pair
    assert_paths_agree(tensor_complex(a.complex, b.complex))


# -- homology dimensions from ranks ---------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_rank_dims_match_homology_modules(entry):
    for C in variants(entry.complex):
        assert_rank_dims(C)
        for P in C.group.lattice().p_class_reps(C.field.p):
            assert_rank_dims(brauer_complex(C, P))


def test_rank_dims_off_endotrivial():
    for C in permutation_complexes():
        assert_rank_dims(C)


# -- one reading of the points per p-subgroup class -----------------------------


@pytest.fixture
def brauer_builds(monkeypatch):
    """Records the subgroup of every BrauerComplex built."""
    built = []
    original = complexes.BrauerComplex.__init__

    def counting(self, C, P):
        built.append(P.elems)
        original(self, C, P)

    monkeypatch.setattr(complexes.BrauerComplex, "__init__", counting)
    return built


@pytest.fixture
def point_readings(monkeypatch):
    """Records the subgroup of every reading of P-fixed points the report
    makes (`fixed_basis_points`, one per term and class)."""
    read = []
    original = complexes.fixed_basis_points

    def counting(M, P):
        read.append(P.elems)
        return original(M, P)

    monkeypatch.setattr(complexes, "fixed_basis_points", counting)
    return read


def _readings_per_class(C) -> list:
    """Each p-subgroup class once per term of C, sorted as the fixtures are."""
    return sorted(_class_reps(C) * len(C.mods))


def copy_complex(C: BoundedComplex) -> BoundedComplex:
    """The same modules and differentials in a new complex, with no report."""
    return BoundedComplex(C.group, C.field, C.lo, C.mods, C.diffs)


def test_verify_builds_each_class_once(point_readings, brauer_builds):
    """A fresh complex is examined once per class, by one reading of the
    points of each term; its report is kept, so a second verify reads
    nothing.  No local complex is built."""
    for e in build_entries("gamma-D8") + build_entries("abelian-V4"):
        fresh = dataclasses.replace(e, complex=copy_complex(e.complex))
        for want in (_readings_per_class(e.complex), []):
            point_readings.clear()
            rep, inv = fresh.verify()
            assert rep["endotrivial"] and inv is not None
            assert sorted(point_readings) == want
    assert brauer_builds == []


def test_check_builds_each_class_once(tmp_path, capsys, point_readings, brauer_builds):
    path = tmp_path / "gd8.json"
    assert main(["catalog", "build", "gamma-D8", "--out", str(path)]) == 0
    point_readings.clear()
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["endotrivial"] is True
    assert sorted(point_readings) == _readings_per_class(build_entries("gamma-D8")[0].complex)
    assert brauer_builds == []


def test_report_carries_xi_only_when_ok():
    C = build_entries("gamma-D8")[0].complex
    rep = endotrivial_report(C)
    assert rep.ok and rep.xi == xi(C)
    G = C.group
    bad = endotrivial_report(module_complex(perm_module(G, G.lattice().trivial, C.field)))
    assert not bad.ok and bad.xi is None


# -- the paper's identities ------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_shift_adds_to_every_h_mark(entry):
    C = entry.complex
    base = xi(C)
    for k in (-2, 1, 3):
        assert_shifted(base, xi(shift(C, k)), k)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_twist_multiplies_local_characters(entry):
    C = entry.complex
    base = xi(C)
    for omega in all_characters(C.group, entry.field):
        assert_twisted(base, xi(twist_complex(C, omega)), omega)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_dual_negates_xi(entry):
    assert xi(dual_complex(entry.complex)) == -xi(entry.complex)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TENSOR_POOL), st.sampled_from([-2, 1, 3]), st.data())
def test_xi_identities_on_tensor_products(pair, k, data):
    """xi(C (x) D) = xi(C) + xi(D), xi(T*) = -xi(T), and the shift and twist
    rules on T = C (x) D."""
    a, b = pair
    T = tensor_complex(a.complex, b.complex)
    base = xi(T)
    assert base == xi(a.complex) + xi(b.complex)
    assert xi(dual_complex(T)) == -base
    assert_shifted(base, xi(shift(T, k)), k)
    omega = data.draw(st.sampled_from(all_characters(T.group, T.field)))
    assert_twisted(base, xi(twist_complex(T, omega)), omega)


# -- the field-size warning --------------------------------------------------------


def test_xi_warns_once_when_field_is_small():
    C = trivial_complex(group_from_spec("(0 1 2)"), GF(2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        xi(C)
    assert len(caught) == 1
    assert "may miss degree one characters" in str(caught[0].message)


# -- the trace-formula character against the homology modules and one cycle -----


def _twisted_c6_generators() -> list:
    fld = GF(2, 2)
    G = catalog("C6")
    chars = [c for c in all_characters(G, fld) if not c.is_trivial()]
    return [twist_complex(e.complex, ch) for e in abelian_generators(G, fld) for ch in chars]


def _gamma_d8_products() -> list:
    out = []
    for fld in (GF(2, 2), GF(2, 3)):
        g = gamma_dihedral(3, fld)
        out += [tensor_complex(g, g), tensor_complex(g, dual_complex(g))]
    return out


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_one_cycle_character_on_catalog(entry):
    for C in variants(entry.complex):
        assert_homology_module_reading(C)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_one_cycle_character_off_endotrivial():
    for C in permutation_complexes():
        assert_homology_module_reading(C)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TENSOR_POOL))
def test_one_cycle_character_on_tensor_products(pair):
    a, b = pair
    assert_homology_module_reading(tensor_complex(a.complex, b.complex))


@pytest.mark.parametrize(
    "make", [_twisted_c6_generators, _gamma_d8_products], ids=["C6-twists-F4", "gD8-products-F4-F8"]
)
def test_one_cycle_character_over_extension_fields(make):
    for C in make():
        assert endotrivial_report(C).ok
        assert_homology_module_reading(C)


# -- the Hopf trace formula ------------------------------------------------------


def signed_fixed_twists(X: BoundedComplex, gi: int) -> dict:
    """code -> sum over degrees i of (-1)^i times the number of points that
    generator gi fixes in X_i with that twist."""
    counts = {}
    for i, M in zip(X.degrees(), X.mods):
        for j, (x, c) in enumerate(zip(M.perms[gi].tolist(), M.twists[gi].tolist())):
            if x == j:
                counts[c] = counts.get(c, 0) + (-1) ** (i % 2)
    return counts


def chain_lefschetz(X: BoundedComplex) -> list:
    """Per generator, sum_i (-1)^i tr(g | X_i) from the diagonals of the
    dense generator matrices."""
    f, out = X.field, []
    for gi in range(len(X.group.generators)):
        total = 0
        for i, M in zip(X.degrees(), X.mods):
            for v in M.gen_mats[gi].a.diagonal().tolist():
                total = int(f.sub[total, v] if i % 2 else f.add[total, v])
        out.append(total)
    return out


def line_character(C: BoundedComplex, h: int, P=None) -> list:
    """The report's trace-formula reading at P (default 1), off the P-fixed
    points of C's terms."""
    P = P or C.group.lattice().trivial
    return complexes._line_character(C, h, P, [fixed_basis_points(M, P) for M in C.mods])


def assert_trace_formula(C: BoundedComplex) -> tuple:
    """At every p-subgroup class, the twist sum the report reads off the
    P-fixed points of C (at h = 0, the plain alternating sum) equals the
    alternating trace on the terms and on the homology of C(P).  Returns
    whether some class had homology in several degrees and whether some
    twist code was counted p or more times."""
    several = reduced = False
    for P in C.group.lattice().p_class_reps(C.field.p):
        X = brauer_complex(C, P)
        got = line_character(C, 0, P)
        assert got == chain_lefschetz(X) == homology_lefschetz(X)
        several |= len(homology_dims(X)) > 1
        reduced |= any(
            abs(n) >= C.field.p
            for gi in range(len(X.group.generators))
            for n in signed_fixed_twists(X, gi).values()
        )
    return several, reduced


def zero_cone(C: BoundedComplex) -> BoundedComplex:
    """The cone of the zero map C -> C[3]: C[1] (+) C[3], whose local
    homology sits in two degrees wherever C's is nonzero."""
    return mapping_cone(ChainMap(C, shift(C, 3), {}))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_trace_formula_on_catalog_local_complexes():
    seen = []
    for e in ENTRIES:
        chars = [ch for ch in all_characters(e.group, e.field) if not ch.is_trivial()]
        cases = [e.complex, zero_cone(e.complex)]
        cases += [twist_complex(e.complex, ch) for ch in chars[:1]]
        seen += [assert_trace_formula(C) for C in cases]
    for C in permutation_complexes():  # twists on moved points must not count
        for ch in all_characters(C.group, C.field):
            seen.append(assert_trace_formula(twist_complex(C, ch)))
    assert any(several for several, _ in seen)
    assert any(reduced for _, reduced in seen)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TENSOR_POOL))
def test_trace_formula_on_tensor_products(pair):
    a, b = pair
    T = tensor_complex(a.complex, b.complex)
    assert_trace_formula(T)
    assert_trace_formula(zero_cone(T))


def test_trace_formula_reduces_counts_mod_p():
    """Over F4 on C6 = <a>, a fixes each point of (w)*[G/G]^2 + [G/G]^3 in
    degree 0 and of [G/G]^2 in degree 1: twist w counted twice, 1 three
    times less twice, so the trace is w + w + 1 = 1.  The same module alone
    has homology in degree 0 only, trace 1 as well."""
    fld = GF(2, 2)
    G = catalog("C6")
    omega = next(ch for ch in all_characters(G, fld) if not ch.is_trivial())
    one = trivial_module(G, fld)
    M0 = direct_sum([twist(one, omega)] * 2 + [one] * 3)
    C = BoundedComplex(G, fld, 0, [M0, direct_sum([one] * 2)], {})
    assert signed_fixed_twists(C, 0) == {omega.values[0]: 2, 1: 1}
    assert homology_dims(C) == {0: 5, 1: 2}
    assert line_character(C, 0)[0] == 1
    assert assert_trace_formula(C) == (True, True)
    assert line_character(module_complex(M0), 0)[0] == 1


def nonempty_local_differentials(C: BoundedComplex, P) -> int:
    """The differentials of C(P) with a nonzero term on both sides."""
    X = brauer_complex(C, P)
    return sum(X.module_at(i).dim > 0 and X.module_at(i - 1).dim > 0 for i in X.diffs)


@pytest.mark.parametrize("build", ["gD8", "gD8xgD8"])
def test_report_reduces_each_local_differential_once(linalg_calls, build):
    """The report's only row reductions are one per nonempty local
    differential: the trace formula reads the characters with none."""
    g = build_entries("gamma-D8")[0].complex
    C = copy_complex(g if build == "gD8" else tensor_complex(g, g))
    reps = C.group.lattice().p_class_reps(C.field.p)
    want = sum(nonempty_local_differentials(C, P) for P in reps)
    before = linalg_calls["rref"]
    assert endotrivial_report(C).ok
    assert linalg_calls["rref"] - before == want


def test_gamma_sd16_is_reduced_once(linalg_calls):
    """`gamma_semidihedral` checks the homology of the cone it returns, and
    the report reads those kept dims at P = 1: it reduces only the
    nonempty local differentials at P > 1."""
    G = gamma_semidihedral(4, GF(2))
    want = sum(nonempty_local_differentials(G, P) for P in G.group.lattice().p_class_reps(2) if P.order > 1)
    before = linalg_calls["rref"]
    assert endotrivial_report(G).ok
    assert linalg_calls["rref"] - before == want > 0


def assert_one_solve(C: BoundedComplex):
    """`homology_at` solves for all generators at once; the matrices are those
    of one solve per generator, in every degree of the complex and of its
    local complex at every p-subgroup class."""
    locals_ = [brauer_complex(C, P) for P in C.group.lattice().p_class_reps(C.field.p)]
    for X in [C] + locals_:
        for i in X.degrees():
            assert list(homology_at(X, i).module.gen_mats) == per_generator_homology_action(X, i)


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_homology_action_in_one_solve(entry):
    assert_one_solve(entry.complex)


def test_homology_action_in_one_solve_off_endotrivial():
    for C in permutation_complexes():
        assert_one_solve(C)


# -- the report kept on a frozen complex -----------------------------------------


def test_report_is_made_once():
    C = copy_complex(build_entries("gamma-D8")[0].complex)
    assert endotrivial_report(C) is endotrivial_report(C)


def test_xi_after_report_builds_nothing(brauer_builds):
    C = copy_complex(build_entries("gamma-D8")[0].complex)
    rep = endotrivial_report(C)
    brauer_builds.clear()
    assert xi(C) is rep.xi
    assert brauer_builds == []


def test_differentials_are_read_only():
    C = build_entries("gamma-D8")[0].complex
    for i in range(C.lo + 1, C.hi + 1):
        with pytest.raises(ValueError):
            C.diff_at(i).matrix.a[0, 0] = 1


def test_complex_cannot_be_rebound():
    C = build_entries("gamma-D8")[0].complex
    for name in ("mods", "diffs", "lo", "_report"):
        with pytest.raises(AttributeError):
            setattr(C, name, getattr(C, name))
    with pytest.raises(TypeError):
        C.mods[0] = C.mods[1]
    with pytest.raises(TypeError):
        C.diffs[C.lo + 1] = C.diffs[C.lo + 2]


# -- the report's reading of the points against the local complexes --------------


def assert_reading_matches_local_complexes(C: BoundedComplex):
    """The report, read off the P-fixed points of C, gives the violations,
    h-marks and characters that the local complexes `brauer_complex`
    builds give; building them runs every local check (equivariance of
    each local differential and d(P)^2 = 0) as an oracle."""
    violations, entries = brauer_complex_reading(C)
    rep = endotrivial_report(copy_complex(C))
    assert rep.violations == violations
    assert (rep.xi is not None) == rep.ok == (not violations)
    if rep.ok:
        assert {cid: (e.h, list(e.character.values)) for cid, e in rep.xi.entries.items()} == entries


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_reading_matches_local_complexes_on_catalog(entry):
    for C in variants(entry.complex):
        assert_reading_matches_local_complexes(C)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None)
@given(st.sampled_from(TENSOR_POOL))
def test_reading_matches_local_complexes_on_tensor_products(pair):
    a, b = pair
    T = tensor_complex(a.complex, b.complex)
    assert_reading_matches_local_complexes(T)
    assert_reading_matches_local_complexes(zero_cone(T))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_reading_matches_local_complexes_on_cones_and_twists():
    """The cases of `test_trace_formula_on_catalog_local_complexes`: cones
    with local homology in two degrees, twists, and the permutation
    complexes twisted by every character."""
    for e in ENTRIES:
        chars = [ch for ch in all_characters(e.group, e.field) if not ch.is_trivial()]
        for C in [zero_cone(e.complex)] + [twist_complex(e.complex, ch) for ch in chars[:1]]:
            assert_reading_matches_local_complexes(C)
    for C in permutation_complexes():
        for ch in all_characters(C.group, C.field):
            assert_reading_matches_local_complexes(twist_complex(C, ch))


_RANDOM_GROUPS = [
    ("C2", 2), ("C4", 2), ("V4", 2), ("D8", 2), ("C6", 2), ("C3", 3), ("C6", 3), ("(0 1 2);(0 1)", 3),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_RANDOM_GROUPS), st.integers(0, 2**32 - 1))
def test_reading_matches_local_complexes_on_random_permutation_complexes(spec, seed):
    name, p = spec
    C = random_complex(np.random.default_rng(seed), group_from_spec(name), GF(p))
    assert_reading_matches_local_complexes(C)
    assert_reading_matches_local_complexes(shift(C, 1))


@pytest.mark.parametrize("build", ["gD8", "gD8xgD8", "trunc-C9"])
def test_report_builds_no_module_map_or_complex(monkeypatch, build):
    """The report reads C(P) off the points: it constructs no `KgModule`,
    no `ModuleMap` and no `BoundedComplex`, at P > 1 nor at P = 1."""
    g = build_entries("gamma-D8")[0].complex
    C = {"gD8": g, "gD8xgD8": tensor_complex(g, g), "trunc-C9": build_entries("trunc-C9")[0].complex}[build]
    C = copy_complex(C)
    made = []
    for cls, name in ((KgModule, "__init__"), (ModuleMap, "__post_init__"), (BoundedComplex, "__init__")):
        original = getattr(cls, name)

        def counting(self, *args, _original=original, **kwargs):
            made.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    assert endotrivial_report(C).ok
    assert made == []
