"""The group layer against the computations it replaced.

Multiplication tables are read off the images of a base; subgroups are
bitmasks, found by extending one subgroup per conjugacy class once per
right coset; the subgroup some elements generate is the first one, by
order, whose mask holds theirs; mu comes from one pass over the comparable
pairs of a poset, column by column; normalizers come from the kept
generators and the centre from the symmetric rows of the table, marks
from counting conjugates inside each subgroup, the inverse mark table from
the idempotents, units by meeting in the middle over the sign vectors,
class names from a memo on the lattice.
Each is compared here with the direct computation in `helpers`: a dict
lookup of every product's image tuple, pairwise closure and every
subgroup extended by every cyclic subgroup, the defining recursion of mu
and the inverse of the zeta matrix, conjugation or commutation of every
element, counting fixed cosets, Gauss-Jordan elimination over Fractions,
every sign vector and a fresh name per call.  N_G(P)/P, the quotient of
a section of G built from G's tables, is compared with the normalizer made
a group of its own and quotiented there (`module_reference`).
The groups are every catalog group up to order 64, plus S4, A5 (the one
non-solvable group), C2^4 and C2^5; the tables also S5 and C2^8 on 308
points, the lattice and N_G(P)/P also groups on at most 7 points.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from permchain.burnside import MAX_UNIT_SEARCH_CLASSES, burnside_units, idempotent, mark_table
from permchain.errors import GroupTooLarge, TooManyClasses
from permchain.groups import (
    FiniteGroup,
    Subgroup,
    catalog,
    class_name,
    group_from_spec,
    minimal_generators,
    mobius_columns,
    mobius_of_poset,
)
from permchain.modules import local_quotient

from helpers import (
    coset_count_mark_table,
    elementwise_centralizer,
    elementwise_normalizer,
    every_cyclic_extension_lattice,
    exhaustive_units,
    inverse_zeta_columns,
    pairwise_closure,
    pairwise_minimal_generators,
    pairwise_subgroup_sets,
    percall_class_name,
    rational_inverse,
    recursive_mobius,
    tuple_lookup_tables,
)
from module_reference import normalizer_group_quotient

CATALOG = (
    [f"C{n}" for n in range(1, 65)]
    + ["V4", "A4"]
    + [f"CpxCp{p}" for p in (2, 3, 5, 7)]
    + [f"D{2 ** k}" for k in range(2, 7)]
    + [f"Q{2 ** k}" for k in range(3, 7)]
    + [f"SD{2 ** k}" for k in range(4, 7)]
)


def _elementary_abelian(r: int) -> str:
    return ";".join(f"({2 * i} {2 * i + 1})" for i in range(r))


SPECS = {name: name for name in CATALOG}
SPECS.update(
    {
        "S4": "(0 1 2 3);(0 1)",
        "A5": "(0 1 2 3 4);(0 1 2)",
        "C2^4": _elementary_abelian(4),
        "C2^5": _elementary_abelian(5),
    }
)
S5 = "(0 1 2 3 4);(0 1)"
NAMES = list(SPECS)


def _group(name):
    return group_from_spec(SPECS[name])


# C2^8 moving the points 0-7 and 300-307: 308^8 is about 2^66, so keys in
# mixed radix over the whole degree would overflow int64
WIDE_C2_8 = ";".join(f"({i} {300 + i})" for i in range(8))


@pytest.mark.parametrize("spec", [SPECS[n] for n in NAMES] + [S5, WIDE_C2_8])
def test_tables_match_tuple_lookup(spec):
    G = group_from_spec(spec)
    mul, inv = tuple_lookup_tables(G.elements, G.identity)
    assert G.mul_table.dtype == mul.dtype and G.inv_table.dtype == inv.dtype
    assert np.array_equal(G.mul_table, mul)
    assert np.array_equal(G.inv_table, inv)


def test_tables_of_the_trivial_group():
    for gens in ([(0,)], [(0, 1, 2)]):
        G = FiniteGroup(gens)
        assert G.mul_table.tolist() == [[0]] and G.inv_table.tolist() == [0]


def _primes(n: int) -> list:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))] or [2]


@pytest.mark.parametrize("name", NAMES)
def test_lattice_matches_pairwise_closure(name):
    G = _group(name)
    L = G.lattice()
    assert [H.elemset for H in L.subgroups] == pairwise_subgroup_sets(G)
    for i, H in enumerate(L.subgroups):
        assert H.index == i
        assert pairwise_closure(G, set(H.gens)) == H.elemset
    for H in L.class_reps:
        assert minimal_generators(H) == pairwise_minimal_generators(G, H.elems)
    if len(L.class_reps) <= 20:
        for A in L.class_reps:
            for B in L.class_reps:
                assert L.join(A, B).elemset == pairwise_closure(G, A.elemset | B.elemset)


def _assert_lattice_matches_every_cyclic_extension(G):
    """Masks in the same order, the same classes, class ids, normality and
    conjugating elements as the reference search, each X = c rep c^{-1}
    for its c = conj_to_rep, and each `gens` generating its subgroup."""
    L, ref = G.lattice(), every_cyclic_extension_lattice(G)
    assert [H.mask for H in L.subgroups] == ref.masks
    assert L.classes == ref.classes
    assert [H.class_id for H in L.subgroups] == ref.class_id
    assert [H.is_normal for H in L.subgroups] == ref.is_normal
    assert [H.conj_to_rep for H in L.subgroups] == ref.conj_to_rep
    table = G.mul_table.tolist()
    for H in L.subgroups:
        rep, c = L.rep_of(H), H.conj_to_rep
        assert frozenset(G.conj(c, x) for x in rep.elems) == H.elemset
        assert pairwise_closure(G, set(H.gens), table) == H.elemset


@pytest.mark.parametrize("spec", [SPECS[n] for n in NAMES] + [S5])
def test_lattice_matches_every_cyclic_extension(spec):
    _assert_lattice_matches_every_cyclic_extension(group_from_spec(spec))


def _perm(points):
    return st.permutations(list(range(points))).map(tuple)


@st.composite
def _small_perm_groups(draw, max_order=168):
    """A group generated by one to three permutations of at most 7 points,
    of order at most `max_order`; A5, S5 and GL(3,2) are among them."""
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(_perm(degree), min_size=1, max_size=3))
    try:
        return FiniteGroup(gens, max_order=max_order)
    except GroupTooLarge:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_small_perm_groups())
@example(FiniteGroup([(1, 2, 3, 4, 5, 6, 0), (0, 1, 3, 2, 6, 5, 4)]))  # GL(3,2), order 168
@example(FiniteGroup([(1, 2, 3, 4, 0, 5), (5, 4, 2, 3, 1, 0)]))  # PSL(2,5) = A5 on 6 points
def test_lattice_matches_every_cyclic_extension_on_small_perm_groups(G):
    _assert_lattice_matches_every_cyclic_extension(G)
    _assert_lookups_match_closure_and_recursion(G)


def _assert_lookups_match_closure_and_recursion(G):
    """Generation by the first subgroup whose mask holds the seed, against
    pairwise closure; mu on the whole lattice and on every normal
    p-subgroup poset against the recursion."""
    L = G.lattice()
    table = G.mul_table.tolist()
    for x in range(G.order):
        assert L.generated_by([x]).elemset == pairwise_closure(G, {x}, table)
    for A in L.class_reps:
        for g in G.gen_indices:
            assert L.generated_by(A.gens + (g,)).elemset == pairwise_closure(G, set(A.gens) | {g}, table)
        assert minimal_generators(A) == pairwise_minimal_generators(G, A.elems)
        if len(L.class_reps) <= 20:
            for B in L.class_reps:
                assert L.join(A, B).elemset == pairwise_closure(G, A.elemset | B.elemset, table)
    comms = {G.mul(G.mul(x, y), G.inv(G.mul(y, x))) for x in range(G.order) for y in range(G.order)}
    assert G.commutator_subgroup_elems() == pairwise_closure(G, comms, table)
    assert _same_columns([L.mobius_column(B) for B in L.subgroups], _recursion_columns(L.subgroups))
    for p in _primes(G.order):
        poset = L.normal_p_subgroups(p)
        assert _same_columns(mobius_columns(poset), _recursion_columns(poset))


def test_subgroups_hold_no_element_sets():
    """Membership is the mask; `elemset` is worked out from `elems`."""
    G = group_from_spec(S5)
    assert "elemset" not in Subgroup.__slots__
    for H in G.lattice().subgroups:
        assert H.elemset == frozenset(H.elems)
        assert [x for x in range(G.order) if H.mask >> x & 1] == list(H.elems)


def _recursion_columns(poset) -> list:
    """The recursion on every comparable pair, listed as `mobius_columns`
    lists them: per B, the A <= B by increasing place in `poset`."""
    cache = {}
    return [{a: recursive_mobius(poset, A, B, cache) for a, A in enumerate(poset) if B.contains(A)} for B in poset]


def _same_columns(got, want) -> bool:
    """Equal keys in the same order, equal values, all of them ints."""
    return [list(c.items()) for c in got] == [list(c.items()) for c in want] and all(
        type(v) is int for c in got for v in c.values()
    )


@pytest.mark.parametrize("name", NAMES)
def test_mobius_matrix_matches_recursion(name):
    """mu on every comparable pair, and nothing on the others, as the
    recursion and the inverse zeta matrix give it."""
    G = _group(name)
    L = G.lattice()
    whole = mobius_columns(L.subgroups)
    assert _same_columns(whole, _recursion_columns(L.subgroups))
    assert _same_columns(whole, inverse_zeta_columns(L.subgroups))
    for A in L.subgroups[:3]:
        for B in L.subgroups:
            if B.contains(A):
                assert L.mobius_column(B)[A.index] == whole[B.index][A.index]
    for p in _primes(G.order):
        poset = L.normal_p_subgroups(p)
        cols = mobius_columns(poset)
        if poset == L.subgroups:
            assert cols == whole
        else:
            assert _same_columns(cols, _recursion_columns(poset))
        assert mobius_of_poset(poset, poset[0], poset[-1]) == cols[-1][0]


@pytest.mark.parametrize("r", range(1, 6))
def test_mobius_on_elementary_abelian_is_halls(r):
    """P. Hall: mu(A, B) = (-1)^k 2^(k(k-1)/2) on C2^r, with |B:A| = 2^k."""
    L = group_from_spec(_elementary_abelian(r)).lattice()
    hall = []
    for B in L.subgroups:
        col = {}
        for A in L.subgroups:
            if B.contains(A):
                k = (B.order // A.order).bit_length() - 1
                col[A.index] = (-1) ** k * 2 ** (k * (k - 1) // 2)
        hall.append(col)
    assert _same_columns(mobius_columns(L.subgroups), hall)
    assert L.mobius_column(L.full)[L.trivial.index] == hall[-1][0]


def _inverse_from_idempotents(G):
    """The stacked idempotents as (numerators, denominator): column j holds
    the coefficients of e_H for the j-th class."""
    cols = [idempotent(G, H).coeffs for H in G.lattice().class_reps]
    den = math.lcm(*(x.denominator for col in cols for x in col))
    num = [[x.numerator * (den // x.denominator) for x in col] for col in cols]
    return np.array(num, dtype=np.int64).T, den


@pytest.mark.parametrize("name", [n for n in NAMES if n != "C2^5"])
def test_idempotents_are_the_inverse_mark_table(name):
    G = _group(name)
    tbl = mark_table(G)
    num, den = _inverse_from_idempotents(G)
    assert np.array_equal(tbl @ num, den * np.eye(len(tbl), dtype=np.int64))
    onum, oden = rational_inverse(tbl)
    for i in range(len(tbl)):
        for j in range(len(tbl)):
            assert Fraction(int(num[i, j]), den) == Fraction(int(onum[i, j]), oden)


def test_idempotents_invert_the_marks_of_c2_5():
    """On an abelian group |(G/H)^K| is |G:H| when K <= H and 0 otherwise;
    the 374 x 374 table of C2^5 is formed that way, not counted."""
    G = _group("C2^5")
    reps = G.lattice().class_reps
    tbl = np.array(
        [[G.order // H.order if H.contains(K) else 0 for H in reps] for K in reps], dtype=np.int64
    )
    num, den = _inverse_from_idempotents(G)
    assert np.abs(num).max() * tbl.max() * len(reps) < 2 ** 62
    assert np.array_equal(tbl @ num, den * np.eye(len(reps), dtype=np.int64))


@pytest.mark.parametrize("name", NAMES)
def test_normalizers_match_elementwise_conjugation(name):
    """Conjugating H's kept generators decides membership in N_G(H)."""
    L = _group(name).lattice()
    for H in L.subgroups:
        assert L.normalizer(H).elemset == elementwise_normalizer(L, H)


@pytest.mark.parametrize("name", NAMES)
def test_centralizers_match_elementwise_commutation(name):
    """C_G(H), by comparing g x with x g elementwise, is a subgroup the
    lattice holds, inside N_G(H); C_G(G) is the centre."""
    L = _group(name).lattice()
    for H in L.subgroups:
        C = L.subgroup(elementwise_centralizer(L, H))
        assert L.normalizer(H).contains(C)
    assert L.subgroup(elementwise_centralizer(L, L.full)) == L.center()


@pytest.mark.parametrize("name", ["D64", "C2^4"])
def test_masks_are_the_element_sets(name):
    L = _group(name).lattice()
    for H in L.subgroups:
        assert H.mask == sum(1 << x for x in H.elems)
        assert L.subgroup(H.elems) is H
    for A in L.subgroups:
        for B in L.subgroups:
            assert B.contains(A) == (A.elemset <= B.elemset)


@pytest.mark.parametrize("name", NAMES)
def test_mark_table_matches_coset_counts(name):
    G = _group(name)
    assert np.array_equal(mark_table(G), coset_count_mark_table(G))


@pytest.mark.parametrize("spec", [SPECS[n] for n in NAMES] + [S5])
def test_units_match_exhaustive_sign_search(spec):
    """Every group within the class bound; the others are refused."""
    G = group_from_spec(spec)
    if len(G.lattice().class_reps) > MAX_UNIT_SEARCH_CLASSES:
        with pytest.raises(TooManyClasses):
            burnside_units(G)
    else:
        assert [u.coeffs for u in burnside_units(G)] == exhaustive_units(G)


def test_units_with_one_and_two_classes():
    """c = 1 leaves the first half of the sign positions empty."""
    C1, C2 = _group("C1"), _group("C2")
    assert len(C1.lattice().class_reps) == 1 and len(C2.lattice().class_reps) == 2
    assert [u.coeffs for u in burnside_units(C1)] == [(-1,), (1,)] == exhaustive_units(C1)
    units = [(-1, 1), (0, -1), (0, 1), (1, -1)]  # +-1 and +-(1 - [C2/1])
    assert [u.coeffs for u in burnside_units(C2)] == units == exhaustive_units(C2)


@pytest.mark.parametrize("name", NAMES)
def test_class_names_match_percall_names(name):
    L = _group(name).lattice()
    for H in L.subgroups:
        assert class_name(L, H) == percall_class_name(L, H)
    assert len(L._class_names) == len(L.class_reps)


def test_class_names_are_kept_on_the_lattice():
    L = catalog("D8").lattice()
    first = [class_name(L, H) for H in L.class_reps]
    assert L._class_names == dict(enumerate(first))
    assert [class_name(L, H) for H in L.class_reps] == first
    assert L.center() is L.center()


# -- N_G(P)/P ----------------------------------------------------------------------


def _assert_local_quotients_match_normalizer_groups(G):
    """At every p-subgroup class, p = 2 and 3: the same generators, names,
    elements, projection on N_G(P) and generator lifts; no image off
    N_G(P), each lift in its coset, and G itself exactly at P = 1."""
    L = G.lattice()
    for p in (2, 3):
        for P in L.p_class_reps(p):
            q, ref = local_quotient(P), normalizer_group_quotient(P)
            N = L.normalizer(P)
            assert q.group.generators == ref.group.generators
            assert q.group.gen_names == ref.group.gen_names
            assert q.group.elements == ref.group.elements
            assert {x: q.project(x) for x in N.elems} == ref.project
            assert q.generator_lifts() == ref.generator_lifts
            assert [x for x in range(G.order) if q.project(x) < 0] == sorted(set(range(G.order)) - N.elemset)
            assert all(q.project(q.lift(i)) == i for i in range(q.group.order))
            assert (q.group is G) == (P.order == 1)


@pytest.mark.parametrize("name", NAMES)
def test_local_quotients_match_normalizer_groups(name):
    _assert_local_quotients_match_normalizer_groups(_group(name))


@settings(max_examples=40, deadline=None)
@given(_small_perm_groups())
def test_local_quotients_match_normalizer_groups_on_small_perm_groups(G):
    _assert_local_quotients_match_normalizer_groups(G)
