import json
import subprocess
import sys
import tracemalloc

import pytest

from permchain import groups
from permchain.errors import (
    GroupTooLarge,
    NotComparable,
    NotNormal,
    PermchainError,
    UnknownCatalogName,
)
from permchain.groups import (
    MAX_LATTICE_SUBGROUPS,
    FiniteGroup,
    catalog,
    class_name,
    enumerate_subgroups,
    group_from_spec,
    is_p_power,
    mobius_columns,
    mobius_of_poset,
    p_subgroups,
    perm_from_cycles,
    perm_to_cycles,
    pmul,
    quotient,
)

from helpers import oracle_mobius, oracle_subgroup_sets, pinv


def _elems_by_words(G, words):
    return frozenset(G.element_by_word(w) for w in words)


# -- catalog presentations ----------------------------------------------------


def test_d8_presentation():
    G = catalog("D8")
    a = G.element_by_word("a")
    b = G.element_by_word("b")
    assert G.order == 8
    assert G.element_order(a) == 4 and G.element_order(b) == 2
    # b a b^{-1} = a^{-1}
    assert G.conj(b, a) == G.inv(a)


def test_q8_presentation():
    G = catalog("Q8")
    a = G.element_by_word("a")
    b = G.element_by_word("b")
    assert G.order == 8
    assert G.element_order(a) == 4
    assert G.mul(b, b) == G.mul(a, a)  # b^2 = a^2
    assert G.conj(b, a) == G.inv(a)


def test_sd16_presentation():
    G = catalog("SD16")
    a = G.element_by_word("a")
    b = G.element_by_word("b")
    assert G.order == 16
    assert G.element_order(a) == 8 and G.element_order(b) == 2
    a3 = G.element_by_word("a^3")
    assert G.conj(b, a) == a3


def test_a4_and_abelian_catalog():
    assert catalog("A4").order == 12
    assert catalog("V4").order == 4 and catalog("V4").is_abelian()
    assert catalog("CpxCp3").order == 9
    assert catalog("C9").is_cyclic()
    with pytest.raises(UnknownCatalogName):
        catalog("S4")
    with pytest.raises(UnknownCatalogName):
        catalog("D6")
    with pytest.raises(UnknownCatalogName):
        catalog("SD8")


def test_custom_group_spec():
    G = group_from_spec("(0 1 2 3);(1 3)")
    assert G.order == 8
    assert G.catalog_name is None


def test_group_too_large():
    big = tuple((i + 1) % 600 for i in range(600))
    with pytest.raises(GroupTooLarge):
        FiniteGroup([big], max_order=500)


# -- subgroup lattice ----------------------------------------------------------


def test_cp_two_subgroups():
    for name in ("C3", "C5"):
        L = enumerate_subgroups(catalog(name))
        assert len(L.subgroups) == 2
        assert len(L.classes) == 2


def test_d8_lattice_matches_hand_enumeration():
    G = catalog("D8")
    L = enumerate_subgroups(G)
    hand = [
        ["1"],
        ["1", "a^2"],
        ["1", "b"],
        ["1", "a^2*b"],
        ["1", "a*b"],
        ["1", "a^3*b"],
        ["1", "a", "a^2", "a^3"],
        ["1", "a^2", "b", "a^2*b"],
        ["1", "a^2", "a*b", "a^3*b"],
        ["1", "a", "a^2", "a^3", "b", "a*b", "a^2*b", "a^3*b"],
    ]
    expected = {_elems_by_words(G, ws) for ws in hand}
    assert {H.elemset for H in L.subgroups} == expected
    assert len(L.subgroups) == 10
    assert len(L.classes) == 8
    # also cross-check with the independent pairwise-closure oracle
    oracle = oracle_subgroup_sets(G)
    got = {frozenset(G.elements[i] for i in H.elems) for H in L.subgroups}
    assert got == oracle


def test_q8_lattice():
    G = catalog("Q8")
    L = enumerate_subgroups(G)
    assert len(L.subgroups) == 6
    assert all(H.is_normal for H in L.subgroups)
    oracle = oracle_subgroup_sets(G)
    got = {frozenset(G.elements[i] for i in H.elems) for H in L.subgroups}
    assert got == oracle


def test_a4_lattice():
    G = catalog("A4")
    L = enumerate_subgroups(G)
    assert len(L.subgroups) == 10
    assert len(L.classes) == 5
    oracle = oracle_subgroup_sets(G)
    got = {frozenset(G.elements[i] for i in H.elems) for H in L.subgroups}
    assert got == oracle


def test_lagrange_and_class_reps():
    for name in ("D8", "Q8", "A4", "SD16"):
        G = catalog(name)
        L = enumerate_subgroups(G)
        for H in L.subgroups:
            assert G.order % H.order == 0
        for members in L.classes:
            sets = [L.subgroups[i].elems for i in members]
            assert min(sets) == sets[0]  # representative is lexicographic least
        # conjugates lie in one class and conjugation preserves order
        for H in L.subgroups:
            rep = L.rep_of(H)
            assert rep.order == H.order
            c = H.conj_to_rep
            moved = frozenset(G.conj(c, x) for x in rep.elems)
            assert moved == H.elemset


def test_p_subgroups():
    L8 = enumerate_subgroups(catalog("D8"))
    assert len(p_subgroups(L8, 2)) == 8
    LA = enumerate_subgroups(catalog("A4"))
    assert [P.order for P in p_subgroups(LA, 2)] == [1, 2, 4]
    LC = enumerate_subgroups(catalog("C3"))
    assert [P.order for P in p_subgroups(LC, 2)] == [1]
    with pytest.raises(PermchainError):
        p_subgroups(L8, 4)


def test_normalizer_against_bruteforce():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    N = L.normalizer(Hb)
    # independent brute force on raw permutations
    belems = {G.elements[x] for x in Hb.elems}
    manual = set()
    for g in G.elements:
        if {pmul(pmul(g, h), pinv(g)) for h in belems} == belems:
            manual.add(g)
    assert {G.elements[x] for x in N.elems} == manual
    assert N.elemset == _elems_by_words(G, ["1", "a^2", "b", "a^2*b"])
    assert N.order == 4


def test_generated_by_refuses_an_index_outside_the_group():
    L = catalog("D8").lattice()
    for bad in ([8], [0, 8], [-1]):
        with pytest.raises(PermchainError, match="element set is not a subgroup"):
            L.generated_by(bad)
        with pytest.raises(PermchainError, match="element set is not a subgroup"):
            L.subgroup(bad)


def test_quotient_sd16_by_center_is_d8():
    G = catalog("SD16")
    L = G.lattice()
    Z = L.generated_by([G.element_by_word("a^4")])
    assert Z.order == 2 and Z.is_normal
    q = quotient(G, Z)
    Q = q.group
    assert Q.order == 8
    assert not Q.is_abelian()
    involutions = sum(1 for i in range(Q.order) if Q.element_order(i) == 2)
    assert involutions == 5  # dihedral signature; quaternion would have 1
    # projection is a homomorphism
    for x in range(G.order):
        for y in range(G.order):
            assert q.project(G.mul(x, y)) == Q.mul(q.project(x), q.project(y))


def test_quotient_sd16_by_c8():
    G = catalog("SD16")
    L = G.lattice()
    A = L.generated_by([G.element_by_word("a")])
    q = quotient(G, A)
    assert q.group.order == 2


def test_quotient_not_normal():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    assert not Hb.is_normal
    with pytest.raises(NotNormal):
        quotient(G, Hb)


# -- Mobius ----------------------------------------------------------------------


def test_mobius_two_element_chain():
    for name in ("C2", "C3", "C5"):
        L = enumerate_subgroups(catalog(name))
        assert L.mobius_column(L.full)[L.trivial.index] == -1
        assert L.mobius_column(L.full)[L.full.index] == 1


def test_mobius_v4():
    G = catalog("V4")
    L = enumerate_subgroups(G)
    assert len(L.subgroups) == 5
    assert L.mobius_column(L.full)[L.trivial.index] == 2
    # independent recursion on raw element sets
    sets = [frozenset(H.elems) for H in L.subgroups]
    assert oracle_mobius(sets, frozenset(L.trivial.elems), frozenset(L.full.elems)) == 2


def test_mobius_sum_rule():
    L = enumerate_subgroups(catalog("D8"))
    for A in L.subgroups:
        for B in L.subgroups:
            if B.contains(A) and A.order < B.order:
                total = sum(
                    L.mobius_column(C)[A.index]
                    for C in L.subgroups
                    if C.contains(A) and B.contains(C)
                )
                assert total == 0


def test_mobius_not_comparable():
    G = catalog("V4")
    L = enumerate_subgroups(G)
    H1 = L.generated_by([G.element_by_word("a")])
    H2 = L.generated_by([G.element_by_word("b")])
    with pytest.raises(NotComparable):
        mobius_of_poset(L.subgroups, H1, H2)


def test_mobius_on_c2_6_allocates_nothing_quadratic():
    """mu over the 2,825 normal 2-subgroups of C2^6 keeps one value per
    comparable pair (95,706 of them); an n x n int64 array alone would
    take 64 MB."""
    L = group_from_spec(";".join(f"({2 * i} {2 * i + 1})" for i in range(6))).lattice()
    poset = L.normal_p_subgroups(2)
    assert len(poset) == 2825
    tracemalloc.start()
    try:
        cols = mobius_columns(poset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert sum(map(len, cols)) == 95706
    assert cols[-1][0] == 2**15  # Hall: (-1)^6 2^(6*5/2)


def test_mobius_on_subposet():
    # SD16 is a 2-group: every normal subgroup is a normal 2-subgroup
    G = catalog("SD16")
    L = G.lattice()
    poset = L.normal_p_subgroups(2)
    assert [P.order for P in poset] == [1, 2, 4, 8, 8, 8, 16]
    Z = poset[1]
    C4 = poset[2]
    assert mobius_of_poset(poset, poset[0], Z) == -1
    # only 1 < Z < C4 in the restricted poset, so the chain sums to zero
    assert mobius_of_poset(poset, poset[0], C4) == 0
    # the sum rule holds across the whole sub-poset
    for A in poset:
        for B in poset:
            if B.contains(A) and A.order < B.order:
                total = sum(
                    mobius_of_poset(poset, A, C)
                    for C in poset
                    if C.contains(A) and B.contains(C)
                )
                assert total == 0


# -- words and cycle notation ------------------------------------------------------


def test_word_roundtrip():
    G = catalog("SD16")
    for i in range(G.order):
        assert G.element_by_word(G.word_str(i)) == i


def test_cycle_notation_roundtrip():
    p = perm_from_cycles("(0 1 2 3)(4 5)")
    assert perm_from_cycles(perm_to_cycles(p), 6) == p
    assert perm_to_cycles(tuple(range(4))) == "()"
    with pytest.raises(PermchainError):
        perm_from_cycles("(0 1)(1 2)")
    with pytest.raises(PermchainError):
        perm_from_cycles("junk")


def test_class_names():
    G = catalog("D8")
    L = G.lattice()
    names = [class_name(L, H) for H in L.class_reps]
    assert "1" in names and "G" in names and "Z" in names
    assert len(set(names)) == len(names)


def test_commutators_and_abelianization():
    G = catalog("D8")
    assert G.abelianization_order() == 4
    assert catalog("A4").abelianization_order() == 3
    assert catalog("C9").abelianization_order() == 9


@pytest.mark.parametrize(
    "n, p, want",
    [(8, 2, True), (1, 3, True), (12, 2, False), (16, 4, True),
     (1, 0, True), (8, 0, False), (8, -2, False)],
)
def test_is_p_power(n, p, want):
    """Only 1 is a power of a p below 2; p = 0 must not divide by zero."""
    assert is_p_power(n, p) is want


# The lattice of C2^7 (29,212 subgroups) once took 68.9 s and 708 MB, and
# group-info wrote 269 MB of JSON.  The child runs under a 2 GiB address
# space limit, so that a regression fails here instead of filling memory.
_CAPPED_LATTICE = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from permchain.cli import main
start = time.perf_counter()
code = main(["group-info", sys.argv[1]])
print(json.dumps({"code": code, "s": time.perf_counter() - start}))
"""


@pytest.mark.parametrize("r", [7, 8])
def test_lattice_is_capped(r):
    """In a fresh interpreter with a time limit: group-info on C2^r stops
    early with the cap in its message."""
    spec = ";".join(f"({2 * i} {2 * i + 1})" for i in range(r))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_LATTICE, spec], capture_output=True, text=True, timeout=60
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["code"] == 2
    assert proc.stderr == f"error: subgroup lattice exceeds the bound of {MAX_LATTICE_SUBGROUPS} subgroups\n"
    assert got["s"] < 5.0


def test_lattice_cap_counts_every_subgroup(monkeypatch):
    """A cap of n admits a lattice of n subgroups and refuses one more,
    whether the extra one is a new class (C4: 1 < C2 < C4) or a conjugate
    found in a class walk (the third subgroup of order 2 in S3)."""
    monkeypatch.setattr(groups, "MAX_LATTICE_SUBGROUPS", 3)
    assert len(group_from_spec("(0 1 2 3)").lattice().subgroups) == 3
    with pytest.raises(GroupTooLarge, match="bound of 3 subgroups"):
        group_from_spec("(0 1 2 3 4)(5 6)").lattice()
    with pytest.raises(GroupTooLarge, match="bound of 3 subgroups"):
        group_from_spec("(0 1 2);(0 1)").lattice()


def test_is_p_power_ends_at_p_one():
    """In a fresh interpreter with a time limit: dividing out p = 1 once
    looped forever, and a hang must fail the test, not stop the suite."""
    code = "from permchain.groups import is_p_power; print(is_p_power(8, 1), is_p_power(1, 1))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False True\n"
