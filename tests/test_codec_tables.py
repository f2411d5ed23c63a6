"""The complex-file codec and the labeled-module constructors it calls, on
cached tables, against the walks they replaced (`codec_reference`).

Coset bases and generator permutations are kept once per subgroup and
shared read-only; characters derived from others take their values pointwise; the
writer indexes an object array of scalar strings.  Each must give what the
walks give, and `complex_from_obj` must make every check it made before.
"""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain.complexes import BoundedComplex, dual_complex, shift, tensor_complex, twist_complex
from permchain.constructions import abelian_generators, gamma_dihedral, truncated_periodic_resolution
from permchain.errors import IncompatibleHandles
from permchain.ffield import GF, FqScalar
from permchain.groups import catalog
from permchain.linalg import FqMatrix
from permchain.literals import complex_from_obj, complex_to_obj
from permchain.modules import (
    ModuleMap,
    all_characters,
    coset_basis,
    coset_list,
    direct_sum,
    perm_module,
    trivial_character,
    twist,
)

from codec_reference import (
    bfs_character_values,
    frobenius_inverse_values,
    map_complex_to_obj,
    reference_complex_from_obj,
    walk_coset_list,
    walk_perm_images,
    word_walk_values,
)
from module_reference import diff_at, frobenius_inverse_twist

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}  # F2 ... F9
GROUPS = ["C6", "A4", "D8", "Q8", "SD16", "CpxCp3", "C2", "V4"]


# -- coset bases ---------------------------------------------------------------


@pytest.mark.parametrize("name", GROUPS)
def test_coset_basis_matches_the_walk(name):
    G = catalog(name)
    for H in G.lattice().subgroups:
        walked = walk_coset_list(G, H)
        assert coset_list(G, H) == walked
        assert coset_basis(H).reps.tolist() == [c[0] for c in walked]
        M = perm_module(G, H, GF(2))
        assert [x.tolist() for x in M.perms] == walk_perm_images(G, H)
        assert M.dim == len(walked) and M.labels[0].indices == tuple(range(len(walked)))


def test_coset_permutations_are_read_only_and_shared_across_fields():
    G = catalog("D8")
    for H in G.lattice().subgroups:
        mods = [perm_module(G, H, GF(*FIELDS[q])) for q in (2, 4, 8)]
        for k, x in enumerate(mods[0].perms):
            assert all(M.perms[k] is x for M in mods)
            assert x is coset_basis(H).gen_perms[k]
            with pytest.raises(ValueError):
                x[0] = 0
        with pytest.raises(ValueError):
            coset_basis(H).reps[0] = 0


def test_perm_module_and_coset_list_reject_a_subgroup_of_another_group():
    """The order-2 subgroup of C4 once gave a 4-dimensional 'k[D8/H]'."""
    D8, C4 = catalog("D8"), catalog("C4")
    H = [K for K in C4.lattice().subgroups if K.order == 2][0]
    with pytest.raises(IncompatibleHandles):
        perm_module(D8, H, GF(2))
    with pytest.raises(IncompatibleHandles):
        coset_list(D8, H)


def test_direct_sum_labels_hold_python_ints():
    G = catalog("D8")
    parts = [perm_module(G, H, GF(2)) for H in G.lattice().subgroups]
    M = direct_sum(parts)
    assert all(type(i) is int for s in M.labels for i in s.indices)
    assert [s.indices[0] for s in M.labels] == np.cumsum([0] + [m.dim for m in parts[:-1]]).tolist()


# -- characters ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["C6", "A4", "D8"])
@pytest.mark.parametrize("q", [4, 9])
def test_derived_characters_match_the_word_walk(name, q):
    G, fld = catalog(name), GF(*FIELDS[q])
    chars = all_characters(G, fld)
    assert [c.values for c in chars] == bfs_character_values(G, fld)

    def walked(c, values):
        assert c.values == tuple(values)
        assert c._elem_values == word_walk_values(G, fld, values)

    walked(trivial_character(G, fld), [1] * len(G.generators))
    for a in chars:
        walked(a, a.values)
        walked(a.inverse(), [int(fld.inv[v]) for v in a.values])
        walked(frobenius_inverse_twist(a), frobenius_inverse_values(fld, a.values))
        for k in (-2, 0, 3):
            walked(a ** k, [(FqScalar(fld, v) ** k).code for v in a.values])
        for b in chars:
            walked(a * b, [int(fld.mul[x, y]) for x, y in zip(a.values, b.values)])


@pytest.mark.parametrize("name, q", [("CpxCp3", 9), ("V4", 3), ("C6", 7), ("A4", 4), ("Q8", 5)])
def test_all_characters_match_the_breadth_first_check(name, q):
    G, fld = catalog(name), GF(*FIELDS[q])
    assert [c.values for c in all_characters(G, fld)] == bfs_character_values(G, fld)


# -- complex files ---------------------------------------------------------------


def _scaled_identity(G, fld, code):
    """M -> M, x -> c x, on a sum of twisted permutation modules of G."""
    chars = all_characters(G, fld)
    M = direct_sum(
        [twist(perm_module(G, H, fld), chars[k % len(chars)]) for k, H in enumerate(G.lattice().class_reps)]
    )
    return BoundedComplex(G, fld, 0, [M, M], {1: FqMatrix(fld, np.eye(M.dim, dtype=np.int16) * code)})


@lru_cache(maxsize=None)
def base_complexes(q):
    """Catalog complexes over F_q, and the scaled identity of C6 and C4."""
    fld = GF(*FIELDS[q])
    out = [_scaled_identity(catalog("C6"), fld, fld.q - 1), _scaled_identity(catalog("C4"), fld, 1)]
    if fld.p == 2:
        out += [gamma_dihedral(3, fld), truncated_periodic_resolution(catalog("C4"), fld)]
    else:
        out.append(truncated_periodic_resolution(catalog(f"C{fld.p}"), fld))
    if fld.p in (2, 3):
        out += [e.complex for e in abelian_generators(catalog("C6"), fld)]
    return tuple(out)


@st.composite
def derived_complexes(draw):
    """A catalog complex, tensored with another of its group at most once,
    then dualized, shifted or twisted by a character."""
    q = draw(st.sampled_from(sorted(FIELDS)), label="q")
    bases = base_complexes(q)
    C = draw(st.sampled_from(bases))
    if draw(st.booleans()):
        C = tensor_complex(C, draw(st.sampled_from([D for D in bases if D.group is C.group])))
    for op in draw(st.lists(st.sampled_from(["dual", "shift", "twist"]), max_size=2)):
        if op == "dual":
            C = dual_complex(C)
        elif op == "shift":
            C = shift(C, draw(st.integers(-2, 2)))
        else:
            C = twist_complex(C, draw(st.sampled_from(all_characters(C.group, C.field))))
    return C


@settings(max_examples=40, deadline=None)
@given(derived_complexes())
def test_complex_files_match_the_reference_codec(C):
    obj = complex_to_obj(C)
    assert obj == map_complex_to_obj(C)
    obj = json.loads(json.dumps(obj))
    D = complex_from_obj(obj)
    mods, diffs = reference_complex_from_obj(obj)
    assert sorted(mods) == list(D.degrees())
    for d, ref in mods.items():
        M = D.module_at(d)
        assert all(np.array_equal(x, y) for x, y in zip(M.perms, ref.perms))
        assert all(np.array_equal(c, t) for c, t in zip(M.twists, ref.twists))
        assert [(s.character.values, s.subgroup, s.indices) for s in M.labels] == ref.labels
        for s in M.labels:
            assert s.character._elem_values == word_walk_values(D.group, D.field, s.character.values)
    assert sorted(diffs) == [i for i in D.degrees() if i - 1 in D.degrees()]
    for i, a in diffs.items():
        assert np.array_equal(diff_at(D, i).matrix.a, a)


def test_reading_a_file_makes_every_check_it_made(linalg_calls, monkeypatch):
    """gamma-D8 (x) gamma-D8 over F2: its three d^2 = 0 products and its four
    commutation checks, the counts the reader made before it read tables."""
    g = gamma_dihedral(3, GF(2))
    obj = json.loads(json.dumps(complex_to_obj(tensor_complex(g, g))))
    maps = []
    check = ModuleMap.__post_init__
    monkeypatch.setattr(ModuleMap, "__post_init__", lambda self: maps.append(check(self)))
    linalg_calls.update(rref=0, matmul=0)
    D = complex_from_obj(obj)
    assert D.dims() == {0: 1, 1: 16, 2: 80, 3: 128, 4: 64}
    assert linalg_calls == {"rref": 0, "matmul": 3}
    assert len(maps) == 4
