import pytest

from permchain.complexes import (
    dual_complex,
    homology_dims,
    is_endotrivial,
    tensor_complex,
    xi,
)
from permchain.constructions import (
    a4_frobenius_example,
    abelian_generators,
    build_entries,
    catalog_names,
    entry_gamma_semidihedral,
    gamma_dihedral,
    gamma_semidihedral,
    truncated_periodic_resolution,
)
from permchain.errors import BadIndex, NotAbelian, NotPRankOne, UnknownCatalogName
from permchain.ffield import GF
from permchain.groups import catalog
from permchain.invariants import lefschetz
from permchain.burnside import marks
from permchain.modules import trivial_module

F2 = GF(2)
F3 = GF(3)

SMALL = [
    "trunc-C2",
    "trunc-C4",
    "trunc-C8",
    "trunc-C9",
    "trunc-Q8",
    "gamma-D8",
    "gamma-D16",
    "abelian-V4",
    "abelian-C6",
    "abelian-CpxCp3",
]


@pytest.mark.parametrize("name", SMALL)
def test_small_entries_verify(name):
    for e in build_entries(name):
        rep, _ = e.verify()
        assert rep["endotrivial"]
        assert rep.get("matches_expected", True)


def test_truncation_shapes():
    c2 = build_entries("trunc-C2")[0].complex
    assert c2.dims() == {0: 1, 1: 2}
    c4 = build_entries("trunc-C4")[0].complex
    assert c4.dims() == {0: 1, 1: 4, 2: 4}
    c9 = build_entries("trunc-C9")[0].complex
    assert c9.dims() == {0: 1, 1: 9, 2: 9}
    q8 = build_entries("trunc-Q8")[0].complex
    assert q8.dims() == {0: 1, 1: 8, 2: 16, 3: 16, 4: 8}  # free ranks 1,2,2,1


def test_truncation_requires_p_rank_one():
    with pytest.raises(NotPRankOne):
        truncated_periodic_resolution(catalog("V4"), F2)


def test_gamma_dihedral_values():
    C = build_entries("gamma-D8")[0].complex
    assert homology_dims(C) == {2: 1}
    lam = lefschetz(C)
    assert all(v in (1, -1) for v in marks(lam.to_burnside()))


def test_gamma_dihedral_bad_index():
    with pytest.raises(BadIndex):
        gamma_dihedral(1, F2)


def test_gamma_dihedral_v4_cross_check():
    # over the rank-two group of order four the same recipe reproduces the
    # product of two coset complexes (built over the same group handle)
    C = gamma_dihedral(2, F2)
    assert is_endotrivial(C)
    fam = abelian_generators(C.group, F2)
    res = [e.complex for e in fam if "res" in e.name]
    assert len(res) == 3
    combos = [
        tensor_complex(res[0], res[1]),
        tensor_complex(res[0], res[2]),
        tensor_complex(res[1], res[2]),
    ]
    assert any(xi(C) == xi(T) for T in combos)


def test_abelian_generator_counts():
    V4 = catalog("V4")
    fam = abelian_generators(V4, F2)
    names = [e.name for e in fam]
    assert sum("res" in n for n in names) == 3
    assert sum("shift" in n for n in names) == 1
    assert sum("torsion" in n for n in names) == 0
    G9 = catalog("CpxCp3")
    fam9 = abelian_generators(G9, F3)
    assert sum("res" in e.name for e in fam9) == 4  # p + 1 index-p subgroups
    for e in fam9:
        if "res" in e.name:
            assert e.complex.dims() == {0: 1, 1: 3, 2: 3}
    C6 = abelian_generators(catalog("C6"), F3)
    kinds = [e.name.split("-")[-1] for e in C6]
    assert any(k.startswith("res") for k in kinds)
    assert any(k.startswith("torsion") for k in kinds)


def test_abelian_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        abelian_generators(catalog("D8"), F2)


def test_registry():
    names = catalog_names()
    assert "gamma-SD16" in names and "trunc-Q8" in names
    with pytest.raises(UnknownCatalogName):
        build_entries("nope")
    # per-entry resolution inside families
    e = build_entries("abelian-V4-res1")
    assert len(e) == 1 and e[0].name == "abelian-V4-res1"


def test_a4_example_types():
    u, beta, stable = a4_frobenius_example()
    assert stable is False
    assert len(u.coeffs) == 3


def test_tensor_of_entries_endotrivial():
    fam = {e.name: e for e in build_entries("abelian-CpxCp3")}
    a = fam["abelian-CpxCp3-res0"].complex
    b = fam["abelian-CpxCp3-res1"].complex
    T = tensor_complex(a, b)
    assert is_endotrivial(T)
    assert xi(T) == xi(a) + xi(b)


# -- the semidihedral construction (slower) ---------------------------------------


@pytest.fixture(scope="module")
def sd16_entry():
    return build_entries("gamma-SD16")[0]


def test_gamma_semidihedral_verifies(sd16_entry):
    rep, _ = sd16_entry.verify()
    assert rep["endotrivial"]
    assert rep["matches_expected"]


def test_gamma_semidihedral_shape(sd16_entry):
    C = sd16_entry.complex
    assert C.dims() == {0: 1, 1: 16, 2: 96, 3: 256, 4: 256, 5: 80}
    assert homology_dims(C) == {4: 1}


def test_gamma_semidihedral_h_marks(sd16_entry):
    x = xi(sd16_entry.complex)
    lat = sd16_entry.group.lattice()
    for P in lat.p_class_reps(2):
        if P.order == 1:
            assert x.h_mark(P) == 4
        elif P.order == 2 and not P.is_normal:
            assert x.h_mark(P) == 2
        else:
            assert x.h_mark(P) == 0


def test_gamma_semidihedral_power_h_multiple_of_four(sd16_entry):
    x = xi(sd16_entry.complex)
    lat = sd16_entry.group.lattice()
    acc = x
    for _ in range(3):
        assert acc.h_mark(lat.trivial) % 4 == 0
        acc = acc + x


def test_gamma_semidihedral_bad_index():
    with pytest.raises(BadIndex):
        gamma_semidihedral(3, F2)
