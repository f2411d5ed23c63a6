import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from permchain.burnside import (
    BurnsideElement,
    basis_element,
    burnside_units,
    idempotent,
    inverse_marks,
    mark_table,
    marks,
)
from permchain.errors import TooManyClasses
from permchain.groups import FiniteGroup, catalog, group_from_spec, perm_from_cycles, quotient
from permchain.modules import local_quotient


def test_marks_c2():
    C2 = catalog("C2")
    L = C2.lattice()
    free = basis_element(C2, L.trivial)
    assert marks(free) == (2, 0)
    point = basis_element(C2, L.full)
    assert marks(point) == (1, 1)


def test_marks_all_ones_for_point():
    for name in ("D8", "A4"):
        G = catalog(name)
        pt = basis_element(G, G.lattice().full)
        assert all(v == 1 for v in marks(pt))


def test_marks_d8_reflection_coset():
    G = catalog("D8")
    L = G.lattice()
    Hb = L.generated_by([G.element_by_word("b")])
    x = basis_element(G, Hb)
    v = marks(x)
    assert v[Hb.class_id] == 2


def test_mark_table_triangular_structure():
    # the class of the full group fixes exactly the point orbit
    G = catalog("Q8")
    tbl = mark_table(G)
    L = G.lattice()
    gid = L.full.class_id
    assert tbl[gid, gid] == 1
    assert tbl[0, 0] == G.order  # free orbit at the trivial class


def test_idempotent_c2():
    C2 = catalog("C2")
    L = C2.lattice()
    e = idempotent(C2, L.full)
    assert e.coeffs[L.full.class_id] == 1
    assert e.coeffs[L.trivial.class_id] == Fraction(-1, 2)
    assert marks(e) == (0, 1)
    e1 = idempotent(C2, L.trivial)
    assert marks(e1) == (1, 0)


def test_inverse_marks_roundtrip_random():
    rng = np.random.default_rng(101)
    for name in ("C2", "V4", "D8"):
        G = catalog(name)
        c = len(G.lattice().class_reps)
        for _ in range(20):
            coeffs = tuple(int(v) for v in rng.integers(-5, 6, size=c))
            x = BurnsideElement(G, coeffs)
            back = inverse_marks(G, marks(x))
            assert back.coeffs == coeffs


def test_inverse_marks_all_ones():
    for name in ("C4", "A4"):
        G = catalog(name)
        L = G.lattice()
        e = inverse_marks(G, tuple([1] * len(L.class_reps)))
        want = [0] * len(L.class_reps)
        want[L.full.class_id] = 1
        assert list(e.coeffs) == want


def test_product_via_marks_is_integral():
    rng = np.random.default_rng(103)
    G = catalog("D8")
    L = G.lattice()
    reps = L.class_reps
    for _ in range(10):
        a = basis_element(G, reps[int(rng.integers(0, len(reps)))])
        b = basis_element(G, reps[int(rng.integers(0, len(reps)))])
        prod = a * b
        assert all(Fraction(c).denominator == 1 for c in prod.coeffs)
        assert marks(prod) == tuple(
            x * y for x, y in zip(marks(a), marks(b))
        )


def test_products_read_the_idempotents_kept_on_the_group(monkeypatch):
    """`inverse_marks` takes e_H from `idempotents(G)`: two products on a
    fresh D8 make one `idempotent` per class in all, and give the marks."""
    from permchain import burnside

    calls = []
    real = burnside.idempotent
    monkeypatch.setattr(burnside, "idempotent", lambda G, H: calls.append(H.class_id) or real(G, H))
    G = group_from_spec("(0 1 2 3);(0 2)")
    reps = G.lattice().class_reps
    a, b, c = (basis_element(G, H) for H in reps[1:4])
    for x, y in ((a, b), (b, c)):
        assert marks(x * y) == tuple(u * v for u, v in zip(marks(x), marks(y)))
    assert sorted(calls) == list(range(len(reps)))


def test_units_c2():
    C2 = catalog("C2")
    units = burnside_units(C2)
    assert len(units) == 4
    L = C2.lattice()
    target = [0] * 2
    target[L.full.class_id] = 1
    target[L.trivial.class_id] = -1
    assert any(list(u.coeffs) == target for u in units)


def test_units_c3():
    units = burnside_units(catalog("C3"))
    assert len(units) == 2
    vals = {tuple(marks(u)) for u in units}
    assert vals == {(1, 1), (-1, -1)}


def test_units_group_closure():
    for name in ("C2", "V4", "Q8"):
        G = catalog(name)
        units = burnside_units(G)
        mark_set = {marks(u) for u in units}
        for u in units:
            mu = marks(u)
            # self-inverse: the square has all marks one
            assert tuple(a * a for a in mu) == tuple([1] * len(mu))
            for v in units:
                prod = tuple(a * b for a, b in zip(mu, marks(v)))
                assert prod in mark_set


def test_units_across_sign_blocks():
    """C2^3 has 16 subgroup classes, so its 2^16 sign vectors meet as two
    halves of 2^8 each.  Matsuda: an abelian group with 8 subgroups of
    index <= 2 has 2^8 units, and -1 (every mark -1) joins the all-minus
    vectors of both halves."""
    G = group_from_spec("(0 1);(2 3);(4 5)")
    L = G.lattice()
    units = burnside_units(G)
    assert len(L.class_reps) == 16 and len(units) == 2 ** 8
    assert len({u.coeffs for u in units}) == len(units)
    assert all(set(marks(u)) <= {1, -1} for u in units)
    assert (-basis_element(G, L.full)).coeffs in {u.coeffs for u in units}


def test_units_too_many_classes():
    # (C2)^5 has far more than 20 subgroup classes
    gens = []
    for i in range(5):
        gens.append(perm_from_cycles(f"({2 * i} {2 * i + 1})", 10))
    G = FiniteGroup(gens)
    assert G.order == 32
    with pytest.raises(TooManyClasses):
        burnside_units(G)


def test_caches_live_on_their_group():
    """Build groups from specs and collect each before the next, so a new
    group may get an old one's id.  Every group still gets a mark table of
    its own size, and no cache keeps a collected group alive."""
    specs = ["(0 1);(2 3)", "(0 1 2 3);(0 2)", "(0 1 2 3)", "(0 1);(2 3);(4 5)", "(0 1 2);(0 1)"]
    for spec in specs * 2:
        G = group_from_spec(spec)
        L = G.lattice()
        c = len(L.class_reps)
        assert mark_table(G).shape == (c, c)
        local_quotient(L.p_class_reps(2)[-1])  # a Sylow 2-subgroup
        quotient(G, L.trivial)
        quotient(G, L.center())
        alive = weakref.ref(G)
        del G, L
        gc.collect()
        assert alive() is None
