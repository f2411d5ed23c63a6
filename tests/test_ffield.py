import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain.errors import PermchainError
from permchain.ffield import GF, field_from_q, frobenius, frobenius_inverse


def test_fixed_moduli():
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)


def test_prime_field_arithmetic():
    F3 = GF(3)
    a, b = F3.scalar(2), F3.scalar(2)
    assert (a + b).code == 1
    assert (a * b).code == 1
    assert (-a).code == 1
    assert a.inverse().code == 2


def test_f4_multiplication():
    F4 = GF(2, 2)
    w = F4.scalar(2)
    assert (w * w).code == F4.parse("1+w")
    assert (w * w * w).code == 1  # w has order 3


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, n):
    f = GF(p, n)
    els = range(f.q)
    for a in els:
        for b in els:
            assert f.add[a, b] == f.add[b, a]
            assert f.mul[a, b] == f.mul[b, a]
    # associativity and distributivity on a deterministic sample
    sample = list(els)[: min(f.q, 5)]
    for a in sample:
        for b in sample:
            for c in sample:
                assert f.add[f.add[a, b], c] == f.add[a, f.add[b, c]]
                assert f.mul[f.mul[a, b], c] == f.mul[a, f.mul[b, c]]
                assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]


def test_units_have_inverses():
    for p, n in [(2, 2), (3, 2), (2, 3), (5, 1)]:
        f = GF(p, n)
        for a in range(1, f.q):
            assert f.mul[a, f.inv[a]] == 1


def test_frobenius_on_f4():
    F4 = GF(2, 2)
    w = F4.scalar(2)
    assert frobenius(w).code == (w * w).code
    for c in range(4):
        s = F4.scalar(c)
        assert frobenius_inverse(frobenius(s)) == s


def test_frobenius_fixes_prime_field():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        f = GF(p, n)
        for c in range(p):
            assert f.frob[c] == c
        # and fixes exactly the prime field
        fixed = [c for c in range(f.q) if f.frob[c] == c]
        assert fixed == list(range(p))


def test_frobenius_squared_identity_on_f9():
    F9 = GF(3, 2)
    for c in range(9):
        assert F9.frob[F9.frob[c]] == c


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 4)])
def test_frobenius_additivity_exhaustive(p, n):
    f = GF(p, n)
    assert f.q <= 81
    for a in range(f.q):
        for b in range(f.q):
            assert f.frob[f.add[a, b]] == f.add[f.frob[a], f.frob[b]]


def test_scalar_format_roundtrip():
    for p, n in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        f = GF(p, n)
        for c in range(f.q):
            assert f.parse(f.format(c)) == c


def test_parse_variants():
    F4 = GF(2, 2)
    assert F4.parse("w + 1") == F4.parse("1+w")
    F9 = GF(3, 2)
    assert F9.parse("2*w+1") == F9.encode([1, 2])
    assert F9.parse("-w") == F9.encode([0, 2])
    with pytest.raises(PermchainError):
        F4.parse("w^5")


def test_field_from_q():
    assert field_from_q(4).q == 4
    assert field_from_q(9).p == 3
    assert field_from_q(8).n == 3
    with pytest.raises(PermchainError):
        field_from_q(6)
    with pytest.raises(PermchainError):
        GF(4, 1)


@pytest.mark.parametrize(
    "q, message",
    [
        (0, "0 is not a prime power"),
        (1, "1 is not a prime power"),
        (9, None),
        (512, None),
        (1000, "1000 is not a prime power"),
        (1024, "field size p^n = 1024 out of supported range"),
        (1000003, "field size p^n = 1000003 out of supported range"),
    ],
)
def test_field_from_q_fails_fast(q, message):
    """A prime power is found through its least prime factor, so a large
    prime q is rejected after trial division up to sqrt(q), not up to q."""
    start = time.perf_counter()
    if message is None:
        assert field_from_q(q).q == q
    else:
        with pytest.raises(PermchainError) as err:
            field_from_q(q)
        assert str(err.value) == message
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("pn", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 9), (509, 1)])
def test_one_read_only_field_per_pn(pn):
    f = GF(*pn)
    assert GF(*pn) is f
    assert field_from_q(f.q) is f
    for name in ("add", "sub", "mul", "neg", "inv", "frob", "power_basis"):
        table = getattr(f, name)
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    with pytest.raises(TypeError):
        f.code_of["0"] = 1
    assert f.code_of["0"] == 0


def test_scalar_order():
    F4 = GF(2, 2)
    assert F4.scalar_order(2) == 3
    F9 = GF(3, 2)
    orders = {F9.scalar_order(c) for c in range(1, 9)}
    assert max(orders) == 8  # multiplicative group is cyclic of order q - 1


@settings(max_examples=100)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_ring_laws(a, b, c):
    f = GF(3, 2)
    assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]
    assert f.add[a, f.neg[a]] == 0
