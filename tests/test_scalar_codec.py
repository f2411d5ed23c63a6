"""The scalar codec tables of `FqField` against `format` and `parse`.

`GF` keeps `strings` (the canonical string of every code) and `code_of` (its
inverse), and complex files are written and read through them.  The
per-entry `parse` path stays here as the reference: on drawn non-canonical
spellings, `complex_from_obj` must give the matrix it gives.
"""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain.complexes import BoundedComplex
from permchain.ffield import GF, FqField, is_prime
from permchain.groups import catalog
from permchain.linalg import FqMatrix
from permchain.literals import complex_from_obj, complex_to_obj
from permchain.modules import regular_module

from module_reference import diff_at

FIXED = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (509, 1), (2, 9)]  # F2 ... F512

# every (p, n) with p^n <= 512: 97 primes and 20 proper prime powers
ALL_PN = [
    (p, n) for p in range(2, 513) if is_prime(p) for n in range(1, 10) if p ** n <= 512
]


def test_all_fields_listed():
    assert len(ALL_PN) == 117
    assert set(FIXED) <= set(ALL_PN)


def check_tables(fld):
    assert len(fld.strings) == fld.q and len(fld.code_of) == fld.q
    for code in range(fld.q):
        text = fld.strings[code]
        assert text == fld.format(code)
        assert fld.code_of[text] == code
        assert fld.parse(text) == code


@pytest.mark.parametrize("pn", FIXED, ids=[f"F{p ** n}" for p, n in FIXED])
def test_tables_match_format_and_parse(pn):
    check_tables(GF(*pn))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(ALL_PN))
def test_tables_match_on_drawn_fields(pn):
    check_tables(GF(*pn))


def test_tables_leave_field_equality_alone():
    a = GF(3, 2)
    b = FqField(p=a.p, n=a.n, modulus=a.modulus)  # the same field without tables
    assert b is not a and b.strings is None and b.mul is None
    assert a == b and hash(a) == hash(b)


@st.composite
def spelling(draw, fld, code):
    """Some text that `parse` reads as `code`: unreduced and negative
    coefficients, '*' or not, zero terms, terms in any order, spaces; and
    for prime-subfield codes sometimes a JSON integer."""
    p = fld.p
    if code < p and draw(st.booleans()):
        return code + p * draw(st.integers(-2, 3))
    terms = []
    for i, c in enumerate(fld.decode(code)):
        if c == 0 and draw(st.booleans()):
            continue
        v = c + p * draw(st.integers(-2, 2))
        if i == 0:
            body = str(abs(v))
        else:
            mono = "w" if i == 1 else f"w^{i}"
            if abs(v) == 1 and draw(st.booleans()):
                body = mono
            else:
                body = f"{abs(v)}{draw(st.sampled_from(['*', '']))}{mono}"
        terms.append(("-" if v < 0 else "+", body))
    terms = draw(st.permutations(terms))
    if not terms:
        terms = [(draw(st.sampled_from(["+", "-"])), str(p * draw(st.integers(0, 2))))]
    text = "".join(sign + body for sign, body in terms)
    text = text[1:] if text.startswith("+") else text
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + " " + text[k:]
    return text


@lru_cache(maxsize=None)
def right_multiplication_complex(p, n, seed):
    """kV4 -> kV4, x -> x*a for a random a in kV4: a labeled two-term complex
    whose differential holds random codes of the field."""
    fld = GF(p, n)
    G = catalog("V4")
    a = np.random.default_rng(seed).integers(0, fld.q, G.order)
    # the regular module's basis index is the element index
    d = np.zeros((G.order, G.order), dtype=np.int16)
    for g in range(G.order):
        for h in range(G.order):
            row = G.mul(g, h)
            d[row, g] = fld.add[d[row, g], a[h]]
    M = regular_module(G, fld)
    return BoundedComplex(G, fld, 0, [M, M], {1: FqMatrix(fld, d)})


def reference_codes(fld, flat):
    """The per-entry path: every entry through `parse`."""
    return np.array([fld.parse(str(v)) for v in flat], dtype=np.int16)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_noncanonical_spellings_read_as_parse_reads_them(data):
    pn = data.draw(st.sampled_from(FIXED) | st.sampled_from(ALL_PN), label="field")
    fld = GF(*pn)
    C = right_multiplication_complex(*pn, data.draw(st.integers(0, 3), label="seed"))
    obj = json.loads(json.dumps(complex_to_obj(C)))
    canonical = obj["differentials"]["1"]
    codes = np.array([fld.code_of[t] for t in canonical], dtype=np.int16)
    every = set(range(len(canonical)))
    respelled = data.draw(st.sets(st.sampled_from(sorted(every))) | st.just(every))
    mixed = list(canonical)
    for k in sorted(respelled):
        mixed[k] = data.draw(spelling(fld, int(codes[k])))
    obj["differentials"]["1"] = mixed
    reference = reference_codes(fld, mixed)
    assert (reference == codes).all()
    got = diff_at(complex_from_obj(json.loads(json.dumps(obj))), 1).matrix.a
    assert (got.ravel() == reference).all()
    assert json.dumps(complex_to_obj(complex_from_obj(obj))) == json.dumps(
        complex_to_obj(C)
    )
