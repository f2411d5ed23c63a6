"""CLI output against the computations it replaced.

`cli._write_json` writes reports as `json.dumps(report, indent=2)` would,
in bounded batches; group tables come from base images, mu from one pass
over the comparable pairs, class names from generators found by mask.  The
writer is compared with `json.dumps` on drawn trees, and whole CLI runs
with the same runs on `json.dumps` and the tuple-lookup tables, the
inverse zeta matrix and the pairwise-closure generators of `helpers`.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permchain import cli, groups
from permchain.cli import _write_json, main

from helpers import inverse_zeta_columns, pairwise_minimal_generators, tuple_lookup_tables


def _written(obj) -> str:
    fh = io.StringIO()
    _write_json(obj, fh)
    return fh.getvalue()


class _Writes:
    """A file that keeps each write apart."""

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)


# strings with non-ASCII characters, quotes, backslashes and control characters
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\n\t\x00\x1f\x7f é𝄞'))
_SCALARS = (
    _TEXT
    | st.integers()
    | st.integers(min_value=2 ** 64, max_value=2 ** 80)
    | st.integers(max_value=-(2 ** 64))
    | st.booleans()
    | st.none()
    | st.floats()
)
_KEYS = _TEXT | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_KEYS, kids),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_TREES)
def test_writer_matches_dumps(tree):
    assert _written(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [[], {}, (), [[]], {"": {}}, [[], {}, ()], "", 0, -1, 2 ** 70])
def test_writer_on_empty_containers_and_bare_scalars(tree):
    assert _written(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [
        {"a": {1, 2}},
        [object()],
        [b"bytes"],
        {"x": [1j]},
        [np.int64(3)],
        ["s", np.int32(1)],
        {(1, 2): "tuple key"},
        {"ok": {frozenset(): 1}},
    ],
)
def test_writer_refuses_what_dumps_refuses(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        _written(tree)


@pytest.mark.parametrize("entry", [lambda i: f"s{i}", lambda i: i], ids=["strings", "ints"])
def test_long_flat_list_goes_out_in_bounded_writes(entry):
    """A differential-sized flat list is written a slice at a time."""
    tree = {"differentials": {"1": [entry(i) for i in range(200_000)]}}
    fh = _Writes()
    _write_json(tree, fh)
    assert "".join(fh.parts) == json.dumps(tree, indent=2)
    assert len(fh.parts) >= 20
    assert max(map(len, fh.parts)) < 200_000  # of about 3 MB in all


_BENCH_GROUPS = [
    "D32",
    "Q32",
    "SD32",
    "D64",
    "(0 1 2 3);(0 1)",
    "A4",
    "(0 1);(2 3);(4 5);(6 7)",
    "(0 1);(2 3);(4 5);(6 7);(8 9)",
]
_GROUPS = _BENCH_GROUPS + ["D8", "V4", "(0 1 2 3 4);(0 1 2)", "(0 1 2 3 4);(0 1)"]


def _run_all(capsys) -> list:
    runs = []
    for spec in _GROUPS:
        for argv in (["group-info", spec, "--json"], ["group-info", spec], ["burnside", spec, "--json"]):
            code = main(argv)
            out = capsys.readouterr()
            runs.append((argv, code, out.out, out.err))
    return runs


def test_outputs_match_tuple_tables_and_dumps(monkeypatch, capsys):
    """Every byte, exit code and message, the exit-2 refusals of C2^4 and
    C2^5 included, as with tuple-lookup tables, the inverse zeta matrix,
    pairwise-closure generators and `json.dumps`.  The catalog is
    bypassed, not cleared: other tests hold its groups."""
    fast = _run_all(capsys)
    built, posets, generated = [], [], []

    def oracle_tables(elements, identity):
        built.append(len(elements))
        return tuple_lookup_tables(elements, identity)

    def oracle_mobius(poset):
        posets.append(len(poset))
        return inverse_zeta_columns(poset)

    def oracle_generators(H):
        generated.append(H)
        return pairwise_minimal_generators(H.parent, H.elems)

    monkeypatch.setattr(groups, "catalog", groups.catalog.__wrapped__)
    monkeypatch.setattr(groups, "_product_tables", oracle_tables)
    monkeypatch.setattr(groups, "mobius_columns", oracle_mobius)
    monkeypatch.setattr(cli, "mobius_columns", oracle_mobius)
    monkeypatch.setattr(groups, "minimal_generators", oracle_generators)
    monkeypatch.setattr(cli, "_write_json", lambda obj, fh: fh.write(json.dumps(obj, indent=2)))
    slow = _run_all(capsys)
    assert len(built) >= 3 * len(_GROUPS)  # each run builds its group afresh
    assert len(posets) >= 2 * len(_GROUPS) and generated  # each group-info run reads mu
    assert [r[1] for r in fast].count(2) == 2
    assert fast == slow
