import json
import subprocess
import sys

import pytest

from permchain.constructions import build_entries, catalog_names
from permchain.complexes import dual_complex, homology_dims, shift, tensor_complex, xi
from permchain.constructions import gamma_dihedral
from permchain.cli import main
from permchain.errors import ParseError, PermchainError
from permchain.ffield import GF
from permchain.groups import catalog
from permchain.invariants import lefschetz
from permchain.literals import (
    MAX_MODULE_DIM,
    complex_from_obj,
    complex_to_obj,
    format_character,
    format_element,
    format_module,
    format_subgroup,
    load_complexes,
    parse_character,
    parse_element_literal,
    parse_module_literal,
    parse_subgroup,
)
from permchain.modules import all_characters

from module_reference import module_check_labels

F2 = GF(2)
F4 = GF(2, 2)


def test_subgroup_roundtrip():
    G = catalog("D8")
    L = G.lattice()
    for H in L.subgroups:
        assert parse_subgroup(G, format_subgroup(H)).elems == H.elems
    with pytest.raises(ParseError):
        parse_subgroup(G, "<q>")


def test_character_roundtrip():
    G = catalog("A4")
    for c in all_characters(G, F4):
        assert parse_character(G, F4, format_character(c)) == c
    with pytest.raises(ParseError):
        parse_character(G, F4, "(w)")  # wrong arity


def test_module_literal_roundtrip():
    G = catalog("D8")
    M = parse_module_literal(G, F2, "[G/<b>] + [G/1]^2 + [G/G]")
    assert M.dim == 4 + 16 + 1
    assert module_check_labels(M)
    text = format_module(M)
    M2 = parse_module_literal(G, F2, text)
    assert M2.dim == M.dim
    assert format_module(M2) == text


def test_twisted_module_literal():
    G = catalog("A4")
    M = parse_module_literal(G, F4, "(w,1)*[G/<a>]")
    assert M.dim == 4
    s = M.labels[0]
    assert not s.character.is_trivial()
    assert format_module(M) == "(w,1)*[G/<a>]"


def test_element_literal():
    G = catalog("A4")
    t = parse_element_literal(G, F4, "(w,1)*[G/G] + [G/<a>] - (w,1)*[G/<a>]")
    assert len(t.coeffs) == 3
    text = format_element(t)
    t2 = parse_element_literal(G, F4, text)
    assert t2 == t
    neg = parse_element_literal(G, F4, "-2*[G/G]")
    assert list(neg.coeffs.values()) == [-2]


def test_bad_module_literals():
    G = catalog("C4")
    with pytest.raises(ParseError):
        parse_module_literal(G, F2, "")
    with pytest.raises(ParseError):
        parse_module_literal(G, F2, "[G/<a>] - [G/G]")
    with pytest.raises(ParseError):
        parse_module_literal(G, F2, "3*[G/G]")


def test_complex_file_roundtrip():
    for name in ("gamma-D8", "trunc-Q8", "abelian-C6-res0"):
        e = build_entries(name)[0]
        obj = complex_to_obj(e.complex)
        C2 = complex_from_obj(obj)
        assert C2.dims() == e.complex.dims()
        assert homology_dims(C2) == homology_dims(e.complex)
        x1, x2 = xi(e.complex), xi(C2)
        # groups are rebuilt by name, so compare tables by class order
        assert [en.h for _, en in sorted(x1.entries.items())] == [
            en.h for _, en in sorted(x2.entries.items())
        ]
        # canonical printer: a second serialization is byte-identical
        assert json.dumps(complex_to_obj(C2)) == json.dumps(obj)


def test_complex_obj_errors():
    e = build_entries("gamma-D8")[0]
    obj = complex_to_obj(e.complex)
    bad = json.loads(json.dumps(obj))
    bad["differentials"]["1"][0] = "1" if obj["differentials"]["1"][0] == "0" else "0"
    with pytest.raises(ParseError):
        complex_from_obj(bad)  # d^2 or equivariance breaks
    missing = {k: v for k, v in obj.items() if k != "field"}
    with pytest.raises(ParseError):
        complex_from_obj(missing)
    short = json.loads(json.dumps(obj))
    short["differentials"]["1"] = short["differentials"]["1"][:-1]
    with pytest.raises(ParseError):
        complex_from_obj(short)


@pytest.mark.parametrize("pn", [(2, 1), (2, 2), (2, 3)])
@pytest.mark.parametrize("kind", ["CxC", "CxC*", "C[1]xC"])
def test_tensor_roundtrip_gamma_d8(kind, pn):
    """Tensor products of γ-D8 list equal summands apart; their files must
    parse back to complexes with the same dims and Lefschetz invariant."""
    g = gamma_dihedral(3, GF(*pn))
    C = {
        "CxC": lambda: tensor_complex(g, g),
        "CxC*": lambda: tensor_complex(g, dual_complex(g)),
        "C[1]xC": lambda: tensor_complex(shift(g, 1), g),
    }[kind]()
    D = complex_from_obj(json.loads(json.dumps(complex_to_obj(C))))
    assert D.dims() == C.dims()
    assert format_element(lefschetz(D)) == format_element(lefschetz(C))


def _gamma_d8_obj():
    return json.loads(json.dumps(complex_to_obj(build_entries("gamma-D8")[0].complex)))


def _set(path, value):
    """Mutation of the γ-D8 file object that sets obj[path...] = value."""

    def mutate(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj

    return mutate


def _rekey(section, old, new):
    def mutate(obj):
        obj[section][new] = obj[section].pop(old)
        return obj

    return mutate


@pytest.mark.parametrize(
    "mutate, where",
    [
        (_set(["differentials", "1", 0], "x"), "complex.differentials.1[0]"),
        (_set(["differentials", "1", 0], "1.5"), "complex.differentials.1[0]"),
        (_set(["differentials", "1", 0], None), "complex.differentials.1[0]"),
        (_set(["differentials", "1", 0], [1]), "complex.differentials.1[0]"),
        (_set(["differentials", "1", 0], "w"), "complex.differentials.1[0]"),
        (_rekey("modules", "0", "a"), "complex.modules"),
        (_rekey("differentials", "1", "x"), "complex.differentials"),
        (_set(["lo"], "a"), "complex.lo"),
        (_set(["lo"], 1.5), "complex.lo"),
        (_set(["modules"], ["[G/G]"]), "complex.modules"),
        (_set(["modules", "0"], 1), "complex.modules.0"),
        (_set(["differentials"], None), "complex.differentials"),
        (_set(["differentials", "1"], None), "complex.differentials.1"),
        (lambda obj: _set(["differentials", "1"], "".join(obj["differentials"]["1"]))(obj),
         "complex.differentials.1"),
        (lambda obj: [obj], "complex"),
    ],
    ids=[
        "entry-x", "entry-1.5", "entry-null", "entry-list", "entry-w-over-F2",
        "module-key", "differential-key", "lo-string", "lo-float", "modules-list",
        "module-literal-number", "differentials-null", "differential-null",
        "differential-string", "not-an-object",
    ],
)
def test_malformed_complex_files_raise_parse_error(mutate, where, tmp_path, capsys):
    """Malformed files fail with a ParseError naming the location, and
    `permchain check` on them exits 2 with one error line."""
    obj = mutate(_gamma_d8_obj())
    with pytest.raises(ParseError) as exc:
        complex_from_obj(obj)
    assert exc.value.location == where
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "token", ["x", "1.5", None, [1], "", "w^", "1+", "2*w*w", "w^9", "**w", "1_1", "\u0663"]
)
def test_parse_rejects_unreadable_tokens(token):
    with pytest.raises(PermchainError):
        F4.parse(token)


def test_load_complexes_locates_errors_in_multi_files(tmp_path):
    good = _gamma_d8_obj()
    bad = _set(["differentials", "1", 3], "x")(_gamma_d8_obj())
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"complexes": [good, bad]}))
    with pytest.raises(ParseError) as exc:
        load_complexes(str(path))
    assert exc.value.location == "complexes[1]"
    assert "complex.differentials.1[3]" in str(exc.value)
    path.write_text(json.dumps({"complexes": []}))
    with pytest.raises(ParseError):
        load_complexes(str(path))
    path.write_text(json.dumps({"complexes": [good]}))
    complexes, several = load_complexes(str(path))
    assert several and len(complexes) == 1
    path.write_text(json.dumps(good))
    complexes, several = load_complexes(str(path))
    assert not several and complexes[0].dims() == build_entries("gamma-D8")[0].complex.dims()


# ru_maxrss of a child counts the pages it shared with the forked test
# process, so the peak is read from VmHWM where the system reports it.
_COUNT_BEFORE_BUILD = """
import json, resource, sys, time
from permchain.cli import main
path = sys.argv[1]
json.dump({"group": "C2", "field": {"p": 2}, "lo": 0,
           "modules": {"0": "[G/1]^1000000", "1": "[G/1]"},
           "differentials": {"1": ["0", "0"]}}, open(path, "w"))
start = time.perf_counter()
code = main(["check", path])
elapsed = time.perf_counter() - start
try:
    with open("/proc/self/status") as fh:
        rss_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "s": elapsed, "rss_mb": rss_kb / 1024}))
"""


def test_entry_counts_are_checked_before_modules_are_built(tmp_path):
    """A C2 file whose degree-0 literal is [G/1]^1000000 and whose
    differential holds 2 entries once built the 2,000,000-dimensional
    module first (7 s, 347 MB RSS) before it reported the count.  In a fresh
    interpreter, so that its peak memory is the check's own."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_BEFORE_BUILD, str(tmp_path / "big.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["code"] == 2
    assert proc.stderr == "error: complex.differentials.1: expected 4000000 entries, got 2\n"
    assert got["s"] < 1.0
    assert got["rss_mb"] < 100


# A file holding one huge module literal and no differentials once built the
# module: [G/1]^99999999999 died with a bare MemoryError, and [G/1]^3000000
# ran 30 s up to 1.9 GB before it.  The child runs under a 2 GiB address
# space limit, so that a regression fails here instead of filling memory.
_CAPPED_CHECK = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from permchain.cli import main
start = time.perf_counter()
code = main(["check", sys.argv[1]])
print(json.dumps({"code": code, "s": time.perf_counter() - start}))
"""


@pytest.mark.parametrize("mult", [99999999999, 3000000])
def test_module_dimension_is_capped_before_modules_are_built(tmp_path, mult):
    obj = _gamma_d8_obj()
    obj["lo"], obj["modules"] = 0, {"0": f"[G/1]^{mult}"}
    del obj["differentials"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHECK, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["code"] == 2
    assert proc.stderr == (
        f"error: complex.modules.0: module of dimension {8 * mult} exceeds the cap of 4096\n"
    )
    assert got["s"] < 0.5


def test_module_cap_is_on_the_dimension():
    """Sum of mult * |G : H|: [G/1]^512 over D8 is 4096 and parses,
    [G/1]^513 is 4104 and does not, nor does [G/<a>]^2049 (4098)."""
    G, f = catalog("D8"), GF(2)
    assert MAX_MODULE_DIM == 4096
    assert parse_module_literal(G, f, "[G/1]^512").dim == MAX_MODULE_DIM
    for text in ("[G/1]^513", "[G/1]^511 + [G/<a>]^5", "[G/<a>]^2049"):
        with pytest.raises(ParseError, match="exceeds the cap") as exc:
            parse_module_literal(G, f, text, "here")
        assert exc.value.location == "here"
    obj = _gamma_d8_obj()
    obj["modules"]["1"] = "[G/1]^600"
    with pytest.raises(ParseError, match="entries, got"):  # counts first, as before
        complex_from_obj(obj)


def test_catalog_and_tensor_terms_are_under_the_cap():
    """The largest term of a catalog entry is 256 (gamma-SD16); that of
    gamma-D16 (x) gamma-D16 is 512, and its file still parses."""
    sizes = [max(e.complex.dims().values()) for n in catalog_names() for e in build_entries(n)]
    assert max(sizes) == 256
    g = gamma_dihedral(4, GF(2))
    T = tensor_complex(g, g)
    assert max(T.dims().values()) == 512 < MAX_MODULE_DIM
    assert complex_from_obj(json.loads(json.dumps(complex_to_obj(T)))).dims() == T.dims()


def test_overlong_multiplicity_is_a_parse_error():
    """Python refuses to read an integer of more than 4,300 digits; that is
    a located ParseError, not a ValueError."""
    G, f = catalog("D8"), GF(2)
    with pytest.raises(ParseError, match="number too long in module term"):
        parse_module_literal(G, f, "[G/1]^" + "9" * 5000, "here")
    with pytest.raises(ParseError, match="number too long in element term"):
        parse_element_literal(G, f, "9" * 5000 + "*[G/1]", "here")


def test_a_malformed_literal_is_reported_before_a_count_mismatch():
    obj = _gamma_d8_obj()
    obj["differentials"]["1"] = obj["differentials"]["1"][:-1]
    obj["modules"]["2"] = "[G/<x>]"
    with pytest.raises(ParseError) as exc:
        complex_from_obj(obj)
    assert exc.value.location == "complex.modules.2"
    obj["modules"]["2"] = _gamma_d8_obj()["modules"]["2"]
    with pytest.raises(ParseError, match="entries, got") as exc:
        complex_from_obj(obj)
    assert exc.value.location == "complex.differentials.1"
