import json
import subprocess
import sys
from fractions import Fraction

import pytest

from permchain import cli
from permchain.burnside import idempotent
from permchain.cli import main
from permchain.complexes import module_complex
from permchain.constructions import CatalogEntry, build_entries, catalog_names
from permchain.ffield import GF
from permchain.groups import catalog, class_name, group_from_spec
from permchain.literals import complex_to_obj
from permchain.modules import regular_module


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info_d8(capsys):
    code, out, err = run_cli(["group-info", "D8", "-p", "2", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 8
    assert len(rep["subgroup_classes"]) == 8
    assert len(rep["p_subgroup_classes"]) == 8


def test_group_info_c1(capsys):
    code, out, err = run_cli(["group-info", "C1", "-p", "2", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 1
    assert rep["p_subgroup_classes"] == ["1"]


def test_group_info_malformed(capsys):
    code, out, err = run_cli(["group-info", "(0 1)(1 2)"], capsys)
    assert code == 2
    assert "error" in err


def test_check_gamma_d8(tmp_path, capsys):
    e = build_entries("gamma-D8")[0]
    path = tmp_path / "gd8.json"
    path.write_text(json.dumps(complex_to_obj(e.complex)))
    code, out, err = run_cli(["check", str(path), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["endotrivial"] is True
    assert rep["xi"]["1"]["h"] == 2
    assert rep["xi"]["<b>"]["h"] == 1
    assert {b["subgroup_class"]: b["epsilon"] for b in rep["beta"]}["<b>"] == -1


def test_check_not_endotrivial(tmp_path, capsys):
    obj = {
        "group": "C2",
        "field": {"p": 2, "n": 1},
        "lo": 0,
        "modules": {"0": "[G/1]"},
        "differentials": {},
    }
    path = tmp_path / "kc2.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", str(path), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["endotrivial"] is False
    assert "G" in rep["violations"]


def test_catalog_verify_names_violations_as_check_does(monkeypatch, tmp_path, capsys):
    """On a complex that is not endotrivial (kD8 in degree 0), `catalog
    verify` and `check` write the same violations: by subgroup class name,
    each nonzero local homology as its degree and dim, in JSON and text."""
    G, F2 = catalog("D8"), GF(2)
    C = module_complex(regular_module(G, F2))
    monkeypatch.setattr(cli, "build_entries", lambda name: [CatalogEntry("kD8", G, F2, C)])
    path = tmp_path / "kd8.json"
    path.write_text(json.dumps(complex_to_obj(C)))
    code, out, err = run_cli(["catalog", "verify", "kD8", "--json"], capsys)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["endotrivial"] is False
    assert rep["violations"]["1"] == [{"degree": 0, "dim": 8}]
    assert sorted(rep["violations"]) == sorted(class_name(G.lattice(), P) for P in G.lattice().p_class_reps(2))
    assert all(v == [] for k, v in rep["violations"].items() if k != "1")
    assert rep["violations"] == json.loads(run_cli(["check", str(path), "--json"], capsys)[1])["violations"]
    verify_text = run_cli(["catalog", "verify", "kD8"], capsys)[1]
    check_text = run_cli(["check", str(path)], capsys)[1]
    assert "violations:\n  1:\n    -\n      degree: 0\n      dim: 8\n" in verify_text
    assert verify_text[verify_text.index("violations:"):] == check_text[check_text.index("violations:"):]


def test_check_rejects_non_complex(tmp_path, capsys):
    obj = {
        "group": "C2",
        "field": {"p": 2, "n": 1},
        "lo": 0,
        "modules": {"0": "[G/1]", "1": "[G/1]", "2": "[G/1]"},
        "differentials": {
            "1": ["1", "0", "0", "1"],
            "2": ["1", "0", "0", "1"],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert "d^2" in err or "error" in err


def test_xi_command(tmp_path, capsys):
    e = build_entries("trunc-C9")[0]
    path = tmp_path / "c9.json"
    path.write_text(json.dumps(complex_to_obj(e.complex)))
    code, out, err = run_cli(["xi", str(path), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["xi"]["1"]["h"] == 2


def test_lefschetz_command(tmp_path, capsys):
    e = build_entries("gamma-D8")[0]
    path = tmp_path / "gd8.json"
    path.write_text(json.dumps(complex_to_obj(e.complex)))
    code, out, err = run_cli(["lefschetz", str(path), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["orthogonal_unit"] is True
    assert sorted(rep["marks"]) == [-1, -1, 1, 1, 1, 1, 1, 1]


def test_burnside_v4(capsys):
    code, out, err = run_cli(["burnside", "V4", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["classes"]) == 5
    assert len(rep["mark_table"]) == 5
    # Matsuda: |B(G)^x| = 2^{#subgroups of index <= 2} for abelian G; V4 has G and three C2
    assert rep["unit_count"] == 16
    # Gluck: e_H = (1/|N_G(H)|) sum_{K <= H} |K| mu(K, H) [G/K], with N_G(H) = V4 throughout
    assert rep["idempotent_denominators"] == {
        "1": 4,  # e_1 = 1/4 [G/1]
        "<a>": 4,  # e_<x> = 1/2 [G/<x>] - 1/4 [G/1]
        "<b>": 4,
        "<b*a>": 4,
        "G": 2,  # e_G = [G/G] - 1/2 sum [G/C2] + 1/2 [G/1]; 4 = |N_G(G)| is not reduced
    }
    # the field is the least d > 0 with d * e_H integral in B(G)
    G = group_from_spec("V4")
    L = G.lattice()
    for H in L.class_reps:
        d = rep["idempotent_denominators"][class_name(L, H)]
        coeffs = [Fraction(c) for c in idempotent(G, H).coeffs]
        integral = [k for k in range(1, d + 1) if all((k * c).denominator == 1 for c in coeffs)]
        assert integral == [d]


def test_burnside_too_many_classes(capsys):
    spec = ";".join(f"({2 * i} {2 * i + 1})" for i in range(5))
    code, out, err = run_cli(["burnside", spec], capsys)
    assert code == 2
    assert "classes" in err


def test_burnside_checks_class_bound_first(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called before the class bound was checked")

    monkeypatch.setattr("permchain.cli.mark_table", refuse)
    monkeypatch.setattr("permchain.cli.idempotents", refuse)
    monkeypatch.setattr("permchain.burnside.idempotent", refuse)
    code, out, err = run_cli(["burnside", "(0 1);(2 3);(4 5);(6 7);(8 9)"], capsys)
    assert code == 2
    assert "374 subgroup classes" in err


def test_catalog_list(capsys):
    code, out, err = run_cli(["catalog", "list", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    names = [e["name"] for e in rep["entries"]]
    assert "gamma-D8" in names and "abelian-V4-res0" in names


def test_catalog_build_and_verify(tmp_path, capsys):
    code, out, err = run_cli(["catalog", "build", "gamma-D8", "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["group"] == "D8"
    code, out, err = run_cli(["catalog", "verify", "trunc-C4", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["endotrivial"] and rep["matches_expected"]
    assert rep["frobenius_stable"] is True
    assert rep["orthogonal_unit"] is True


def test_catalog_build_then_check_gamma_sd16(tmp_path, capsys):
    """γ-SD16 has equal summands that are not adjacent; the written file must
    order its basis as its grouped module literals do, or it does not parse."""
    path = tmp_path / "gsd16.json"
    code, out, err = run_cli(["catalog", "build", "gamma-SD16", "--out", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(["check", str(path), "--json"], capsys)
    assert code == 0, err
    assert json.loads(out)["endotrivial"] is True


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_build_then_check_every_name(name, tmp_path, capsys):
    """`check`, `xi` and `lefschetz` read every file `catalog build --out`
    writes, one complex or several, and agree with `catalog verify`."""
    path = tmp_path / "built.json"
    assert run_cli(["catalog", "build", name, "--out", str(path)], capsys)[0] == 0
    code, out, err = run_cli(["catalog", "verify", name, "--json"], capsys)
    assert code == 0
    verified = json.loads(out)
    verified = verified.get("entries", [verified])
    several = "complexes" in json.loads(path.read_text())
    assert several == (len(verified) > 1)
    for cmd in ("check", "xi", "lefschetz"):
        code, out, err = run_cli([cmd, str(path), "--json"], capsys)
        assert code == 0, err
        reports = json.loads(out)
        reports = reports["complexes"] if several else [reports]
        assert len(reports) == len(verified)
        for rep, ver in zip(reports, verified):
            if cmd == "lefschetz":
                assert rep["element"] == ver["lefschetz"]
            else:
                assert rep["xi"] == ver["xi"]
            if cmd == "check":
                assert rep["endotrivial"] is True and rep["beta"] == ver["beta"]


def test_one_parser_gives_the_bytes_of_fresh_parsers(monkeypatch, capsys):
    """`main` builds its parser once per process.  Different subcommands one
    after another on it print the bytes, messages and exit codes that a
    fresh parser per call gives, usage errors (exit 2) included."""

    def runs() -> list:
        out = []
        for argv in (
            ["group-info", "D8", "--json"],
            ["catalog", "verify", "trunc-C2"],
            ["burnside", "V4", "--json"],
            ["catalog", "list"],
            ["frobenius", "a4-example", "-q", "8"],
            ["nonsense"],
            ["group-info"],
            ["catalog", "verify", "trunc-C4", "--json"],
        ):
            try:
                code = main(argv)
            except SystemExit as e:
                code = ("exit", e.code)
            out.append((code, *capsys.readouterr()))
        return out

    assert cli.build_parser() is cli.build_parser()
    shared = runs()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = runs()
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 0, 0, 0, 2, ("exit", 2), ("exit", 2), 0]
    assert "invalid choice: 'nonsense'" in shared[5][2]


def test_catalog_verify_requires_name(capsys):
    code, out, err = run_cli(["catalog", "verify"], capsys)
    assert code == 2


def test_frobenius_a4_example(capsys):
    code, out, err = run_cli(["frobenius", "a4-example", "-q", "4", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["frobenius_stable"] is False
    v4 = [b for b in rep["beta"] if b["subgroup_class"].startswith("<b,")][0]
    assert "w" in v4["character"]["a"]


@pytest.mark.parametrize("q", ["16", "64"])
def test_frobenius_a4_example_over_larger_fields(q, capsys):
    """Every F_{2^n} with cube roots of unity (3 | q - 1) carries the
    example, with w the least code of order three."""
    code, out, err = run_cli(["frobenius", "a4-example", "-q", q, "--json"], capsys)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["field"] == f"F{q}" and rep["frobenius_stable"] is False


@pytest.mark.parametrize("q", ["2", "3", "8", "9", "32"])
def test_frobenius_a4_example_needs_cube_roots_of_unity(q, capsys):
    code, out, err = run_cli(["frobenius", "a4-example", "-q", q], capsys)
    assert code == 2 and out == ""
    assert err == "error: the example needs a field with cube roots of unity\n"


def test_frobenius_element_file(tmp_path, capsys):
    obj = {
        "group": "A4",
        "field": {"p": 2, "n": 2},
        "element": "(w,1)*[G/G] + [G/<a>] - (w,1)*[G/<a>]",
    }
    path = tmp_path / "u.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["frobenius", str(path), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["frobenius_stable"] is False


def test_frobenius_element_file_rejects_other_q(tmp_path, capsys):
    obj = {"group": "A4", "field": {"p": 2, "n": 2}, "element": "[G/G]"}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["frobenius", str(path), "-q", "0", "--json"], capsys)
    assert code == 2 and out == ""
    assert "does not match -q 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["group-info", "D8", "-p", "1"],
        ["group-info", "D8", "-p", "0"],
        ["group-info", "D8", "-p", "4"],
        ["group-info", "C3", "-p", "9"],
        ["group-info", "D8", "-p", "-2"],
    ],
)
def test_group_info_rejects_a_p_that_is_not_prime(argv):
    """In a fresh interpreter with a time limit, so that a check that loops
    (is_p_power with p = 1 once did) fails instead of hanging the suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "permchain.cli", *argv, "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: -p {argv[3]} is not a prime\n"


def test_group_info_p_defaults_to_two(capsys):
    code, out, _ = run_cli(["group-info", "D8", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["p"] == 2


@pytest.mark.parametrize("q", ["0", "1", "6", "1000"])
def test_frobenius_example_rejects_a_q_that_is_not_a_prime_power(q, capsys):
    code, out, err = run_cli(["frobenius", "a4-example", "-q", q], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {q} is not a prime power\n"


@pytest.mark.parametrize("q", ["1024", "1000003"])
def test_frobenius_example_rejects_a_large_q_quickly(q):
    """The prime 1000003 once took seconds of trial division before the
    range check; `test_field_from_q_fails_fast` bounds the time, the limit
    here only keeps a hang from stalling the suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "permchain.cli", "frobenius", "a4-example", "-q", q],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: field size p^n = {q} out of supported range\n"


# `check` run in a fresh interpreter, timing `main` alone and tracing its
# allocations; the result goes to stderr as [exit code, seconds, peak bytes]
_TIMED_CHECK = """import json, sys, time, tracemalloc
from permchain.cli import main
tracemalloc.start()
t = time.perf_counter()
rc = main(["check", sys.argv[1], "--json"])
seconds = time.perf_counter() - t
print(json.dumps([rc, seconds, tracemalloc.get_traced_memory()[1]]), file=sys.stderr)
"""


@pytest.mark.parametrize("top", [1, 2])
def test_check_without_differentials_builds_no_zero_maps(top, tmp_path):
    """[G/1]^512 over D8 in degrees 0..top and no differential.  An absent
    differential stays absent: no 4096-square zero map is made or
    multiplied, which took 0.6 s and 112 MB of resident memory for top 1,
    2.4 s and 249 MB for top 2.  The report is the one those maps gave."""
    obj = {
        "group": "D8",
        "field": {"p": 2, "n": 1},
        "lo": 0,
        "modules": {str(i): "[G/1]^512" for i in range(top + 1)},
        "differentials": {},
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_CHECK, str(path)], capture_output=True, text=True, timeout=60
    )
    rc, seconds, peak = json.loads(proc.stderr.splitlines()[-1])
    others = ["<b>", "<a*b>", "Z", "<b,b*a^2>", "<a*b,a^2>", "<a>", "G"]
    want = {
        "group": "D8",
        "field": {"p": 2, "n": 1, "q": 2},
        "dims": {str(i): 4096 for i in range(top + 1)},
        "endotrivial": False,
        "violations": {
            "1": [{"degree": i, "dim": 4096} for i in range(top + 1)],
            **{name: [] for name in others},
        },
    }
    assert rc == 0 and proc.stdout == json.dumps(want, indent=2) + "\n"
    assert seconds < 0.5 and peak < 8 << 20


def test_frobenius_example_q_defaults_to_four(capsys):
    code, out, _ = run_cli(["frobenius", "a4-example", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["field"] == "F4"


def test_deterministic_output(capsys):
    code1, out1, _ = run_cli(["burnside", "D8", "--json"], capsys)
    code2, out2, _ = run_cli(["burnside", "D8", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entry_point():
    # the module is runnable end to end in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "permchain.cli", "catalog", "list", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gamma-SD16" in proc.stdout


def test_text_output_marks_each_report_of_a_list(tmp_path, capsys):
    """Without --json, each report in a list starts on a '-' line of its own."""
    code, out, err = run_cli(["catalog", "verify", "abelian-V4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["entries:", "  -"]
    assert lines.count("  -") == 4
    names = [lines[i + 1] for i, ln in enumerate(lines) if ln == "  -"]
    assert names == [f"    name: abelian-V4-{tag}" for tag in ("res0", "res1", "res2", "shift")]
    path = tmp_path / "v4.json"
    assert run_cli(["catalog", "build", "abelian-V4", "--out", str(path)], capsys)[0] == 0
    code, out, err = run_cli(["check", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["complexes:", "  -"]
    assert lines.count("  -") == 4


def test_json_reports_are_written_as_dumps_writes_them(tmp_path, capsys):
    """Reports go out in batches of encoder pieces; the bytes are still
    those of json.dumps(report, indent=2) and a newline, on stdout and in
    --out files."""
    code, out, err = run_cli(["catalog", "build", "gamma-SD16", "--json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out.count("\n") > 3 * 8192
    path = tmp_path / "gsd16.json"
    assert run_cli(["catalog", "build", "gamma-SD16", "--out", str(path)], capsys)[0] == 0
    assert path.read_text() == out


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"group": "C2", "field": {}, "element": "[G/1]"}, "element.field: missing key 'p'"),
        (
            {"group": "C2", "field": {"p": "x"}, "element": "[G/1]"},
            "element.field: invalid literal for int() with base 10: 'x'",
        ),
        ([{"group": "C2"}], "element: expected an object, got list"),
        ({"group": "Z7", "field": {"p": 2}, "element": "[G/1]"}, "element.group: unknown catalog group 'Z7'"),
        ({"group": "C2", "field": {"p": 2}}, "element: missing key 'element'"),
    ],
    ids=["field-without-p", "p-not-a-number", "top-level-list", "unknown-group", "no-element"],
)
def test_element_files_fail_with_located_parse_errors(obj, message, tmp_path, capsys):
    """An element file is read as a complex file is: a missing or bad field
    once left a KeyError or ValueError traceback and exit code 1."""
    path = tmp_path / "u.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["frobenius", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
