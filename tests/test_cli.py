import json
import subprocess
import sys
from fractions import Fraction

import pytest

from permchain.burnside import idempotent
from permchain.cli import main
from permchain.constructions import build_entries
from permchain.groups import class_name, group_from_spec
from permchain.literals import complex_to_obj


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
    monkeypatch.setattr("permchain.cli.idempotent", refuse)
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
