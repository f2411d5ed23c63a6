"""The benchmark's three workloads: their operations and their checks.

A workload is a list of units; a unit is the operations on one object, in
a fixed order (a complex is built before it is round-tripped).  The
seed shuffles the order of the units and nothing else, so every seed runs
the same operations (group-burnside keeps its C2^5 unit last; see
burnside_units).  Program functions are reached through their modules
at call time, so that a traced run sees its wrappers.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from permchain import cli, complexes, constructions, groups, invariants, literals, modules
from permchain.ffield import GF

import checks
from groupcalc import FieldCalc, PermGroup, parse_generators, parse_spec


class Op:
    """One timed operation.  `fn(outputs)` returns the output kept for the
    checks; `span` names the CLI command it runs, if any; `known_fault`
    marks the round trips that fail today because of the complex_to_obj
    label-order fault."""

    __slots__ = ("name", "fn", "span", "known_fault")

    def __init__(self, name, fn, span=None, known_fault=False):
        self.name = name
        self.fn = fn
        self.span = span
        self.known_fault = known_fault


class OpFailed(Exception):
    pass


def run_cli(argv, expect_rc=0):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc != expect_rc:
        raise OpFailed(f"permchain {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue(), err.getvalue()


# -- catalog-verify -----------------------------------------------------------

CATALOG_NAMES = [
    "abelian-C6", "abelian-CpxCp3", "abelian-V4", "gamma-D16", "gamma-D8",
    "gamma-SD16", "trunc-C2", "trunc-C4", "trunc-C8", "trunc-C9", "trunc-Q8",
]
CATALOG_Q = {"C2": 2, "C4": 2, "C8": 2, "C9": 3, "Q8": 2, "D8": 2, "D16": 2,
             "SD16": 2, "V4": 2, "C6": 3, "CpxCp3": 3}
CATALOG_FAULTS = {"gamma-SD16"}


def _verify(name):
    return lambda outputs: run_cli(["catalog", "verify", name, "--json"])[1]


def _build_and_parse(name):
    """`catalog build NAME`, then each complex parsed as `permchain check` does."""

    def op(outputs):
        obj = json.loads(run_cli(["catalog", "build", name, "--json"])[1])
        objs = obj["complexes"] if "complexes" in obj else [obj]
        return [literals.complex_from_obj(o) for o in objs]

    return op


def catalog_units(rng):
    """verify then round trip on each name, as one unit: whichever runs first
    builds the entries, and the build's garbage raised the peak memory of a
    verify that came right after it (54 MB against 51 MB)."""
    units = [
        [Op(f"verify:{name}", _verify(name), span="cli.catalog-verify"),
         Op(f"roundtrip:{name}", _build_and_parse(name), span="cli.catalog-build",
            known_fault=name in CATALOG_FAULTS)]
        for name in CATALOG_NAMES
    ]
    rng.shuffle(units)
    return units


def catalog_check(outputs):
    pgroups = {g: _perm_group(groups.catalog(g)) for g in CATALOG_Q}
    problems = []
    for name in CATALOG_NAMES:
        text = outputs.get(f"verify:{name}")
        if text is None:
            continue
        doc = json.loads(text)
        reports = doc["entries"] if "entries" in doc else [doc]
        problems += checks.verify_report_problems(name, reports, pgroups, CATALOG_Q)
        parsed = outputs.get(f"roundtrip:{name}")
        if parsed is None:
            continue
        built = [e.complex for e in constructions.build_entries(name)]
        if len(parsed) != len(built) or len(parsed) != len(reports):
            problems.append(f"roundtrip {name}: {len(parsed)} complexes for {len(built)} built")
            continue
        for C, D, rep in zip(built, parsed, reports):
            if D.dims() != C.dims():
                problems.append(f"roundtrip {rep['name']}: dims {D.dims()} != {C.dims()}")
            got = literals.format_element(invariants.lefschetz(D))
            if got != rep["lefschetz"]:
                problems.append(f"roundtrip {rep['name']}: Lefschetz {got} != {rep['lefschetz']}")
    return problems


# -- tensor-fields ------------------------------------------------------------

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}

# kind -> (fields, closed form of the h-marks from the factors' forms)
GAMMA = checks.gamma_form(2)
TENSOR_KINDS = {
    "gD8xgD8": ((2, 4, 8), checks.sum_form(GAMMA, GAMMA)),
    "gD8xgD8dual": ((2, 4, 8), checks.constant_form(0)),
    "gD8s1xgD8": ((2, 4, 8), checks.sum_form(GAMMA, checks.constant_form(1), GAMMA)),
    "gD16": ((2, 4, 8), GAMMA),
    "tC8xtC8": ((2, 4, 8), checks.sum_form(checks.trunc_form(2), checks.trunc_form(2))),
    "tQ8": ((2, 4, 8), checks.trunc_form(4)),
    "tC9xtC9": ((3, 9), checks.sum_form(checks.trunc_form(2), checks.trunc_form(2))),
}
TENSOR_FAULTS = {"gD8xgD8", "gD8xgD8dual", "gD8s1xgD8"}
C6_TWISTS = [(i, j) for i in range(4) for j in range(2)]  # (generator, nontrivial character)


def _field(q):
    return GF(*FIELDS[q])


def _c6_parts(fld):
    G = groups.catalog("C6")
    gens = constructions.abelian_generators(G, fld)
    chars = [c for c in modules.all_characters(G, fld) if not c.is_trivial()]
    return gens, chars


def build_complex(kind, q):
    fld = _field(q)
    cx, k = complexes, constructions
    if kind.startswith("C6gen"):
        i, j = int(kind[5]), int(kind[-1])
        gens, chars = _c6_parts(fld)
        return cx.twist_complex(gens[i].complex, chars[j])
    if kind == "gD16":
        return k.gamma_dihedral(4, fld)
    if kind == "tQ8":
        return k.truncated_periodic_resolution(groups.catalog("Q8"), fld)
    if kind in ("tC8xtC8", "tC9xtC9"):
        t = k.truncated_periodic_resolution(groups.catalog(kind[1:3]), fld)
        return cx.tensor_complex(t, t)
    g = k.gamma_dihedral(3, fld)
    if kind == "gD8xgD8":
        return cx.tensor_complex(g, g)
    if kind == "gD8xgD8dual":
        return cx.tensor_complex(g, cx.dual_complex(g))
    return cx.tensor_complex(cx.shift(g, 1), g)


def tensor_items():
    items = [(kind, q) for kind, (qs, _) in TENSOR_KINDS.items() for q in qs]
    items += [(f"C6gen{i}tw{j}", 4) for i, j in C6_TWISTS]
    return items


def _xi_op(kind, q):
    def op(outputs):
        C = build_complex(kind, q)
        return C, complexes.endotrivial_report(C), complexes.xi(C)

    return op


def _roundtrip_op(kind, q):
    def op(outputs):
        C = outputs[f"xi:{kind}@F{q}"][0]
        text = json.dumps(literals.complex_to_obj(C))
        return literals.complex_from_obj(json.loads(text))

    return op


def tensor_units(rng):
    units = []
    for kind, q in tensor_items():
        tag = f"{kind}@F{q}"
        units.append([
            Op(f"xi:{tag}", _xi_op(kind, q)),
            Op(f"roundtrip:{tag}", _roundtrip_op(kind, q), known_fault=kind in TENSOR_FAULTS),
        ])
    rng.shuffle(units)
    return units


def _own_subgroup(G, own, P):
    return frozenset(own.index[G.elements[x]] for x in P.elems)


def tensor_check(outputs):
    problems = []
    own_groups = {}
    h_by_kind = {}
    for kind, q in tensor_items():
        tag = f"{kind}@F{q}"
        got = outputs.get(f"xi:{tag}")
        if got is None:
            continue
        C, rep, inv = got
        if not rep.ok:
            problems.append(f"{tag}: not endotrivial")
            continue
        G = C.group
        if id(G) not in own_groups:
            own_groups[id(G)] = _perm_group(G)
        own = own_groups[id(G)]
        if kind in TENSOR_KINDS:
            form = TENSOR_KINDS[kind][1]
            for e in inv.entries.values():
                if any(v != 1 for v in e.character.values):
                    problems.append(f"{tag}: nontrivial local character over a p-group")
        else:
            form = _twist_form(kind, C.field)
            problems += _twist_problems(tag, kind, C, inv, own)
        hs = {}
        for e in inv.entries.values():
            P = _own_subgroup(G, own, e.subgroup)
            hs[P] = e.h
            if e.h != form(own, P):
                problems.append(f"{tag}: h-mark {e.h} at order {len(P)}, closed form {form(own, P)}")
        h_by_kind.setdefault(kind, []).append((q, hs))
        D = outputs.get(f"roundtrip:{tag}")
        if D is not None:
            if D.dims() != C.dims():
                problems.append(f"{tag}: round trip dims {D.dims()} != {C.dims()}")
            a = literals.format_element(invariants.lefschetz(C))
            b = literals.format_element(invariants.lefschetz(D))
            if a != b:
                problems.append(f"{tag}: round trip Lefschetz {b} != {a}")
    for kind, per_field in h_by_kind.items():
        base = per_field[0][1]
        for q, hs in per_field[1:]:
            if hs != base:
                problems.append(f"{kind}: h-marks over F{q} differ from the prime field")
    return problems


# h-marks of the C6 generators over F4 (p = 2): the resolution is inflated
# from C6/C3 = C2, whose period is 1; twisting leaves h-marks alone.
C6_GEN_FORMS = {"res0": checks.trunc_form(1), "shift": checks.constant_form(1),
                "torsion0": checks.constant_form(0), "torsion1": checks.constant_form(0)}


def _twist_form(kind, fld):
    gens, _ = _c6_parts(fld)
    return C6_GEN_FORMS[gens[int(kind[5])].name.split("-")[-1]]


def _twist_problems(tag, kind, C, inv, own):
    """Local characters of a twisted C6 generator: base character times the
    twist, where the base is trivial except on the torsion generators (a
    one-dimensional module k_t, whose local character is t itself)."""
    i, j = int(kind[5]), int(kind[-1])
    gens, chars = _c6_parts(C.field)
    base_gen = 1
    if "-torsion" in gens[i].name:
        base_gen = gens[i].complex.module_at(0).labels[0].character.values[0]
    G = C.group
    a = own.gens["a"]
    exps = {}
    acc = tuple(range(len(a)))
    for k in range(G.order):
        exps[G.index[acc]] = k
        acc = tuple(a[x] for x in acc)
    calc = FieldCalc(C.field.p, C.field.modulus)
    problems = []
    for e in inv.entries.values():
        actual = {g: inv.value_at(e.subgroup, g)[1] for g in exps}
        problems += checks.twist_character_problems(
            f"{tag} at order {e.subgroup.order}", calc, exps, actual, base_gen, chars[j].values[0]
        )
    return problems


# -- group-burnside -----------------------------------------------------------

GROUPS = [
    ("D32", "D32"), ("Q32", "Q32"), ("SD32", "SD32"), ("D64", "D64"),
    ("S4", "(0 1 2 3);(0 1)"), ("A4", "A4"),
    ("C2^4", "(0 1);(2 3);(4 5);(6 7)"),
    ("C2^5", "(0 1);(2 3);(4 5);(6 7);(8 9)"),
]
REJECTED = {"C2^4", "C2^5"}


def _group_info(spec):
    return lambda outputs: json.loads(run_cli(["group-info", spec, "--json"])[1])


def _burnside(label, spec):
    rc = 2 if label in REJECTED else 0
    return lambda outputs: run_cli(["burnside", spec, "--json"], expect_rc=rc)


def burnside_units(rng):
    """group-info then burnside on each group, as one unit; the C2^5 unit
    runs last.  A pinned group keeps its lattice, and burnside leaves the
    lattice's Mobius cache behind (17 MB on C2^5, one key tuple per pair),
    which would otherwise add to the peak memory of whatever ran after it."""
    units = [
        [Op(f"group-info:{label}", _group_info(spec), span="cli.group-info"),
         Op(f"burnside:{label}", _burnside(label, spec), span="cli.burnside")]
        for label, spec in GROUPS
    ]
    head, last = units[:-1], units[-1]  # GROUPS ends with C2^5
    rng.shuffle(head)
    return head + [last]


def pin_spec_groups():
    """Keep every group the CLI builds from a spec alive for the run.

    burnside._TABLE_CACHE is keyed by id(G); once a spec-built group is
    collected, a later group can reuse its id and be handed a stale mark
    table, which depends on when the collector runs.  Holding the groups
    makes every run do the same work."""
    made = []
    orig = cli.group_from_spec

    def pinned(spec, *a, **k):
        G = orig(spec, *a, **k)
        made.append(G)
        return G

    cli.group_from_spec = pinned


def burnside_check(outputs):
    problems = []
    for label, spec in GROUPS:
        info = outputs.get(f"group-info:{label}")
        if info is None:
            continue
        where = f"group-info {label}"
        if spec.startswith("("):
            G = PermGroup(*parse_spec(spec))
            if G.elements != PermGroup(*parse_generators(info["generators"])).elements:
                problems.append(f"{where}: generators {info['generators']} do not generate {spec}")
        else:
            G = PermGroup(*parse_generators(info["generators"]))
        if G.order != info["order"]:
            problems.append(f"{where}: order {info['order']}, the generators give {G.order}")
        want = checks.class_count(label)
        if len(info["subgroup_classes"]) != want:
            problems.append(f"{where}: {len(info['subgroup_classes'])} classes, closed form {want}")
        if label.startswith("C2^"):
            problems += checks.mobius_problems(where, G, int(label[3:]), info["normal_p_poset_mobius"])
        got = outputs.get(f"burnside:{label}")
        if got is None:
            continue
        rc, out, err = got
        where = f"burnside {label}"
        if label in REJECTED:
            if f"error: {want} subgroup classes" not in err:
                problems.append(f"{where}: rejection does not name {want} classes: {err.strip()}")
            continue
        rep = json.loads(out)
        if len(rep["classes"]) != want:
            problems.append(f"{where}: {len(rep['classes'])} classes, closed form {want}")
            continue
        problems += checks.mark_table_problems(where, G, rep["classes"], rep["mark_table"])
        problems += checks.unit_problems(where, G, rep["classes"], rep["unit_count"])
        if len(rep["units"]) != rep["unit_count"]:
            problems.append(f"{where}: {len(rep['units'])} units listed, count says {rep['unit_count']}")
    return problems


# -- registry -----------------------------------------------------------------


def _perm_group(G):
    return PermGroup(G.generators, G.gen_names)


WORKLOADS = {
    "catalog-verify": (catalog_units, catalog_check),
    "tensor-fields": (tensor_units, tensor_check),
    "group-burnside": (burnside_units, burnside_check),
}


def prepare(workload, seed):
    """The workload's operations in the order the seed gives."""
    make_units, check = WORKLOADS[workload]
    if workload == "group-burnside":
        pin_spec_groups()
    units = make_units(random.Random(seed))
    return [op for unit in units for op in unit], check
