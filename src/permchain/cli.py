"""Batch command-line interface.

Subcommands: group-info, check, xi, lefschetz, burnside, catalog
{list,build,verify}, frobenius.  Every report is a plain dict rendered
either as indented JSON (--json) or as simple text; identical inputs give
byte-identical output.  Exit codes: 0 on success, 2 on validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _esc

from .burnside import burnside_units, idempotents, mark_table, marks
from .complexes import endotrivial_report, xi
from .constructions import a4_frobenius_example, build_entries, catalog_names
from .errors import ParseError, PermchainError
from .ffield import field_from_q, is_prime
from .groups import class_name, group_from_spec, is_p_power, mobius_columns, perm_to_cycles
from .invariants import (
    beta_direct,
    beta_from_xi,
    is_frobenius_stable,
    is_orthogonal_unit_pgroup,
    lefschetz,
)
from .literals import complex_to_obj, format_element, load_complexes, load_element


def _emit(report: dict, args) -> None:
    """Write the report to --out or stdout: as JSON (`_write_json`) with
    --json or --out, as text otherwise, and a newline."""
    out = getattr(args, "out", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if getattr(args, "json", False) or out:
            _write_json(report, fh)
        else:
            fh.write(_render_text(report))
        fh.write("\n")


_BATCH = 8192  # pieces held before a write


def _json_key(k) -> str:
    if isinstance(k, str):
        return _esc(k)
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return '"' + json.dumps(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write_json(obj, fh) -> None:
    """Write `obj` to `fh` as the bytes of `json.dumps(obj, indent=2)`.

    The pieces go out in batches of about `_BATCH`, also from inside a long
    list: a complex's differentials are flat lists of up to 10^5 strings,
    and joining a whole report, or one such list, before writing would hold
    every encoded entry at once and raise the peak memory.  A list of
    strings is joined a slice at a time; other strings and ints are written
    inline; containers recurse, and the other scalars are `json.dumps`'s.
    """
    pieces = []
    append = pieces.append

    def flush():
        fh.write("".join(pieces))
        pieces.clear()

    def put(v, pad):
        if isinstance(v, dict):
            if not v:
                append("{}")
                return
            inner = pad + "  "
            head = "{\n" + inner
            for k, x in v.items():
                k = _esc(k) if type(k) is str else _json_key(k)
                t = type(x)
                if t is str:
                    append(head + k + ": " + _esc(x))
                elif t is int:
                    append(head + k + ": " + int.__repr__(x))
                else:
                    append(head + k + ": ")
                    put(x, inner)
                head = ",\n" + inner
                if len(pieces) >= _BATCH:
                    flush()
            append("\n" + pad + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                append("[]")
                return
            inner = pad + "  "
            head, sep = "[\n" + inner, ",\n" + inner
            if all(type(x) is str for x in v):
                for i in range(0, len(v), _BATCH):
                    append(head + sep.join(map(_esc, v[i:i + _BATCH])))
                    head = sep
                    flush()
            else:
                for x in v:
                    t = type(x)
                    if t is str:
                        append(head + _esc(x))
                    elif t is int:
                        append(head + int.__repr__(x))
                    else:
                        append(head)
                        put(x, inner)
                    head = sep
                    if len(pieces) >= _BATCH:
                        flush()
            append("\n" + pad + "]")
        else:  # bool, None, float, a subclass, or what JSON cannot hold (TypeError)
            append(json.dumps(v))

    put(obj, "")
    flush()


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_render_text_scalar(v)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")  # marks where each report or row starts
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_render_text_scalar(v)}")
        return "\n".join(lines)
    return f"{pad}{_render_text_scalar(obj)}"


def _render_text_scalar(v):
    return v if isinstance(v, str) else json.dumps(v)


def _character_json(char) -> dict:
    Q = char.group
    return {
        Q.gen_names[i]: char.field.format(v) for i, v in enumerate(char.values)
    }


def _xi_json(inv) -> dict:
    lat = inv.group.lattice()
    out = {}
    for cid in sorted(inv.entries):
        e = inv.entries[cid]
        out[class_name(lat, e.subgroup)] = {
            "h": e.h,
            "character": _character_json(e.character),
        }
    return out


def _beta_json(b) -> list:
    lat = b.group.lattice()
    out = []
    for cid in sorted(b.entries):
        e = b.entries[cid]
        out.append(
            {
                "subgroup_class": class_name(lat, e.subgroup),
                "epsilon": e.epsilon,
                "character": _character_json(e.character),
            }
        )
    return out


# -- subcommands ----------------------------------------------------------------


def cmd_group_info(args) -> dict:
    p = args.p
    if not is_prime(p):
        raise PermchainError(f"-p {p} is not a prime")
    G = group_from_spec(args.group)
    L = G.lattice()
    names = [class_name(L, rep) for rep in L.class_reps]
    classes = [
        {"name": names[cid], "order": rep.order, "class_size": len(members), "normal": rep.is_normal}
        for cid, (rep, members) in enumerate(zip(L.class_reps, L.classes))
    ]
    psub = [names[P.class_id] for P in L.p_class_reps(p)]
    normalizers = {}
    for P in L.p_class_reps(p):
        n = G.order // len(L.classes[P.class_id])  # |G : N_G(P)| conjugates of P
        normalizers[names[P.class_id]] = {"normalizer_order": n, "quotient_order": n // P.order}
    poset = L.normal_p_subgroups(p)
    rows = [[] for _ in poset]  # the comparable pairs by (from, to)
    for b, col in enumerate(mobius_columns(poset)):
        to = names[poset[b].class_id]
        for a, v in col.items():
            rows[a].append({"from": names[poset[a].class_id], "to": to, "mu": v})
    return {
        "group": G.describe(),
        "order": G.order,
        "generators": {
            G.gen_names[i]: perm_to_cycles(g) for i, g in enumerate(G.generators)
        },
        "subgroup_classes": classes,
        "p": p,
        "p_subgroup_classes": psub,
        "p_normalizers": normalizers,
        "normal_p_poset_mobius": [e for row in rows for e in row],
    }


def _per_complex(report_of):
    """A subcommand on a complex file: the report of its complex, or for a
    file of several {"complexes": [report, ...]} in file order."""

    def cmd(args) -> dict:
        complexes, several = load_complexes(args.file)
        reports = [report_of(C) for C in complexes]
        return {"complexes": reports} if several else reports[0]

    return cmd


def _violations_json(G, violations) -> dict:
    """By class name, the degrees and dims of each nonzero local homology."""
    lat = G.lattice()
    return {
        class_name(lat, lat.class_reps[cid]): [{"degree": d, "dim": dim} for d, dim in degs]
        for cid, degs in sorted(violations.items())
    }


def _check_report(C) -> dict:
    rep = endotrivial_report(C)
    out = {
        "group": C.group.describe(),
        "field": {"p": C.field.p, "n": C.field.n, "q": C.field.q},
        "dims": {str(i): C.module_at(i).dim for i in C.degrees()},
        "endotrivial": rep.ok,
    }
    if not rep.ok:
        out["violations"] = _violations_json(C.group, rep.violations)
        return out
    out["xi"] = _xi_json(rep.xi)
    out["beta"] = _beta_json(beta_from_xi(rep.xi))
    return out


def _xi_report(C) -> dict:
    inv = xi(C)
    return {
        "group": C.group.describe(),
        "field": {"p": C.field.p, "n": C.field.n, "q": C.field.q},
        "xi": _xi_json(inv),
    }


def _lefschetz_report(C) -> dict:
    t = lefschetz(C)
    out = {
        "group": C.group.describe(),
        "element": format_element(t),
    }
    if is_p_power(C.group.order, C.field.p):
        b = t.to_burnside()
        out["marks"] = [int(v) for v in marks(b)]
        out["orthogonal_unit"] = is_orthogonal_unit_pgroup(t)
    return out


cmd_check = _per_complex(_check_report)
cmd_xi = _per_complex(_xi_report)
cmd_lefschetz = _per_complex(_lefschetz_report)


def cmd_burnside(args) -> dict:
    G = group_from_spec(args.group)
    L = G.lattice()
    units = burnside_units(G)  # checks the class bound before the work below
    names = [class_name(L, H) for H in L.class_reps]
    tbl = mark_table(G)
    denoms = {
        name: math.lcm(*(Fraction(c).denominator for c in e.coeffs))
        for name, e in zip(names, idempotents(G))
    }
    return {
        "group": G.describe(),
        "classes": names,
        "mark_table": [[int(v) for v in row] for row in tbl],
        "idempotent_denominators": denoms,
        "unit_count": len(units),
        "units": [list(u.coeffs) for u in units],
    }


def cmd_catalog(args) -> dict:
    if args.action == "list":
        items = []
        for name in catalog_names():
            for e in build_entries(name):
                items.append(
                    {
                        "name": e.name,
                        "registry": name,
                        "group": e.group.describe(),
                        "field": f"F{e.field.q}",
                        "dims": {str(i): e.complex.module_at(i).dim for i in e.complex.degrees()},
                    }
                )
        return {"entries": items}
    entries = build_entries(args.name)
    if args.action == "build":
        objs = [complex_to_obj(e.complex) for e in entries]
        return objs[0] if len(objs) == 1 else {"complexes": objs}
    # verify
    reports = []
    for e in entries:
        rep, inv = e.verify()
        if inv is None:
            rep["violations"] = _violations_json(e.group, rep["violations"])
        else:
            rep["xi"] = _xi_json(inv)
            b = beta_from_xi(inv)
            rep["beta"] = _beta_json(b)
            rep["frobenius_stable"] = is_frobenius_stable(b)
            t = lefschetz(e.complex)
            rep["lefschetz"] = format_element(t)
            if is_p_power(e.group.order, e.field.p):
                rep["marks"] = [int(v) for v in marks(t.to_burnside())]
                rep["orthogonal_unit"] = is_orthogonal_unit_pgroup(t)
        reports.append(rep)
    return reports[0] if len(reports) == 1 else {"entries": reports}


def cmd_frobenius(args) -> dict:
    if args.file == "a4-example":
        u, beta, stable = a4_frobenius_example(field_from_q(4 if args.q is None else args.q))
    else:
        u = load_element(args.file)
        if args.q is not None and args.q != u.field.q:
            raise ParseError(f"element file field F{u.field.q} does not match -q {args.q}")
        beta = beta_direct(u)
        stable = is_frobenius_stable(beta)
    return {
        "group": u.group.describe(),
        "field": f"F{u.field.q}",
        "element": format_element(u),
        "beta": _beta_json(beta),
        "frobenius_stable": stable,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no per-call state."""
    ap = argparse.ArgumentParser(
        prog="permchain",
        description="exact computations with complexes of p-permutation modules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write the report to a file (JSON)")

    p = sub.add_parser("group-info", help="subgroup lattice and p-local data")
    p.add_argument("group", help="catalog name or ';'-separated cycle generators")
    p.add_argument("-p", type=int, default=2, help="prime (default 2)")
    common(p)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("check", help="endotriviality report for a complex file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("xi", help="h-marks and local characters of a complex file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("lefschetz", help="alternating sum of a labeled complex")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_lefschetz)

    p = sub.add_parser(
        "burnside",
        help="mark table, idempotents and units",
        description="Mark table, idempotents and units of B(G).  "
        "idempotent_denominators: least positive d with d*e_H integral "
        "in B(G); not |N_G(H)|.",
    )
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_burnside)

    p = sub.add_parser("catalog", help="built-in complex constructions")
    p.add_argument("action", choices=["list", "build", "verify"])
    p.add_argument("name", nargs="?", help="registry name for build/verify")
    common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("frobenius", help="local characters and stability of an element")
    p.add_argument("file", help="element file or 'a4-example'")
    p.add_argument(
        "-q", type=int, default=None,
        help="field size: of the example (default 4), or that of the element file",
    )
    common(p)
    p.set_defaults(func=cmd_frobenius)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "catalog" and args.action in ("build", "verify") and not args.name:
        print("error: catalog build/verify needs a name", file=sys.stderr)
        return 2
    try:
        report = args.func(args)
    except (ParseError, PermchainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
