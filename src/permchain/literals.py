"""Text and JSON formats for modules, virtual elements, and complexes.

Module literals are sums of twisted transitive terms:

    (w,1)*[G/<a>]^2 + [G/G]

with the parenthesized character giving one scalar per group generator,
the subgroup written through generator words (or '1' / 'G'), and '^' an
optional multiplicity.  Element literals use the same terms with signed
integer coefficients ('2*[G/1] - [G/G]').

A complex file is a JSON object with the group, the field, the module
literal per degree and each differential as a row-major list of scalar
strings, only those the complex holds (a missing one reads as zero); a
file may also hold several, as {"complexes": [...]}.  A differential is
written in one step: an object array of the field's canonical scalar
strings (`FqField.strings`) indexed by the re-ordered code array, listed
once.  It is read back, after every literal is parsed and
every entry count checked against the literals' dimensions, with one lookup
per entry in a plain copy of the inverse table (`FqField.code_of`).  Other
spellings such as ' 1 + w', 'w+1', '-1' or an unreduced '5' over F3, and
JSON integers, go through `FqField.parse`, so every spelling it accepts is
accepted.  Parsing validates eagerly, the shape of the object included, and
reports the offending location; a module literal whose dimension
(the sum of mult * |G : H| over its terms) passes `MAX_MODULE_DIM` is
refused before any module is built.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .complexes import BoundedComplex
from .errors import ParseError, PermchainError
from .ffield import GF, FqField
from .groups import FiniteGroup, Subgroup, group_from_spec, perm_to_cycles, subgroup_literal
from .invariants import TrivialSourceElement
from .linalg import FqMatrix
from .modules import (
    Character,
    KgModule,
    coset_basis,
    direct_sum,
    perm_module,
    trivial_character,
    twist,
)


# The largest module literal parsed: eight times the largest term of any
# catalog entry or tensor product of two (512, in gamma-D16 (x) gamma-D16).
MAX_MODULE_DIM = 4096


# -- term level ---------------------------------------------------------------


def parse_subgroup(G: FiniteGroup, text: str, where: str = "") -> Subgroup:
    lat = G.lattice()
    s = text.strip()
    if s == "1":
        return lat.trivial
    if s == "G":
        return lat.full
    if not (s.startswith("<") and s.endswith(">")):
        raise ParseError(f"bad subgroup expression {text!r}", where)
    try:
        gens = [G.element_by_word(w) for w in s[1:-1].split(",") if w.strip()]
    except PermchainError as e:
        raise ParseError(str(e), where)
    return lat.generated_by(gens)


def format_character(char: Character) -> str:
    return "(" + ",".join(char.field.format(v) for v in char.values) + ")"


def parse_character(G: FiniteGroup, fld: FqField, text: str, where: str = "") -> Character:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"bad character literal {text!r}", where)
    parts = s[1:-1].split(",")
    if len(parts) != len(G.generators):
        raise ParseError(
            f"character needs {len(G.generators)} generator values", where
        )
    try:
        values = [fld.parse(p) for p in parts]
        return Character(G, fld, values)
    except PermchainError as e:
        raise ParseError(str(e), where)


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>-?\d+)\s*\*\s*)?(?:(?P<char>\([^()]*\))\s*\*\s*)?"
    r"\[G/(?P<sub>[^\]]+)\]\s*(?:\^\s*(?P<mult>\d+))?\s*$"
)


def _split_terms(text: str):
    """Split on top-level +/- (outside parentheses); yields (sign, term)."""
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch in "()<>":
            depth += 1 if ch in "(<" else -1
        if ch in "+-" and depth == 0 and cur.strip():
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and depth == 0 and not cur.strip():
            sign = sign * (1 if ch == "+" else -1)
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur))
    return terms


def _terms(G: FiniteGroup, fld: FqField, text: str, where: str, kind: str) -> list:
    """(coefficient, character, subgroup, multiplicity) per term of a literal;
    terms of a module literal have neither signs nor coefficients."""
    out = []
    for sign, term in _split_terms(text):
        if kind == "module" and sign < 0:
            raise ParseError("module literals cannot have negative terms", where)
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad {kind} term {term.strip()!r}", where)
        if kind == "module" and m.group("coeff"):
            raise ParseError("module terms use '^' for multiplicity", where)
        spec = m.group("char")
        char = parse_character(G, fld, spec, where) if spec else trivial_character(G, fld)
        sub = parse_subgroup(G, m.group("sub"), where)
        try:
            coeff, mult = int(m.group("coeff") or 1), int(m.group("mult") or 1)
        except ValueError:  # past Python's limit on digits in one integer
            raise ParseError(f"number too long in {kind} term", where) from None
        out.append((sign * coeff, char, sub, mult))
    if kind == "module" and not out:
        raise ParseError("empty module literal", where)
    return out


def _literal_dim(G: FiniteGroup, terms) -> int:
    return sum(mult * (G.order // sub.order) for _, _, sub, mult in terms)


def _terms_module(G: FiniteGroup, fld: FqField, terms, where: str) -> KgModule:
    """The module of a literal's terms, refused before anything is built if
    its dimension passes `MAX_MODULE_DIM`."""
    dim = _literal_dim(G, terms)
    if dim > MAX_MODULE_DIM:
        raise ParseError(f"module of dimension {dim} exceeds the cap of {MAX_MODULE_DIM}", where)
    parts = []
    for _, char, sub, mult in terms:
        M = perm_module(G, sub, fld)
        parts += [M if char.is_trivial() else twist(M, char)] * mult
    return direct_sum(parts)


def parse_module_literal(G: FiniteGroup, fld: FqField, text: str, where: str = "") -> KgModule:
    """A direct sum of twisted transitive permutation modules."""
    return _terms_module(G, fld, _terms(G, fld, text, where, "module"), where)


def _grouped_summands(M: KgModule) -> list:
    """M's summands with equal ones brought together: one list per distinct
    summand, in the order of first appearance.  `format_module` writes the
    groups in this order and `parse_module_literal` reads them back in it, so
    the basis of a written complex must follow it too."""
    if M.labels is None:
        raise PermchainError("cannot print an unlabeled module")
    groups = {}
    for s in M.labels:
        groups.setdefault((s.character._elem_values, s.subgroup.elems), []).append(s)
    return list(groups.values())


def format_module(M: KgModule) -> str:
    """Canonical literal for a labeled module (summands grouped)."""
    terms = []
    for group in _grouped_summands(M):
        t = _term_body(group[0].character, group[0].subgroup)
        terms.append(t + f"^{len(group)}" if len(group) > 1 else t)
    return " + ".join(terms)


def _term_body(char: Character, sub: Subgroup) -> str:
    twisted = "" if char.is_trivial() else format_character(char) + "*"
    return f"{twisted}[G/{subgroup_literal(sub)}]"


def parse_element_literal(
    G: FiniteGroup, fld: FqField, text: str, where: str = ""
) -> TrivialSourceElement:
    out = TrivialSourceElement(G, fld)
    for coeff, char, sub, mult in _terms(G, fld, text, where, "element"):
        out.add_term(char, sub, coeff * mult)
    return out


def format_element(t: TrivialSourceElement) -> str:
    parts = []
    for char, sub, c in t.items():
        term = _term_body(char, sub) if abs(c) == 1 else f"{abs(c)}*{_term_body(char, sub)}"
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + term)
    return " ".join(parts) if parts else "0"


# -- labeled basis alignment ---------------------------------------------------


def _label_basis_order(M: KgModule) -> list:
    """For each summand in the order `format_module` writes them, the actual
    basis index of each coset in the canonical coset order: the summand's
    first point, whose stabilizer is the labeled subgroup, moved by each
    coset's least member."""
    eperms = M.element_perms()  # eperms[e, t]: the point element e sends t to
    out = []
    for s in (s for group in _grouped_summands(M) for s in group):
        out += eperms[coset_basis(s.subgroup).reps, s.indices[0]].tolist()
    return out


def complex_to_obj(C: BoundedComplex) -> dict:
    """JSON-ready form of a labeled complex, in the canonical label basis."""
    fld = C.field
    group_spec = C.group.catalog_name or ";".join(perm_to_cycles(g) for g in C.group.generators)
    strings = np.array(fld.strings, dtype=object)
    orders = {}
    modules = {}
    for i in C.degrees():
        M = C.module_at(i)
        if M.dim == 0:
            continue
        orders[i] = _label_basis_order(M)
        modules[str(i)] = format_module(M)
    diffs = {}
    for i, d in C.diffs.items():
        if i not in orders or (i - 1) not in orders:
            continue
        codes = d.matrix.a[np.ix_(orders[i - 1], orders[i])]
        diffs[str(i)] = strings[codes.ravel()].tolist()
    return {
        "group": group_spec,
        "field": {"p": fld.p, "n": fld.n},
        "lo": C.lo,
        "modules": modules,
        "differentials": diffs,
    }


def _json_type(v) -> str:
    return {dict: "object", list: "list", str: "string", bool: "boolean"}.get(
        type(v), "null" if v is None else "number"
    )


def _integer(v, where: str) -> int:
    """A degree: a JSON integer or a string holding one."""
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return int(v)
        except ValueError:
            pass
    raise ParseError(f"expected an integer, got {v!r}", where)


def _by_degree(raw, where: str) -> dict:
    """An object keyed by integer degrees, as {degree: value}."""
    if not isinstance(raw, dict):
        raise ParseError(f"expected an object keyed by degree, got {_json_type(raw)}", where)
    out = {}
    for key, value in raw.items():
        d = _integer(key, where)
        if d in out:
            raise ParseError(f"degree {d} given twice", where)
        out[d] = value
    return out


def _scalar_code(fld: FqField, v, where: str) -> int:
    """One differential entry: a table lookup, else `FqField.parse`."""
    code = fld.code_of.get(v) if isinstance(v, str) else None
    if code is not None:
        return code
    try:
        return fld.parse(str(v))
    except PermchainError as e:
        raise ParseError(str(e), where)


def _group_and_field(obj, where: str, keys):
    """The group and the field of a complex or element object holding `keys`."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {_json_type(obj)}", where)
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing key {key!r}", where)
    try:
        G = group_from_spec(str(obj["group"]))
    except PermchainError as e:
        raise ParseError(str(e), f"{where}.group")
    fspec = obj["field"]
    try:
        fld = GF(int(fspec["p"]), int(fspec.get("n", 1)))
    except Exception as e:
        raise ParseError(f"missing key {e}" if isinstance(e, KeyError) else str(e), f"{where}.field")
    return G, fld


def complex_from_obj(obj: dict) -> BoundedComplex:
    """A complex from its JSON object.  Every literal is parsed, and every
    differential counted against their dimensions, before modules are built."""
    G, fld = _group_and_field(obj, "complex", ("group", "field", "modules"))
    mods_raw = _by_degree(obj["modules"], "complex.modules")
    degrees = sorted(mods_raw)
    if not degrees:
        raise ParseError("no modules given", "complex.modules")
    lo = _integer(obj.get("lo", degrees[0]), "complex.lo")
    if degrees != list(range(degrees[0], degrees[-1] + 1)) or degrees[0] != lo:
        raise ParseError("module degrees must be consecutive from lo", "complex.modules")
    terms = []
    for d in degrees:
        where = f"complex.modules.{d}"
        if not isinstance(mods_raw[d], str):
            raise ParseError(f"expected a module literal, got {_json_type(mods_raw[d])}", where)
        terms.append(_terms(G, fld, mods_raw[d], where, "module"))
    dims = [_literal_dim(G, t) for t in terms]
    codes = dict(fld.code_of)  # a plain copy: a lookup in it skips the read-only proxy
    diffs = {}
    for i, flat in _by_degree(obj.get("differentials", {}), "complex.differentials").items():
        where = f"complex.differentials.{i}"
        if not (lo + 1 <= i <= degrees[-1]):
            raise ParseError(f"differential degree {i} out of range", "complex.differentials")
        if not isinstance(flat, list):
            raise ParseError(f"expected a list of scalars, got {_json_type(flat)}", where)
        rows, cols = dims[i - 1 - lo], dims[i - lo]
        if len(flat) != rows * cols:
            raise ParseError(f"expected {rows * cols} entries, got {len(flat)}", where)
        try:
            a = np.fromiter(map(codes.__getitem__, flat), dtype=np.int16, count=len(flat))
        except (KeyError, TypeError):  # a spelling the table does not hold
            a = np.array(
                [_scalar_code(fld, v, f"{where}[{k}]") for k, v in enumerate(flat)],
                dtype=np.int16,
            )
        diffs[i] = FqMatrix(fld, a.reshape(rows, cols))
    mods = [_terms_module(G, fld, t, f"complex.modules.{d}") for d, t in zip(degrees, terms)]
    try:
        return BoundedComplex(G, fld, lo, mods, diffs)
    except PermchainError as e:
        raise ParseError(str(e), "complex")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", path)
    except OSError as e:
        raise ParseError(str(e), path)


def load_complexes(path: str):
    """The complexes of a complex file in file order, and whether the file
    holds several: one complex object, or {"complexes": [...]} as
    `catalog build` writes for a registry name with more than one entry."""
    obj = _load_json(path)
    if not (isinstance(obj, dict) and "complexes" in obj):
        return [complex_from_obj(obj)], False
    items = obj["complexes"]
    if not isinstance(items, list) or not items:
        raise ParseError("expected a nonempty list of complexes", "complexes")
    out = []
    for k, item in enumerate(items):
        try:
            out.append(complex_from_obj(item))
        except ParseError as e:
            raise ParseError(str(e), f"complexes[{k}]") from None
    return out, True


def element_from_obj(obj: dict) -> TrivialSourceElement:
    G, fld = _group_and_field(obj, "element", ("group", "field", "element"))
    return parse_element_literal(G, fld, str(obj["element"]), "element")


def load_element(path: str) -> TrivialSourceElement:
    return element_from_obj(_load_json(path))
