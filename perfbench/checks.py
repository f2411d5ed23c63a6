"""Checks of the workloads' outputs, made apart from the program.

Each checker returns a list of problems (empty when the output is right).
Expected values come from closed forms stated here and from the
benchmark's own permutation arithmetic in groupcalc; nothing is compared
against stored copies of earlier output or against the program's own
`matches_expected`.
"""

from __future__ import annotations

from math import gcd

from groupcalc import PermGroup, elementary_abelian_subgroups, gaussian_binomial, hall_mobius, unit_count

# -- closed forms for h-marks -------------------------------------------------
#
# Each form maps (group, p-subgroup as a frozenset of element indices) to the
# h-mark, the one degree in which the Brauer construction has homology.


def trunc_form(period: int):
    """Truncated periodic resolution: homology k in the period degree at 1,
    and k in degree 0 at every nontrivial p-subgroup."""
    return lambda G, P: period if len(P) == 1 else 0


def gamma_form(top: int):
    """gamma for D_{2^n} (top 2) and SD_{2^n} (top 4): top at 1, top/2 at the
    noncentral subgroups of order two, 0 elsewhere."""

    def form(G, P):
        if len(P) == 1:
            return top
        if len(P) == 2 and not G.is_central(P):
            return top // 2
        return 0

    return form


def constant_form(value: int):
    return lambda G, P: value


def sum_form(*parts):
    return lambda G, P: sum(f(G, P) for f in parts)


# Periods of the truncated resolutions: C2 has Omega(k) = k, larger cyclic
# p-groups have period 2, generalized quaternion groups period 4.
TRUNC_PERIOD = {"C2": 1, "C4": 2, "C8": 2, "C9": 2, "Q8": 4}

# Catalog groups as products of cyclic factors, for counting characters.
ABELIAN_FACTORS = {"V4": (2, 2), "C6": (6,), "CpxCp3": (3, 3)}


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def h_mark_problems(where: str, G: PermGroup, h_by_name: dict, form) -> list:
    """h-marks keyed by class name against a closed form."""
    out = []
    for name, h in h_by_name.items():
        want = form(G, G.subgroup(name))
        if h != want:
            out.append(f"{where}: h-mark at {name} is {h}, closed form gives {want}")
    return out


def mark_sign_problems(where: str, marks: list, h_by_name: dict) -> list:
    """On a p-group the mark of the Lefschetz invariant at P is the Euler
    characteristic of C(P), which is (-1)^h(P)."""
    hs = list(h_by_name.values())
    if len(marks) != len(hs):
        return [f"{where}: {len(marks)} marks for {len(hs)} p-subgroup classes"]
    return [
        f"{where}: mark {m} at {name} but h = {h}"
        for m, (name, h) in zip(marks, h_by_name.items())
        if m != (-1) ** h
    ]


# -- abelian families -----------------------------------------------------------


def abelian_family_forms(G: PermGroup, p: int) -> list:
    """h-mark vectors of the inflated truncated resolutions over an abelian
    group: one per p-subgroup P with G/(P O_p'(G)) cyclic and nontrivial,
    with the quotient's period at every p-subgroup inside P, 0 elsewhere."""
    subs = G.subgroups()
    psubs = [X for X in subs if is_p_power(len(X), p)]
    pprime = frozenset(x for x in range(G.order) if _element_order(G, x) % p)
    full = frozenset(range(G.order))
    out = []
    for P in psubs:
        K = G.closure(P | pprime)
        if K == full:
            continue
        if not any(G.closure(K | {x}) == full for x in range(G.order)):
            continue
        period = 1 if G.order // len(K) == 2 else 2
        out.append({X: (period if X <= P else 0) for X in psubs})
    return out


def torsion_count(factors, q: int) -> int:
    """Nontrivial characters of a product of cyclic groups into F_q^x."""
    total = 1
    for n in factors:
        total *= gcd(n, q - 1)
    return total - 1


def _element_order(G: PermGroup, x: int) -> int:
    k, acc = 1, x
    while acc != G.identity:
        acc = int(G.table[acc, x])
        k += 1
    return k


# -- catalog-verify -----------------------------------------------------------


def catalog_entry_form(entry: str):
    """(catalog group, closed form) for an entry name; None for the
    resolutions inside abelian families, which are checked as a set."""
    if entry.startswith("trunc-"):
        g = entry[len("trunc-"):]
        return g, trunc_form(TRUNC_PERIOD[g])
    if entry.startswith("gamma-SD"):
        return entry[len("gamma-"):], gamma_form(4)
    if entry.startswith("gamma-D"):
        return entry[len("gamma-"):], gamma_form(2)
    _, g, kind = entry.split("-", 2)
    if kind == "shift":
        return g, constant_form(1)
    if kind.startswith("torsion"):
        return g, constant_form(0)
    return g, None


def verify_report_problems(name: str, reports: list, groups: dict, field_q: dict) -> list:
    """Every entry of `permchain catalog verify NAME`."""
    out = []
    res_vectors = []
    family = None
    for rep in reports:
        entry = rep["name"]
        where = f"verify {entry}"
        if rep.get("endotrivial") is not True:
            out.append(f"{where}: not endotrivial")
            continue
        gname, form = catalog_entry_form(entry)
        family = gname
        G = groups[gname]
        q = field_q[gname]
        p = _prime_of(q)
        h = rep["h_marks"]
        if form is None:
            res_vectors.append({G.subgroup(n): v for n, v in h.items()})
        else:
            out += h_mark_problems(where, G, h, form)
        if is_p_power(G.order, p):
            if "marks" not in rep:
                out.append(f"{where}: no marks over a p-group")
            else:
                out += mark_sign_problems(where, rep["marks"], h)
            if rep.get("orthogonal_unit") is not True:
                out.append(f"{where}: Lefschetz invariant is not an orthogonal unit")
        if rep.get("frobenius_stable") is not True:
            out.append(f"{where}: beta is not Frobenius stable")
    if name.startswith("abelian-"):
        G = groups[family]
        q = field_q[family]
        want = abelian_family_forms(G, _prime_of(q))
        key = lambda d: sorted((sorted(X), v) for X, v in d.items())
        if sorted(map(key, res_vectors)) != sorted(map(key, want)):
            out.append(f"verify {name}: resolution h-marks differ from the closed forms")
        n_tors = sum(1 for r in reports if "-torsion" in r["name"])
        n_shift = sum(1 for r in reports if r["name"].endswith("-shift"))
        if n_tors != torsion_count(ABELIAN_FACTORS[family], q) or n_shift != 1:
            out.append(f"verify {name}: {n_shift} shifts and {n_tors} torsion twists")
    elif len(reports) != 1:
        out.append(f"verify {name}: {len(reports)} entries, expected 1")
    return out


def _prime_of(q: int) -> int:
    p = 2
    while q % p:
        p += 1
    return p


# -- tensor-fields ------------------------------------------------------------


def twist_character_problems(where, field, exponents: dict, actual: dict, base_gen: int, twist_gen: int) -> list:
    """Over a cyclic group <a>: the local character after twisting by w is
    the base character times w, so at g = a^k it is base(a)^k * w(a)^k."""
    out = []
    for g, k in exponents.items():
        want = field.mul(field.power(base_gen, k), field.power(twist_gen, k))
        if actual[g] != want:
            out.append(f"{where}: local character at a^{k} is {actual[g]}, expected {want}")
    return out


# -- group-burnside -----------------------------------------------------------


def class_count(label: str) -> int:
    """Subgroup classes in closed form: 3n-1 for D_{2^n}, 3n-3 for Q_{2^n},
    3n-2 for SD_{2^n}, 11 for S4, 5 for A4, Gaussian-binomial sums for C2^r."""
    for prefix, shift in (("SD", 2), ("D", 1), ("Q", 3)):
        if label.startswith(prefix) and label[len(prefix):].isdigit():
            n = int(label[len(prefix):]).bit_length() - 1
            return 3 * n - shift
    if label.startswith("C2^"):
        return elementary_abelian_subgroups(int(label[3:]))
    return {"S4": 11, "A4": 5}[label]


def mark_table_problems(where: str, G: PermGroup, names: list, table: list) -> list:
    """The reported mark table against fixed cosets counted from the
    permutations; the named classes must also be pairwise non-conjugate."""
    subs = [G.subgroup(n) for n in names]
    seen = set()
    out = []
    for n, H in zip(names, subs):
        conj = G.conjugates(H)
        if seen & conj:
            out.append(f"{where}: class {n} repeats an earlier class")
        seen |= conj
    own = G.mark_table(subs)
    for i, row in enumerate(own):
        for j, v in enumerate(row):
            if table[i][j] != v:
                out.append(
                    f"{where}: mark |(G/{names[j]})^{names[i]}| is {table[i][j]}, counted {v}"
                )
    return out


def mobius_problems(where: str, G: PermGroup, r: int, entries: list) -> list:
    """Every mu(A, B) of C2^r against Hall's formula, and one entry per
    pair A <= B."""
    out = []
    pairs = sum(gaussian_binomial(r, k) * elementary_abelian_subgroups(k) for k in range(r + 1))
    if len(entries) != pairs:
        out.append(f"{where}: {len(entries)} Mobius entries, expected {pairs}")
    order = {}
    for e in entries:
        for n in (e["from"], e["to"]):
            if n not in order:
                order[n] = len(G.subgroup(n))
        k = (order[e["to"]] // order[e["from"]]).bit_length() - 1
        if e["mu"] != hall_mobius(k):
            out.append(f"{where}: mu({e['from']}, {e['to']}) = {e['mu']}, Hall gives {hall_mobius(k)}")
    return out


def unit_problems(where: str, G: PermGroup, names: list, reported: int) -> list:
    want = unit_count(G.mark_table([G.subgroup(n) for n in names]))
    if reported != want:
        return [f"{where}: {reported} units, sign-vector enumeration gives {want}"]
    return []
