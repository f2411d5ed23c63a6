"""Lefschetz invariants, the local character tuple of an orthogonal unit,
Frobenius stability, and the faithful decomposition of the h-mark data.

Virtual p-permutation elements here are restricted to integer combinations
of globally twisted transitive permutation modules k_w (x) k[G/H]; that is
exactly the shape of every complex the catalog constructs, and over p-groups
it is the whole trivial source ring (identified with the Burnside ring).
"""

from __future__ import annotations

from dataclasses import dataclass

from .burnside import BurnsideElement, marks
from .complexes import BoundedComplex, XiEntry, XiInvariant
from .errors import (
    IncompatibleHandles,
    NonCharacterTrace,
    NotUnitDimension,
    PermchainError,
    PGroupOnly,
    UnlabeledComponent,
)
from .ffield import FqField
from .groups import FiniteGroup, Quotient, Subgroup, is_p_power, mobius_columns, quotient
from .modules import (
    Character,
    KgModule,
    fixed_basis_points,
    local_quotient,
    monomial_trace,
    perm_module,
    point_action,
    twist,
)


# -- virtual twisted permutation elements -----------------------------------


class TrivialSourceElement:
    """Integer combination of classes [k_w (x) k[G/H]].

    Keys canonicalize the label: the character by its full value table and
    the subgroup by its conjugacy class.
    """

    def __init__(self, group: FiniteGroup, field: FqField, terms=None):
        self.group = group
        self.field = field
        self.coeffs = {}
        self._chars = {}
        if terms:
            for char, sub, mult in terms:
                self.add_term(char, sub, mult)

    def add_term(self, char: Character, sub: Subgroup, mult: int):
        if char.group is not self.group or char.field != self.field or sub.parent is not self.group:
            raise IncompatibleHandles("term character or subgroup over the wrong handles")
        key = (char._elem_values, sub.class_id)
        self.coeffs[key] = self.coeffs.get(key, 0) + int(mult)
        if self.coeffs[key] == 0:
            del self.coeffs[key]
        self._chars[char._elem_values] = char

    def items(self):
        """(character, class representative subgroup, coefficient) triples in
        deterministic order."""
        lat = self.group.lattice()
        out = []
        for (cv, cid), coeff in sorted(self.coeffs.items()):
            out.append((self._chars[cv], lat.class_reps[cid], coeff))
        return out

    def __add__(self, other):
        self._chk(other)
        out = TrivialSourceElement(self.group, self.field)
        for char, sub, c in self.items():
            out.add_term(char, sub, c)
        for char, sub, c in other.items():
            out.add_term(char, sub, c)
        return out

    def __neg__(self):
        out = TrivialSourceElement(self.group, self.field)
        for char, sub, c in self.items():
            out.add_term(char, sub, -c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def _chk(self, other):
        if self.group is not other.group or self.field != other.field:
            raise IncompatibleHandles("elements over different handles")

    def __eq__(self, other):
        return (
            isinstance(other, TrivialSourceElement)
            and self.group is other.group
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def dual(self) -> "TrivialSourceElement":
        out = TrivialSourceElement(self.group, self.field)
        for char, sub, c in self.items():
            out.add_term(char.inverse(), sub, c)
        return out

    def module_for(self, char: Character, sub: Subgroup) -> KgModule:
        return twist(perm_module(self.group, sub, self.field), char)

    def to_burnside(self) -> BurnsideElement:
        """Forget the field; defined when every twist is trivial (p-groups)."""
        lat = self.group.lattice()
        coeffs = [0] * len(lat.class_reps)
        for char, sub, c in self.items():
            if not char.is_trivial():
                raise PermchainError(
                    "nontrivial twist has no Burnside image"
                )
            coeffs[sub.class_id] += c
        return BurnsideElement(self.group, tuple(coeffs))

    def __repr__(self):
        from .groups import class_name

        lat = self.group.lattice()
        parts = []
        for char, sub, c in self.items():
            tw = "" if char.is_trivial() else "(" + ",".join(
                self.field.format(v) for v in char.values
            ) + ")*"
            parts.append(f"{c}*{tw}[G/{class_name(lat, sub)}]")
        return " + ".join(parts) if parts else "0"


def lefschetz(C: BoundedComplex) -> TrivialSourceElement:
    """Alternating sum of the labeled components of a complex."""
    out = TrivialSourceElement(C.group, C.field)
    for i in C.degrees():
        M = C.module_at(i)
        if M.dim == 0:
            continue
        if M.labels is None:
            raise UnlabeledComponent(f"component in degree {i} carries no labels")
        sign = -1 if i % 2 else 1
        for s in M.labels:
            out.add_term(s.character, s.subgroup, sign)
    return out


def is_orthogonal_unit_pgroup(t: TrivialSourceElement) -> bool:
    """Over a p-group the trivial source ring is the Burnside ring and the
    self-dual orthogonal units are exactly the elements with all marks +-1."""
    if not is_p_power(t.group.order, t.field.p):
        raise PGroupOnly("orthogonal unit test implemented for p-groups")
    b = t.to_burnside()
    return all(v in (1, -1) for v in marks(b))


# -- the local character tuple ------------------------------------------------


@dataclass
class BetaEntry:
    subgroup: Subgroup
    epsilon: int  # +1 or -1
    character: Character  # on N_G(P)/P
    ctx: Quotient  # N_G(P)/P


class BetaTuple:
    """Per p-subgroup class: a sign and a degree one character of N_G(P)/P."""

    def __init__(self, group: FiniteGroup, field: FqField, entries):
        self.group = group
        self.field = field
        self.entries = dict(entries)  # class_id -> BetaEntry

    def __eq__(self, other):
        if not isinstance(other, BetaTuple):
            return NotImplemented
        if self.group is not other.group or set(self.entries) != set(other.entries):
            return False
        for cid, e in self.entries.items():
            o = other.entries[cid]
            if e.epsilon != o.epsilon or e.character != o.character:
                return False
        return True

    def __repr__(self):
        parts = ", ".join(
            f"[{e.subgroup.order}]:{'+' if e.epsilon > 0 else '-'}"
            for _, e in sorted(self.entries.items())
        )
        return f"BetaTuple({parts})"


def beta_from_xi(x: XiInvariant) -> BetaTuple:
    """Signs from parity of the h-marks, characters straight across."""
    entries = {}
    for cid, e in x.entries.items():
        entries[cid] = BetaEntry(e.subgroup, (-1) ** (e.h % 2), e.character, e.ctx)
    return BetaTuple(x.group, x.field, entries)


def beta_direct(t: TrivialSourceElement) -> BetaTuple:
    """Local data read off the virtual element itself.

    At each class representative P the virtual Brauer quotient must have
    integer dimension +-1 (the sign; exact integers, never mod-p data),
    and the F_q-trace function on N_G(P)/P, normalized by the sign, must be
    a character: unit values that the character with its values at the
    generators takes at every element.  Otherwise the element is rejected.
    Each local term is read off its P-fixed basis points, never built:
    traces are a lift's twists at the points it fixes (`monomial_trace`).
    """
    G, f = t.group, t.field
    lat = G.lattice()
    mods = [(coeff, t.module_for(char, sub)) for char, sub, coeff in t.items()]
    entries = {}
    for P in lat.p_class_reps(f.p):
        ctx = local_quotient(P)
        Q = ctx.group
        terms = [(coeff, M, fixed_basis_points(M, P)) for coeff, M in mods]
        vdim = sum(coeff * pts.size for coeff, _, pts in terms)
        if vdim not in (1, -1):
            raise NotUnitDimension(
                f"virtual dimension {vdim} at a class of order {P.order}"
            )
        inv_eps = 1 if vdim == 1 else int(f.inv[f.neg[1]])
        rho = [
            int(f.mul[inv_eps, monomial_trace(f, [(c, *point_action(M, pts, g)) for c, M, pts in terms])])
            for g in ctx.lifts.tolist()
        ]
        if any(v == 0 for v in rho) or rho[Q.identity] != 1:
            raise NonCharacterTrace("trace vector has non-unit values")
        try:
            char = Character(Q, f, [rho[g] for g in Q.gen_indices])
            ok = [char.value_code(e) for e in range(Q.order)] == rho
        except PermchainError:  # the generator values break a relation
            ok = False
        if not ok:
            raise NonCharacterTrace("trace vector is not multiplicative")
        entries[P.class_id] = BetaEntry(P, vdim, char, ctx)
    return BetaTuple(G, f, entries)


# -- Frobenius stability -------------------------------------------------------


def is_frobenius_stable(b: BetaTuple) -> bool:
    """After normalizing away the character at the trivial subgroup, every
    local character must take values in the prime field."""
    G, f = b.group, b.field
    lat = G.lattice()
    triv_cid = lat.trivial.class_id
    rho1 = b.entries[triv_cid].character  # lives on G itself
    for e in b.entries.values():
        for gi, g in enumerate(e.ctx.generator_lifts()):
            val = e.character.values[gi]
            adj = int(f.mul[val, int(f.inv[rho1.value_code(g)])])
            if adj >= f.p:  # prime-field codes are 0..p-1
                return False
    return True


# -- faithful decomposition ----------------------------------------------------


def _image_subgroup(quot: Quotient, X: Subgroup) -> Subgroup:
    lat = quot.group.lattice()
    return lat.subgroup({quot.project(x) for x in X.elems})


def _preimage_subgroup(quot: Quotient, Xbar: Subgroup) -> Subgroup:
    lat = quot.source.lattice()
    return lat.subgroup([x for x in range(quot.source.order) if Xbar.mask >> quot.project(x) & 1])


def faithful_project(x: XiInvariant):
    """Split the invariant along the poset of normal p-subgroups.

    The component at S is an invariant over G/S whose value at a class
    P/S combines the values of x at the products PQ with the poset's
    Mobius weights; every component lands in the faithful part.
    Returns [(S, component)] with S running over the normal p-subgroups.
    """
    G, f = x.group, x.field
    p = f.p
    lat = G.lattice()
    poset = lat.normal_p_subgroups(p)
    cols = mobius_columns(poset)
    out = []
    for s, S in enumerate(poset):
        quot_S = quotient(G, S)
        GS = quot_S.group
        latS = GS.lattice()
        weights = [(Q, col[s]) for Q, col in zip(poset, cols) if col.get(s)]  # row s
        entries = {}
        for Pbar in latS.p_class_reps(p):
            P = _preimage_subgroup(quot_S, Pbar)
            ctxbar = local_quotient(Pbar)
            joins = [(lat.join(P, Q), mu) for Q, mu in weights]
            hval = sum(mu * x.entries[PQ.class_id].h for PQ, mu in joins)
            values = []
            for gbar in ctxbar.generator_lifts():  # indices in G/S
                g = quot_S.lift(gbar)
                acc = 1
                for PQ, mu in joins:
                    _, code = x.value_at(PQ, g)  # a unit: code^(q-1) = 1
                    acc = int(f.mul[acc, (f.scalar(code) ** (mu % (f.q - 1))).code])
                values.append(acc)
            char = Character(ctxbar.group, f, values)
            entries[Pbar.class_id] = XiEntry(Pbar, hval, char, ctxbar)
        out.append((S, XiInvariant(GS, f, entries)))
    return out


def faithful_assemble(parts) -> XiInvariant:
    """Inverse of faithful_project: multiply the inflated components."""
    if not parts:
        raise PermchainError("nothing to assemble")
    S0, x0 = parts[0]
    G, f = S0.parent, x0.field
    lat = G.lattice()
    entries = {}
    for P in lat.p_class_reps(f.p):
        ctx = local_quotient(P)
        hval = 0
        comps = []
        for S, xs in parts:
            quot_S = quotient(G, S)
            PS = lat.join(P, S)
            PSbar = _image_subgroup(quot_S, PS)
            hval += xs.entries[PSbar.class_id].h
            comps.append((quot_S, xs, PSbar))
        values = []
        for g in ctx.generator_lifts():
            acc = 1
            for quot_S, xs, PSbar in comps:
                _, code = xs.value_at(PSbar, quot_S.project(g))
                acc = int(f.mul[acc, code])
            values.append(acc)
        char = Character(ctx.group, f, values)
        entries[P.class_id] = XiEntry(P, hval, char, ctx)
    return XiInvariant(G, f, entries)


def is_faithful_invariant(x: XiInvariant) -> bool:
    """Trivial value at every class whose members contain a nontrivial
    normal p-subgroup."""
    G = x.group
    lat = G.lattice()
    norms = [N for N in lat.normal_p_subgroups(x.field.p) if N.order > 1]
    for e in x.entries.values():
        if any(e.subgroup.contains(N) for N in norms):
            if e.h != 0 or not e.character.is_trivial():
                return False
    return True
