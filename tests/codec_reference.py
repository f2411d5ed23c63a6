"""Reference paths for the complex-file codec and the labeled-module
constructors it calls, as the package computed them before it read cached
tables.

- Cosets by walking G x H once per call, and k[G/H] built on that walk
  (the package keeps each subgroup's basis on its lattice, `modules.coset_basis`).
- Character values by walking every element's word from the generator
  values, once per character (the package takes derived characters
  pointwise from their factors), and every character of a group by a
  breadth-first consistency check of each choice of generator values.
- Complex files written entry by entry through `FqField.strings`, and read
  back with one `parse` per entry into modules built on the coset walk.
"""

from __future__ import annotations

import numpy as np

from permchain.complexes import BoundedComplex
from permchain.ffield import GF, FqField
from permchain.groups import FiniteGroup, Subgroup, group_from_spec, perm_to_cycles
from permchain.literals import _grouped_summands, _terms, format_module


def walk_coset_list(G: FiniteGroup, H: Subgroup) -> list:
    """Left cosets gH as sorted tuples, ordered by least member."""
    seen = set()
    cosets = []
    for x in range(G.order):
        if x in seen:
            continue
        c = tuple(sorted(G.mul(x, h) for h in H.elems))
        seen.update(c)
        cosets.append(c)
    cosets.sort(key=lambda c: c[0])
    return cosets


def walk_perm_images(G: FiniteGroup, H: Subgroup) -> list:
    """For each generator, the coset index of g times each coset's least
    member, on the walked coset basis."""
    cosets = walk_coset_list(G, H)
    member = {x: i for i, c in enumerate(cosets) for x in c}
    return [[member[G.mul(g, c[0])] for c in cosets] for g in G.gen_indices]


def word_walk_values(G: FiniteGroup, fld: FqField, values) -> tuple:
    """A character's value at every element from its generator values, along
    each element's BFS word, shortest words first."""
    ev = [0] * G.order
    ev[G.identity] = 1
    for i in sorted(range(G.order), key=lambda i: len(G.words[i])):
        w = G.words[i]
        if w:
            rest = G.mul(G.inv(G.gen_indices[w[0]]), i)
            ev[i] = int(fld.mul[values[w[0]], ev[rest]])
    return tuple(ev)


def frobenius_inverse_values(fld: FqField, values) -> tuple:
    """Each code mapped by x -> x^p, n - 1 times."""
    vals = [int(v) for v in values]
    for _ in range(fld.n - 1):
        vals = [int(fld.frob[v]) for v in vals]
    return tuple(vals)


def bfs_character_values(G: FiniteGroup, fld: FqField) -> list:
    """The generator values of every homomorphism G -> F_q^x, in the order
    of the value tuples: a choice is kept if the breadth-first walk from the
    identity never assigns one element two values."""
    gens = G.gen_indices
    out = []

    def valid(values):
        ev = [None] * G.order
        ev[G.identity] = 1
        frontier = [G.identity]
        while frontier:
            x = frontier.pop()
            for gi, g in enumerate(gens):
                y = G.mul(g, x)
                v = int(fld.mul[values[gi], ev[x]])
                if ev[y] is None:
                    ev[y] = v
                    frontier.append(y)
                elif ev[y] != v:
                    return False
        return True

    def rec(prefix):
        if len(prefix) == len(gens):
            if valid(prefix):
                out.append(tuple(prefix))
            return
        for v in range(1, fld.q):
            rec(prefix + [v])

    rec([])
    return out


def walk_label_basis_order(M) -> list:
    """Each summand's basis in canonical coset order, with the coset
    representatives read off the walked cosets."""
    eperms = M.element_perms()
    out = []
    for s in (s for group in _grouped_summands(M) for s in group):
        reps = [coset[0] for coset in walk_coset_list(M.group, s.subgroup)]
        out += eperms[reps, s.indices[0]].tolist()
    return out


def map_complex_to_obj(C: BoundedComplex) -> dict:
    """A complex file written entry by entry: every entry of each
    differential the complex holds mapped through `FqField.strings` on its
    own; an absent differential is zero and is not written."""
    fld = C.field
    group_spec = C.group.catalog_name
    if group_spec is None:
        group_spec = ";".join(perm_to_cycles(g) for g in C.group.generators)
    orders, modules = {}, {}
    for i in C.degrees():
        M = C.module_at(i)
        if M.dim == 0:
            continue
        orders[i] = walk_label_basis_order(M)
        modules[str(i)] = format_module(M)
    diffs = {}
    for i in sorted(C.diffs):
        if i not in orders or (i - 1) not in orders:
            continue
        D = C.diffs[i].matrix
        perm = D.a[np.ix_(np.array(orders[i - 1], dtype=int), np.array(orders[i], dtype=int))]
        diffs[str(i)] = list(map(fld.strings.__getitem__, perm.ravel().tolist()))
    return {
        "group": group_spec,
        "field": {"p": fld.p, "n": fld.n},
        "lo": C.lo,
        "modules": modules,
        "differentials": diffs,
    }


class WalkedModule:
    """A module literal's permutations, twists and labels built on the
    walked cosets: (generator values, subgroup, indices) per summand."""

    def __init__(self, G: FiniteGroup, fld: FqField, text: str):
        ngens = len(G.generators)
        perms = [[] for _ in range(ngens)]
        twists = [[] for _ in range(ngens)]
        self.labels = []
        dim = 0
        for _, char, sub, mult in _terms(G, fld, text, "", "module"):
            images = walk_perm_images(G, sub)
            size = len(images[0])
            for _ in range(mult):
                for k in range(ngens):
                    perms[k] += [dim + x for x in images[k]]
                    twists[k] += [char.values[k]] * size
                self.labels.append((char.values, sub, tuple(range(dim, dim + size))))
                dim += size
        self.perms = [np.array(x, dtype=np.intp) for x in perms]
        self.twists = [np.array(c, dtype=np.int16) for c in twists]


def reference_complex_from_obj(obj: dict):
    """The walked modules by degree and the differentials read with one
    `FqField.parse` per entry, as {degree: int16 array}."""
    G = group_from_spec(str(obj["group"]))
    fld = GF(int(obj["field"]["p"]), int(obj["field"].get("n", 1)))
    mods = {int(d): WalkedModule(G, fld, text) for d, text in obj["modules"].items()}
    diffs = {}
    for i, flat in obj["differentials"].items():
        rows, cols = len(mods[int(i) - 1].perms[0]), len(mods[int(i)].perms[0])
        codes = [fld.parse(str(v)) for v in flat]
        diffs[int(i)] = np.array(codes, dtype=np.int16).reshape(rows, cols)
    return mods, diffs
