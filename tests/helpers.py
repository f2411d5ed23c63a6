"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library code paths they are used to
check: multiplication tables by looking up each product's image tuple,
subgroup enumeration by pairwise closure and by extending every subgroup
by every cyclic subgroup, Mobius values by the defining recursion and by
inverting the zeta matrix, the inverse mark table by Gauss-Jordan elimination,
marks by counting fixed cosets, units by trying every sign vector,
centralizers elementwise, fixed-point dimensions by orbit counting, split
detection by solving the splitting equation, naive matrix products by
schoolbook scalar arithmetic, local characters from the homology modules
`homology_at` builds and from one cycle outside the boundaries, read by
row reduction (the report's own reading before the trace formula), and
the report's reading before it read the fixed points in place: each local
complex built and checked by `brauer_complex`, its differentials reduced
and the trace formula read off its own generator actions.  The
faithful decomposition's powers of character values by one multiplication
at a time are here too.  The
syzygy layer's loops from before `subquotient` and `orbit_map` are here
too: one solve per generator for a subquotient's action, one column per
element and generator image for a map out of a free module, and one rank
per column for the free generators.  Three helpers only the tests use
are here as well: Hom spaces by one dense Kronecker solve on the
generator matrices (`hom_space_basis`, which the random maps and
differentials sample), every catalog entry in registry order
(`all_entries`) and the Frobenius twist of a beta tuple
(`frobenius_twist_beta`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from permchain.burnside import mark_table
from permchain.ffield import FqField, FqScalar
from permchain.groups import FiniteGroup, Subgroup, pmul
from permchain.linalg import FqMatrix, hstack, kernel_basis, rank, rref, solve_matrix, vstack
from permchain.modules import (
    Character,
    KgModule,
    ModuleMap,
    all_characters,
    coset_list,
    direct_sum,
    perm_module,
    twist,
)
from permchain.complexes import (
    BoundedComplex,
    XiEntry,
    XiInvariant,
    brauer_complex,
    homology,
    homology_dims,
    reduce_differentials,
)
from permchain.constructions import build_entries, catalog_names
from permchain.errors import IncompatibleHandles
from permchain.groups import mobius_columns, quotient
from permchain.invariants import BetaEntry, BetaTuple, _preimage_subgroup
from permchain.modules import local_quotient, monomial_trace
from permchain.linalg import image_basis, quotient_space

from linalg_reference import col
from module_reference import diff_at, elem_mats, frobenius_inverse_twist, gen_mats, norm_matrix, scale


# -- independent group-theory oracles ----------------------------------------


def oracle_subgroup_sets(G: FiniteGroup):
    """All subgroups generated by at most two elements, by raw closure on
    permutations.  Complete for every group of order < 16 here (and for the
    specific groups it is used on)."""
    elems = list(G.elements)
    ident = tuple(range(G.degree))
    found = set()

    def close(gens):
        got = {ident}
        frontier = [ident]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = pmul(g, x)
                if y not in got:
                    got.add(y)
                    frontier.append(y)
        return frozenset(got)

    for a in elems:
        found.add(close([a]))
        for b in elems:
            found.add(close([a, b]))
    return found


def pinv(a):
    """The inverse permutation of the image tuple `a`."""
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def tuple_lookup_tables(elements, identity):
    """`mul_table` and `inv_table` of the sorted permutations `elements`:
    each product's whole image tuple looked up in a dict of the elements,
    and each inverse permutation likewise.  (`identity` is unused; the
    signature is that of `groups._product_tables`.)"""
    index = {e: i for i, e in enumerate(elements)}
    arr = np.array(elements, dtype=np.int32)
    table = np.empty((len(elements), len(elements)), dtype=np.int32)
    for i in range(len(elements)):
        prod = arr[i][arr]  # rows: elements[i] o elements[j]
        table[i] = [index[tuple(row)] for row in prod]
    inv = np.array([index[pinv(e)] for e in elements], dtype=np.int32)
    return table, inv


def oracle_mobius(poset_sets, A, B):
    """Recursive Mobius value on a poset of frozensets under inclusion."""
    if A == B:
        return 1
    total = 0
    for C in poset_sets:
        if A <= C < B:
            total += oracle_mobius(poset_sets, A, C)
    return -total


def pairwise_closure(G: FiniteGroup, seed, table=None) -> frozenset:
    """The subgroup holding `seed`: every new element multiplied on both
    sides by every element found so far (`table`: `G.mul_table` as lists)."""
    if table is None:
        table = G.mul_table.tolist()
    elems = set(seed) | {G.identity}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for s in list(elems):
                for y in (table[x][s], table[s][x]):
                    if y not in elems:
                        elems.add(y)
                        new.append(y)
        frontier = new
    return frozenset(elems)


def pairwise_subgroup_sets(G: FiniteGroup) -> list:
    """Every subgroup as an element set, sorted by (order, members): each
    one found extended by each cyclic subgroup it misses, by pairwise
    closure of its elements and the new generator."""
    table = G.mul_table.tolist()
    cyclic = {}
    for x in range(G.order):
        cyclic.setdefault(pairwise_closure(G, {x}, table), x)
    found = {frozenset({G.identity})}
    queue = [frozenset({G.identity})]
    while queue:
        H = queue.pop(0)
        for cset, x in cyclic.items():
            if x not in H:
                new = pairwise_closure(G, H | {x}, table)
                if new not in found:
                    found.add(new)
                    queue.append(new)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


class LatticeReading(NamedTuple):
    masks: list        # subgroup bitmasks, sorted by (order, members)
    gens: list         # the generators each was found by
    classes: list      # lists of indices into `masks`; [0] is the rep
    class_id: list     # index -> class
    is_normal: list    # index -> whether its class has one member
    conj_to_rep: list  # index -> g with masks[i] = g . rep . g^{-1}


def every_cyclic_extension_lattice(G: FiniteGroup) -> LatticeReading:
    """The subgroup lattice as `SubgroupLattice` first found it: every
    subgroup found extended by every cyclic subgroup it misses, K = <H, x>
    grown from H as a union of right cosets H r, then each class walked
    on masks by one conjugation table per generator."""
    n, e = G.order, G.identity
    right = G.mul_table.T.tolist()  # right[y][h] = h * y
    bit = [1 << y for y in range(n)]

    def elems(mask):
        return [y for y in range(n) if mask & bit[y]]

    cyclic = {}  # mask -> the first element generating it
    for x in range(n):
        cyclic.setdefault(sum(bit[y] for y in pairwise_closure(G, {x})), x)
    cyc_list = sorted(cyclic.items(), key=lambda kv: (kv[0].bit_count(), elems(kv[0])))

    found = {bit[e]: ()}  # mask -> the generators it was found by
    queue = [bit[e]]
    for hmask in queue:  # grows while walked: breadth first
        coset, helems = [0] * n, elems(hmask)  # coset[y]: the mask of H y
        for y in range(n):
            if not coset[y]:
                members = [right[y][h] for h in helems]
                m = sum(bit[z] for z in members)
                for z in members:
                    coset[z] = m
        for cmask, x in cyc_list:
            if cmask & hmask == cmask:
                continue
            gens = found[hmask] + (x,)
            kmask, reps = hmask, [e]
            for r in reps:
                for g in gens:
                    y = right[g][r]
                    if not kmask & bit[y]:  # add the coset H y
                        kmask |= coset[y]
                        reps.append(y)
            if kmask not in found:
                found[kmask] = gens
                queue.append(kmask)

    masks = sorted(found, key=lambda m: (m.bit_count(), elems(m)))
    set_index = {m: i for i, m in enumerate(masks)}
    elems_of = [elems(m) for m in masks]
    t, inv = G.mul_table, G.inv_table
    conj_tabs = [(g, t[t[g], inv[g]].tolist()) for g in G.gen_indices]  # x -> g x g^{-1}
    class_of = [-1] * len(masks)
    conj_elem = [e] * len(masks)
    classes = []
    for i in range(len(masks)):
        if class_of[i] != -1:
            continue
        cid, members = len(classes), [i]
        class_of[i] = cid
        for cur in members:  # grows while walked: breadth first
            for g, ct in conj_tabs:
                j = set_index[sum(bit[ct[x]] for x in elems_of[cur])]
                if class_of[j] == -1:
                    class_of[j] = cid
                    conj_elem[j] = G.mul(g, conj_elem[cur])
                    members.append(j)
        classes.append(sorted(members))
    return LatticeReading(
        masks,
        [found[m] for m in masks],
        classes,
        class_of,
        [len(classes[c]) == 1 for c in class_of],
        conj_elem,
    )


def pairwise_minimal_generators(G: FiniteGroup, elems) -> list:
    """Greedy generators over the sorted elements, closing pairwise."""
    table = G.mul_table.tolist()
    elems = sorted(elems)
    gens = []
    have = frozenset({G.identity})
    for x in elems:
        if x in have:
            continue
        gens.append(x)
        have = pairwise_closure(G, set(have) | {x}, table)
        if len(have) == len(elems):
            break
    return gens


def recursive_mobius(poset, A: Subgroup, B: Subgroup, cache: dict) -> int:
    """mu(A, B) on the containment order of `poset` by the recursion
    mu(A, B) = -sum of mu(A, C) over A <= C < B, memoised in `cache` (one
    dict per poset)."""
    if A.elems == B.elems:
        return 1
    key = (A.elems, B.elems)
    if key not in cache:
        cache[key] = -sum(
            recursive_mobius(poset, A, C, cache)
            for C in poset
            if C.order < B.order and C.contains(A) and B.contains(C)
        )
    return cache[key]


def inverse_zeta_columns(poset) -> list:
    """`groups.mobius_columns` read off the inverse of the zeta matrix
    (Rota).  It is unitriangular with the subgroups taken by increasing
    order, so forward substitution inverts it exactly in int64: column j is
    e_j minus the columns of the subgroups strictly inside poset[j]."""
    n = len(poset)
    member = np.zeros((n, poset[0].parent.order), dtype=np.int64)
    for i, H in enumerate(poset):
        member[i, list(H.elems)] = 1
    sizes = member.sum(axis=1)
    within = member @ member.T == sizes[:, None]  # [i, j]: poset[i] <= poset[j]
    inside = within & (sizes[:, None] < sizes[None, :])
    mu = np.eye(n, dtype=np.int64)
    for j in np.argsort(sizes, kind="stable"):
        mu[:, j] -= mu[:, inside[:, j]].sum(axis=1)
    return [{i: int(mu[i, j]) for i in np.flatnonzero(within[:, j]).tolist()} for j in range(n)]


def rational_inverse(tbl: np.ndarray):
    """Exact inverse of an integer matrix by Gauss-Jordan elimination over
    Fractions: (numerators, common denominator)."""
    c = tbl.shape[0]
    M = [[Fraction(int(tbl[i, j])) for j in range(c)] for i in range(c)]
    inv = [[Fraction(1 if i == j else 0) for j in range(c)] for i in range(c)]
    for col in range(c):
        piv = next(r for r in range(col, c) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = M[col][col]
        M[col] = [x / scale for x in M[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(c):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    den = math.lcm(*(x.denominator for row in inv for x in row))
    num = np.array([[int(x * den) for x in row] for row in inv], dtype=np.int64)
    return num, den


def percall_class_name(L, H) -> str:
    """A class name worked out afresh: the centre from the whole
    multiplication table, generators by pairwise closure."""
    rep = L.class_reps[H.class_id]
    G = L.group
    if 1 < rep.order < G.order:
        t = G.mul_table
        center = np.flatnonzero(np.all(t == t.T, axis=1)).tolist()
        if rep.elemset == frozenset(center):
            return "Z"
    if rep.order == 1:
        return "1"
    if rep.order == G.order:
        return "G"
    return "<" + ",".join(G.word_str(g) for g in pairwise_minimal_generators(G, rep.elems)) + ">"


def elementwise_normalizer(L, H: Subgroup) -> frozenset:
    """N_G(H) by conjugating every element of H by every element of G."""
    G = L.group
    return frozenset(
        g for g in range(G.order) if frozenset(G.conj(g, x) for x in H.elems) == H.elemset
    )


def conjugate(L, H: Subgroup, g: int) -> Subgroup:
    """g H g^{-1}, looked up in the lattice L."""
    return L.subgroup(frozenset(L.group.conj(g, x) for x in H.elems))


def elementwise_centralizer(L, H: Subgroup) -> frozenset:
    """C_G(H) by comparing g x with x g for every g in G and x in H."""
    t = L.group.mul_table.tolist()
    return frozenset(g for g in range(L.group.order) if all(t[g][x] == t[x][g] for x in H.elems))


def coset_count_mark_table(G: FiniteGroup) -> np.ndarray:
    """|(G/H)^K| as the number of cosets gH of each class representative H
    that every element of K fixes under left translation."""
    t = G.mul_table.tolist()
    reps = G.lattice().class_reps
    tbl = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for j, H in enumerate(reps):
        cosets = [(c[0], set(c)) for c in coset_list(G, H)]
        for i, K in enumerate(reps):
            tbl[i, j] = sum(all(t[k][g] in cs for k in K.elems) for g, cs in cosets)
    return tbl


def exhaustive_units(G: FiniteGroup) -> list:
    """The coefficient tuples of every unit of B(G), sorted: each of the 2^c
    sign vectors, 4096 at a time, times the Gauss-Jordan inverse of the
    mark table, kept when integral."""
    num, den = rational_inverse(mark_table(G))
    c = len(num)
    out = []
    for start in range(0, 1 << c, 4096):
        rows = np.arange(start, min(start + 4096, 1 << c))
        signs = 1 - 2 * ((rows[:, None] >> np.arange(c)[None, :]) & 1)  # rows of +-1
        coeff_num = signs @ num.T  # candidate coefficients scaled by den
        for row in coeff_num[np.all(coeff_num % den == 0, axis=1)]:
            out.append(tuple(int(x) for x in row // den))
    return sorted(out)


def oracle_orbit_count(G: FiniteGroup, P: Subgroup, cosets) -> int:
    """Number of P-orbits on a list of cosets (each a tuple of elements)."""
    index_of = {}
    for i, c in enumerate(cosets):
        for x in c:
            index_of[x] = i
    seen = set()
    orbits = 0
    for i, c in enumerate(cosets):
        if i in seen:
            continue
        orbits += 1
        stack = [i]
        seen.add(i)
        while stack:
            j = stack.pop()
            rep = cosets[j][0]
            for p in P.elems:
                k = index_of[G.mul(p, rep)]
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
    return orbits


# -- independent linear algebra oracles ---------------------------------------


def oracle_matmul(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    """Schoolbook product using scalar arithmetic only."""
    f = A.field
    out = FqMatrix.zeros(f, A.rows, B.cols)
    for i in range(A.rows):
        for j in range(B.cols):
            acc = FqScalar(f, 0)
            for k in range(A.cols):
                acc = acc + FqScalar(f, int(A.a[i, k])) * FqScalar(f, int(B.a[k, j]))
            out.a[i, j] = acc.code
    return out


def oracle_kernel_count(M: FqMatrix) -> int:
    """Exhaustive count of kernel vectors (tiny matrices only)."""
    f = M.field
    n = M.cols
    count = 0
    for code in range(f.q ** n):
        vec = [(code // f.q ** i) % f.q for i in range(n)]
        v = FqMatrix(f, np.array(vec, dtype=np.int16).reshape(n, 1))
        if (M @ v).is_zero():
            count += 1
    return count


# -- split detection oracle -----------------------------------------------------


def oracle_split_injective(fmap: ModuleMap) -> bool:
    """Injective plus a solution of f = f s f, found by linear algebra."""
    if rank(fmap.matrix) != fmap.source.dim:
        return False
    return _splitting_exists(fmap)


def oracle_split_surjective(fmap: ModuleMap) -> bool:
    if rank(fmap.matrix) != fmap.target.dim:
        return False
    return _splitting_exists(fmap)


def _splitting_exists(fmap: ModuleMap) -> bool:
    """Solvability of the equivariant equation f s f = f for s: N -> M."""
    M, N = fmap.source, fmap.target
    f = fmap.matrix
    fld = f.field
    m, n = M.dim, N.dim
    eyem = FqMatrix.identity(fld, m)
    eyen = FqMatrix.identity(fld, n)
    rows = []
    rhs = []
    for a, b in zip(gen_mats(M), gen_mats(N)):
        # s A^N_g - A^M_g s = 0, vectorized row-major
        rows.append(eyem.kron(b.T) - a.kron(eyen))
        rhs.append(FqMatrix.zeros(fld, m * n, 1))
    rows.append(f.kron(f.T))
    rhs.append(FqMatrix(fld, f.a.reshape(-1, 1).copy()))
    return solve_matrix(vstack(rows), vstack(rhs)) is not None


# -- homology-module oracles -----------------------------------------------------


def per_generator_homology_action(C: BoundedComplex, i: int) -> list:
    """The matrices of the generators on H_i(C), one solve per generator, on
    the homology basis `homology_at` picks."""
    Z = kernel_basis(diff_at(C, i).matrix)
    return per_generator_subquotient(C.module_at(i), Z, image_basis(diff_at(C, i + 1).matrix))[0]


def homology_module_reading(C: BoundedComplex, local_complex=brauer_complex):
    """(violations, {class_id: (h, character values)}) of the local homology
    at every p-subgroup class, from the homology modules: the character is
    the action on a 1x1 homology module.  The local complexes are built by
    `local_complex(C, P)`."""
    violations, entries = {}, {}
    for P in C.group.lattice().p_class_reps(C.field.p):
        local = {i: H for i, H in homology(local_complex(C, P)).items() if H.dim}
        degs = tuple((i, H.dim) for i, H in local.items())
        if len(degs) != 1 or degs[0][1] != 1:
            violations[P.class_id] = degs
            continue
        (h, H), = local.items()
        entries[P.class_id] = (h, [int(m.a[0, 0]) for m in H.action])
    return violations, entries


def one_cycle_character(C: BoundedComplex, h: int) -> list:
    """The generators' values of the character on a one-dimensional H_h(C),
    by row reduction: for z the first cycle outside im d_{h+1},
    g.z = chi(g) z modulo boundaries, so the row of z's pivot in the rref of
    [d_{h+1} | z | g_1 z ...] holds chi."""
    M, B = C.module_at(h), diff_at(C, h + 1).matrix
    Z = kernel_basis(diff_at(C, h).matrix)
    _, _, pivots = rref(hstack([B, Z]))
    z = col(Z, next(c for c in pivots if c >= B.cols) - B.cols)
    R, rk, pivots = rref(hstack([B, z] + [M.act(gi, z) for gi in range(len(C.group.generators))]))
    if pivots[-1] != B.cols:
        raise ValueError(f"the action does not preserve the homology line in degree {h}")
    return [int(v) for v in R.a[rk - 1, B.cols + 1 :]]


def one_cycle_reading(C: BoundedComplex):
    """(violations, {class_id: (h, character values)}) as
    `homology_module_reading` gives them, with ranks for the dimensions and
    `one_cycle_character` for the characters."""
    violations, entries = {}, {}
    for P in C.group.lattice().p_class_reps(C.field.p):
        local = brauer_complex(C, P)
        degs = tuple(homology_dims(local).items())
        if len(degs) != 1 or degs[0][1] != 1:
            violations[P.class_id] = degs
            continue
        h = degs[0][0]
        entries[P.class_id] = (h, one_cycle_character(local, h))
    return violations, entries


def brauer_complex_reading(C: BoundedComplex):
    """(violations, {class_id: (h, character values)}) off the local
    complexes that `brauer_complex` builds, each a checked `BoundedComplex`
    over N_G(P)/P: dims from a fresh `reduce_differentials` of it, and the
    character by the trace formula on its own generators' twists."""
    violations, entries = {}, {}
    for P in C.group.lattice().p_class_reps(C.field.p):
        X = brauer_complex(C, P)
        degs = tuple(reduce_differentials(X)[1].items())
        if len(degs) != 1 or degs[0][1] != 1:
            violations[P.class_id] = degs
            continue
        h = degs[0][0]
        signs = [-1 if (i + h) % 2 else 1 for i in X.degrees()]
        values = [
            monomial_trace(X.field, [(s, M.perms[k], M.twists[k]) for s, M in zip(signs, X.mods)])
            for k in range(len(X.group.generators))
        ]
        entries[P.class_id] = (h, values)
    return violations, entries


def homology_lefschetz(C: BoundedComplex) -> list:
    """Per generator g, sum_i (-1)^i tr(g | H_i(C)) in the field, from the
    actions `homology` reads."""
    f = C.field
    hom = homology(C)
    out = []
    for gi in range(len(C.group.generators)):
        total = 0
        for i, H in hom.items():
            for v in np.diagonal(H.action[gi].a).tolist():
                total = int(f.sub[total, v] if i % 2 else f.add[total, v])
        out.append(total)
    return out


# -- syzygy-layer oracles ----------------------------------------------------------


def per_generator_subquotient(M: KgModule, V: FqMatrix, W: FqMatrix):
    """(generator matrices, witness, projection) of span(V)/span(W): W in
    V-coordinates, the quotient of the coordinate space by it, and one solve
    per generator; the identity projection when W is empty."""
    f = M.field
    eye = FqMatrix.identity(f, V.cols)
    section, proj = (eye, eye) if not W.cols else quotient_space(eye, solve_matrix(V, W))
    witness = V @ section
    mats = []
    for gi in range(len(M.group.generators)):
        coords = solve_matrix(V, M.act(gi, witness))
        if coords is None:
            raise ValueError("the span is not a submodule")
        mats.append(proj @ coords)
    return mats, witness, proj


def per_element_orbit_map(M: KgModule, W: FqMatrix) -> FqMatrix:
    """Column i*|G| + g is g.W[:, i], one column at a time, with the element
    matrices built along the BFS words."""
    G = M.group
    mats = elem_mats(M)
    out = FqMatrix.zeros(M.field, M.dim, W.cols * G.order)
    for i in range(W.cols):
        for g in range(G.order):
            out.a[:, i * G.order + g] = (mats[g] @ col(W, i)).a[:, 0]
    return out


def greedy_free_generators(M: KgModule):
    """Columns j of the norm matrix kept while norm . e_j raises the rank of
    the images kept so far, and those images: one rank per column."""
    nm = norm_matrix(M)
    chosen = []
    images = FqMatrix.zeros(M.field, M.dim, 0)
    for j in range(M.dim):
        trial = hstack([images, col(nm, j)])
        if rank(trial) > images.cols:
            images = image_basis(trial)
            chosen.append(j)
    return chosen, images


# -- Hom spaces, the catalog, Frobenius twists --------------------------------------


def hom_space_basis(M, N) -> list:
    """Basis of Hom_kG(M, N) as matrices, via the equivariance equations
    on the generator matrices, stacked and solved as one dense Kronecker
    system."""
    if M.group is not N.group or M.field != N.field:
        raise IncompatibleHandles("hom space over mixed groups or fields")
    f = M.field
    if M.dim == 0 or N.dim == 0:
        return []
    eyeM = FqMatrix.identity(f, M.dim)
    eyeN = FqMatrix.identity(f, N.dim)
    blocks = [b.kron(eyeM) - eyeN.kron(a.T) for a, b in zip(gen_mats(M), gen_mats(N))]
    K = kernel_basis(vstack(blocks))
    return [FqMatrix(f, K.a[:, j].reshape(N.dim, M.dim).copy()) for j in range(K.cols)]


def all_entries() -> list:
    """Every catalog entry, the registry's names in order."""
    return [e for name in catalog_names() for e in build_entries(name)]


def frobenius_twist_beta(b: BetaTuple) -> BetaTuple:
    """Replace each local character by its composite with the inverse field
    automorphism; signs are untouched."""
    entries = {
        cid: BetaEntry(e.subgroup, e.epsilon, frobenius_inverse_twist(e.character), e.ctx)
        for cid, e in b.entries.items()
    }
    return BetaTuple(b.group, b.field, entries)


# -- random generators ------------------------------------------------------------


def random_matrix(rng, fld: FqField, rows: int, cols: int) -> FqMatrix:
    return FqMatrix(fld, rng.integers(0, fld.q, size=(rows, cols), dtype=np.int16))


def random_labeled_module(rng, G: FiniteGroup, fld: FqField, max_summands=3, twists=False):
    lat = G.lattice()
    reps = lat.class_reps
    chars = all_characters(G, fld) if twists else None
    count = int(rng.integers(1, max_summands + 1))
    parts = []
    for _ in range(count):
        H = reps[int(rng.integers(0, len(reps)))]
        m = perm_module(G, H, fld)
        if chars:
            m = twist(m, chars[int(rng.integers(0, len(chars)))])
        parts.append(m)
    return direct_sum(parts)


def random_hom(rng, M: KgModule, N: KgModule):
    basis = hom_space_basis(M, N)
    if not basis:
        return ModuleMap(M, N, FqMatrix.zeros(M.field, N.dim, M.dim))
    fld = M.field
    total = FqMatrix.zeros(fld, N.dim, M.dim)
    for b in basis:
        c = int(rng.integers(0, fld.q))
        total = total + scale(b, c)
    return ModuleMap(M, N, total)


def random_complex(rng, G: FiniteGroup, fld: FqField, max_len=4, max_dim=6):
    """A bounded complex of permutation-type modules with random equivariant
    differentials sampled from the solution space of d o d = 0."""
    length = int(rng.integers(1, max_len + 1))
    mods = []
    for _ in range(length):
        m = random_labeled_module(rng, G, fld, max_summands=2)
        while m.dim > max_dim:
            m = random_labeled_module(rng, G, fld, max_summands=1)
        mods.append(m)
    diffs = {}
    prev = None  # previous differential d_i while choosing d_{i+1}
    for i in range(1, length):
        src, dst = mods[i], mods[i - 1]
        basis = hom_space_basis(src, dst)
        if not basis:
            prev = FqMatrix.zeros(fld, dst.dim, src.dim)
            diffs[i] = prev
            continue
        if prev is None or prev.is_zero():
            pick = basis
        else:
            # keep only combinations with prev @ d = 0
            flat = hstack([FqMatrix(fld, (prev @ b).a.reshape(-1, 1)) for b in basis])
            K = kernel_basis(flat)
            pick = []
            for j in range(K.cols):
                combo = FqMatrix.zeros(fld, dst.dim, src.dim)
                for bi, b in enumerate(basis):
                    combo = combo + scale(b, int(K.a[bi, j]))
                pick.append(combo)
        if not pick:
            prev = FqMatrix.zeros(fld, dst.dim, src.dim)
            diffs[i] = prev
            continue
        total = FqMatrix.zeros(fld, dst.dim, src.dim)
        for b in pick:
            total = total + scale(b, int(rng.integers(0, fld.q)))
        prev = total
        diffs[i] = total
    return BoundedComplex(G, fld, 0, mods, diffs)


# -- the faithful decomposition by repeated multiplication -----------------------


def faithful_project_by_loop(x: XiInvariant) -> list:
    """`invariants.faithful_project` with each character value raised to
    the power mu by |mu| multiplications (by its inverse when mu < 0)."""
    G, f = x.group, x.field
    lat = G.lattice()
    poset = lat.normal_p_subgroups(f.p)
    cols = mobius_columns(poset)
    out = []
    for s, S in enumerate(poset):
        quot_S = quotient(G, S)
        weights = [(Q, col[s]) for Q, col in zip(poset, cols) if col.get(s)]
        entries = {}
        for Pbar in quot_S.group.lattice().p_class_reps(f.p):
            P = _preimage_subgroup(quot_S, Pbar)
            ctxbar = local_quotient(Pbar)
            joins = [(lat.join(P, Q), mu) for Q, mu in weights]
            values = []
            for gbar in ctxbar.generator_lifts():
                g = quot_S.lift(gbar)
                acc = 1
                for PQ, mu in joins:
                    code = x.value_at(PQ, g)[1]
                    step = code if mu >= 0 else int(f.inv[code])
                    for _ in range(abs(mu)):
                        acc = int(f.mul[acc, step])
                values.append(acc)
            h = sum(mu * x.entries[PQ.class_id].h for PQ, mu in joins)
            entries[Pbar.class_id] = XiEntry(Pbar, h, Character(ctxbar.group, f, values), ctxbar)
        out.append((S, XiInvariant(quot_S.group, f, entries)))
    return out
