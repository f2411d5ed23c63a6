"""`subquotient`, `orbit_map` and `free_generators` against the loops they
replaced (`tests/helpers.py`), on dense and monomial modules: sums and
tensors of permutation modules of C4, V4, D8 and Q8 over F2, F3 and F4,
with the images of `orbit_map` covers inside them and the kernels inside
the free modules.  `omega` and `free_generators` on a span V inside a
permutation module of a p-group against the dense syzygy of the module
span(V) (`module_reference.dense_omega`) and the greedy search on it, read
back through V.  The syzygy builds are held to the row reductions they
make."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permchain.constructions import gamma_semidihedral, truncated_periodic_resolution
from permchain.errors import NotSubmodule
from permchain.ffield import GF
from permchain.groups import catalog
from permchain.linalg import FqMatrix, image_basis, kernel_basis
from permchain.modules import (
    KgModule,
    ModuleMap,
    direct_sum,
    free_module,
    perm_module,
    regular_module,
    tensor,
    trivial_module,
)
from permchain.syzygies import free_generators, omega, orbit_map, subquotient

from helpers import (
    greedy_free_generators,
    per_element_orbit_map,
    per_generator_subquotient,
    random_matrix,
)
from module_reference import DenseModule, dense_copy, dense_omega, free_rank, split_free_summand

GROUPS = ["C4", "V4", "D8", "Q8"]
FIELDS = [(2, 1), (3, 1), (2, 2)]
P_GROUPS = [(name, (2, 1)) for name in GROUPS] + [
    ("C4", (2, 2)), ("D8", (2, 2)), ("C9", (3, 1)), ("CpxCp3", (3, 1)),
]
MAX_DIM = 32


@st.composite
def modules(draw, p_groups=False):
    """A sum of one or two permutation modules, maybe tensored with a third,
    in monomial or dense form; over a p-group in its characteristic if
    `p_groups`."""
    if p_groups:
        name, q = draw(st.sampled_from(P_GROUPS))
        G, fld = catalog(name), GF(*q)
    else:
        G = catalog(draw(st.sampled_from(GROUPS)))
        fld = GF(*draw(st.sampled_from(FIELDS)))
    reps = G.lattice().class_reps

    def perm():
        return perm_module(G, draw(st.sampled_from(reps)), fld)

    M = direct_sum([perm() for _ in range(draw(st.integers(1, 2)))])
    if draw(st.booleans()):
        N = perm()
        if M.dim * N.dim <= MAX_DIM:
            M = tensor(M, N)
    return dense_copy(M) if draw(st.booleans()) else M


def span_module(M, V: FqMatrix, W: FqMatrix = None) -> DenseModule:
    """span(V)/span(W) as a dense module, on the action `subquotient` gives."""
    return DenseModule(M.group, M.field, subquotient(M, V, W).action)


def generator_images(draw, M: KgModule, least=0) -> FqMatrix:
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_matrix(rng, M.field, M.dim, draw(st.integers(least, 2)))


@st.composite
def stable_pairs(draw):
    """(ambient, V, W) with span(W) <= span(V) both G-stable: the submodule
    generated by random columns W0 of M and the one generated by the first
    of them, or the kernel of the cover kG^r -> M that W0 gives and the
    submodule generated by some of its basis vectors."""
    M = draw(modules())
    W0 = generator_images(draw, M, least=1)
    cover = orbit_map(M, W0)
    if draw(st.booleans()):
        V = image_basis(cover)
        W = image_basis(orbit_map(M, W0.take_cols([0])))
        return M, V, W if draw(st.booleans()) else W.take_cols([])
    F = free_module(M.group, M.field, W0.cols)
    if draw(st.booleans()):
        F = dense_copy(F)
    V = kernel_basis(cover)
    W = image_basis(orbit_map(F, V.take_cols(range(draw(st.integers(0, min(2, V.cols)))))))
    return F, V, W


@st.composite
def syzygy_spans(draw):
    """(ambient, V) over a p-group in its characteristic: a module from
    `modules` with V the identity, or the free module of the cover
    kG^r -> M that random columns give, with V the basis of its kernel."""
    M = draw(modules(p_groups=True))
    if draw(st.booleans()):
        return M, FqMatrix.identity(M.field, M.dim)
    W0 = generator_images(draw, M, least=1)
    V = kernel_basis(orbit_map(M, W0))
    assume(V.cols > 0)
    return free_module(M.group, M.field, W0.cols), V


@settings(max_examples=100, deadline=None)
@given(syzygy_spans())
def test_omega_on_a_span_matches_the_dense_syzygy(pair):
    """The same head, the dense cover carried into M by V, and the same
    kernel basis; V the identity is V omitted."""
    M, V = pair
    om = omega(M, V)
    ref = dense_omega(span_module(M, V))
    assert om.cover.source.dim == ref.cover.source.dim
    assert om.cover.matrix == V @ ref.cover.matrix
    assert om.inclusion == ref.inclusion
    if V == FqMatrix.identity(M.field, M.dim):
        again = omega(M)
        assert again.cover.matrix == om.cover.matrix and again.inclusion == om.inclusion


@settings(max_examples=100, deadline=None)
@given(syzygy_spans())
def test_free_generators_on_a_span_match_the_greedy_search(pair):
    M, V = pair
    chosen, images = free_generators(M, V)
    ref_chosen, ref_images = greedy_free_generators(span_module(M, V))
    assert chosen == ref_chosen
    assert images == V @ ref_images


@pytest.mark.parametrize("name, q", [("C4", 2), ("D8", 2), ("C9", 3)])
def test_omega_refuses_a_span_that_is_not_a_submodule(name, q):
    """One basis vector of the regular module: its cover reaches all of kG."""
    M = regular_module(catalog(name), GF(q))
    with pytest.raises(NotSubmodule):
        omega(M, FqMatrix.identity(M.field, M.dim).take_cols([0]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_orbit_map_matches_per_element_loop(data):
    M = data.draw(modules())
    W = generator_images(data.draw, M)
    got = orbit_map(M, W)
    assert got == per_element_orbit_map(M, W)
    ModuleMap(free_module(M.group, M.field, W.cols), M, got)  # a kG-map


@settings(max_examples=100, deadline=None)
@given(stable_pairs())
def test_subquotient_matches_per_generator_loop(pair):
    M, V, W = pair
    sq = subquotient(M, V, W)
    mats, witness, proj = per_generator_subquotient(M, V, W)
    assert sq.action == mats
    assert sq.witness == witness and sq.projection == proj
    assert DenseModule(M.group, M.field, mats, check=True).dim == V.cols - W.cols  # the relations hold


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_free_generators_match_greedy_search(data):
    """On permutation modules and on the dense subquotients of covers."""
    M, V, W = data.draw(stable_pairs())
    if data.draw(st.booleans()):
        M = span_module(M, V, W)
    chosen, images = free_generators(M)
    assert (chosen, images) == greedy_free_generators(M)


@settings(max_examples=60, deadline=None)
@given(stable_pairs())
def test_split_free_summand_splits(pair):
    """kG^r (+) complement: the retraction is the identity on the free part
    and kills the complement, which has no free summand left."""
    M = pair[0]
    assume(M.field.p == 2)
    sf = split_free_summand(M)
    r = sf.rank * M.group.order
    assert sf.retraction @ sf.free_inclusion == FqMatrix.identity(M.field, r)
    assert (sf.retraction @ sf.complement_inclusion).is_zero()
    assert sf.complement.dim == M.dim - r and free_rank(sf.complement) == 0


def test_omitted_and_empty_w_give_the_submodule():
    M = regular_module(catalog("D8"), GF(2))
    V = image_basis(orbit_map(M, FqMatrix.identity(M.field, M.dim).take_cols([0])))
    a, b = subquotient(M, V), subquotient(M, V, V.take_cols([]))
    assert a.action == b.action
    assert a.witness == b.witness == V
    assert a.projection == FqMatrix.identity(M.field, V.cols)


# -- work counts ----------------------------------------------------------------


@pytest.mark.parametrize("name, q", [("D8", 2), ("Q8", 2), ("C9", 3)])
def test_free_generators_reduce_once(linalg_calls, name, q):
    G = catalog(name)
    M = direct_sum([regular_module(G, GF(q)), trivial_module(G, GF(q))])
    for mod in (M, dense_copy(M)):
        before = linalg_calls["rref"]
        chosen, _ = free_generators(mod)
        assert linalg_calls["rref"] - before == 1
        assert len(chosen) == 1


def test_omega_reduces_the_cover_once(linalg_calls):
    """One reduction of the generators' radical columns beside V for the
    head, one of the cover for its rank and kernel; no action is solved."""
    om = omega(trivial_module(catalog("Q8"), GF(2)))
    before = linalg_calls["rref"]
    omega(om.cover.source, om.inclusion)
    assert linalg_calls["rref"] - before == 2


@pytest.mark.parametrize(
    "build, most",
    [
        (lambda: gamma_semidihedral(4, GF(2)), 20),
        (lambda: truncated_periodic_resolution(catalog("C8"), GF(2)), 8),
        (lambda: truncated_periodic_resolution(catalog("Q8"), GF(2)), 16),
        (lambda: truncated_periodic_resolution(catalog("C9"), GF(3)), 8),
    ],
    ids=["gamma-SD16", "trunc-C8", "trunc-Q8", "trunc-C9"],
)
def test_syzygy_builds_bound_their_reductions(linalg_calls, build, most):
    before = linalg_calls["rref"]
    build()
    assert linalg_calls["rref"] - before <= most
