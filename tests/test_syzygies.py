"""`subquotient`, `orbit_map` and `free_generators` against the loops they
replaced (`tests/helpers.py`), on dense and monomial modules: sums and
tensors of permutation modules of C4, V4, D8 and Q8 over F2, F3 and F4,
with the images of `orbit_map` covers inside them and the kernels inside
the free modules.  The syzygy builds are held to the row reductions they
make."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permchain.constructions import gamma_semidihedral, truncated_periodic_resolution
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
from module_reference import dense_copy, free_rank, split_free_summand

GROUPS = ["C4", "V4", "D8", "Q8"]
FIELDS = [(2, 1), (3, 1), (2, 2)]
MAX_DIM = 32


@st.composite
def modules(draw):
    """A sum of one or two permutation modules, maybe tensored with a third,
    in monomial or dense form."""
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
    assert list(sq.module.gen_mats) == mats
    assert sq.witness == witness and sq.projection == proj
    assert sq.module.dim == V.cols - W.cols
    KgModule(M.group, M.field, mats, labels=None, check=True)  # the relations hold


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_free_generators_match_greedy_search(data):
    """On permutation modules and on the dense subquotients of covers."""
    M, V, W = data.draw(stable_pairs())
    if data.draw(st.booleans()):
        M = subquotient(M, V, W).module
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
    assert a.module.gen_mats == b.module.gen_mats
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
    """Radical, head, one reduction of the cover for its rank and kernel,
    one solve for the kernel's action."""
    M = omega(trivial_module(catalog("Q8"), GF(2))).module
    before = linalg_calls["rref"]
    omega(M)
    assert linalg_calls["rref"] - before == 4


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
