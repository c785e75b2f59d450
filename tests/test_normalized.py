"""The normalized complexes against the full ones, as exact identities.

The normalized chains are the quotient of the full chains by the
degenerate strings (strings with a unit entry), so the projection p that
kills them is a chain map: d_norm * p = p * d_full.  The normalized
cochains are the cochains that vanish on degenerate strings, so extension
by zero i is a cochain map: delta_full * i = i * delta_norm.  Both have the
same (co)homology as the full complexes, which stay the reference here.
The normalized route itself lives in `normalized.py` of the tests, as a
reference for the Morse resolutions the program computes on.
"""

import random

import pytest

from groupoidal.cohomology import (cochain_complex, cochain_space, cocycle_cohomology,
                                   hom_side_cohomology, hom_space)
from groupoidal.groupoids import boundary_matrix_d, homology_face, nerve
from groupoidal.homology import homology_groups, nerve_complex
from groupoidal.models import (action_groupoid, constant_module, cyclic_table,
                               disjoint_union, full_pair_groupoid, group_groupoid,
                               random_groupoid, random_module, sign_module,
                               space_groupoid)
from groupoidal.zlinalg import FgAbGroup, IntMatrix, coefficients_via_uct

from isotropy_models import random_orbit_groupoid
from normalized import (normalized_boundary, normalized_cochain_groups,
                        normalized_cochain_space, normalized_complex, normalized_hom_space,
                        normalized_nerve)
from oracles import modp_rank

TOP = 3  # chain and cochain degrees 0..TOP


def _zoo():
    z2 = group_groupoid(cyclic_table(2))
    return [
        (z2, sign_module(z2)),
        (group_groupoid(cyclic_table(3)), None),
        (full_pair_groupoid(3), None),
        (space_groupoid(3), None),
        (action_groupoid(cyclic_table(2), [[0, 1, 2], [1, 0, 2]]), None),
        (disjoint_union(z2, full_pair_groupoid(2)), None),
    ]


def _random(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_arrows=12)
    return G, random_module(G, rng)


# orbits{seed}: an orbit of several units whose isotropy acts on the module
CASES = ([pytest.param(G, M, id=f"zoo{k}") for k, (G, M) in enumerate(_zoo())]
         + [pytest.param(*_random(seed), id=f"random{seed}") for seed in range(8)]
         + [pytest.param(*random_orbit_groupoid(random.Random(seed)), id=f"orbits{seed}")
            for seed in range(4)])


def _module(G, M):
    return M if M is not None else constant_module(G, 1)


def _degenerate(G, t, n):
    return n > 0 and any(G.is_unit(g) for g in t)


def _projection(G, n):
    """Normalized degree-n chains <- full degree-n chains."""
    full, norm = nerve(G, n), normalized_nerve(G, n)
    return IntMatrix.from_entries(
        len(norm), len(full),
        ((norm.index[t], j, 1) for j, t in enumerate(full.tuples)
         if not _degenerate(G, t, n)))


def _extension(full, norm):
    """Full cochains <- normalized cochains, by zero on degenerate strings."""
    return IntMatrix.from_entries(
        full.total, norm.total,
        ((full.offset[full.key_of(norm.string_of(k))] + i, norm.offset[k] + i, 1)
         for k, r in zip(norm.keys, norm.ranks) for i in range(r)))


@pytest.mark.parametrize("G, M", CASES)
def test_normalized_basis_is_the_nondegenerate_strings_in_lex_order(G, M):
    for n in range(TOP + 1):
        want = tuple(t for t in nerve(G, n).tuples if not _degenerate(G, t, n))
        assert normalized_nerve(G, n).tuples == want


# the builders treat a face outside the codomain basis as zero, so these
# two tests are what stops a string missing from a basis from going unseen
@pytest.mark.parametrize("G, M", CASES)
def test_every_face_of_a_full_string_is_in_the_full_basis(G, M):
    for n in range(1, TOP + 1):
        index = nerve(G, n - 1).index
        for t in nerve(G, n).tuples:
            for i in range(n + 1):
                assert homology_face(G, t, i) in index, (t, i)


@pytest.mark.parametrize("G, M", CASES)
def test_a_normalized_face_is_in_the_basis_unless_its_composite_is_a_unit(G, M):
    for n in range(1, TOP + 1):
        index = normalized_nerve(G, n - 1).index
        for t in normalized_nerve(G, n).tuples:
            for i in range(n + 1):
                degenerate = 0 < i < n and G.is_unit(G.comp[t[i - 1], t[i]])
                assert (homology_face(G, t, i) in index) != degenerate, (t, i)


@pytest.mark.parametrize("G, M", CASES)
def test_projection_onto_normalized_chains_is_a_chain_map(G, M):
    for n in range(1, TOP + 1):
        d_full, d_norm = boundary_matrix_d(G, n), normalized_boundary(G, n)
        assert d_norm * _projection(G, n) == _projection(G, n - 1) * d_full, n


@pytest.mark.parametrize("space", [(cochain_space, normalized_cochain_space),
                                   (hom_space, normalized_hom_space)], ids=["cocycle", "hom"])
@pytest.mark.parametrize("G, M", CASES)
def test_extension_by_zero_of_normalized_cochains_is_a_cochain_map(G, M, space):
    M = _module(G, M)
    full_space, norm_space = space
    full = [full_space(G, M, n) for n in range(TOP + 1)]
    norm = [norm_space(G, M, n) for n in range(TOP + 1)]
    cx_full, cx_norm = cochain_complex(G, M, full), cochain_complex(G, M, norm)
    ext = [_extension(f, g) for f, g in zip(full, norm)]
    for n in range(TOP):
        assert cx_full.d_out(n) * ext[n] == ext[n + 1] * cx_norm.d_out(n), n


@pytest.mark.parametrize("G, M", CASES)
def test_normalized_homology_equals_the_full_route(G, M):
    full = nerve_complex(G, TOP).groups()
    assert normalized_complex(G, TOP).groups() == full
    assert homology_groups(G, TOP) == full
    for m in (4, 6):
        below, want = FgAbGroup.trivial(), []
        for h in full:
            want.append(coefficients_via_uct(h, below, m))
            below = h
        assert homology_groups(G, TOP, coefficients=m) == want, m


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("G, M", CASES)
def test_normalized_mod_p_homology_matches_full_mod_p_ranks(G, M, p):
    # dim H_n(Z/p) = dim C_n - rank_p d_n - rank_p d_{n+1} on the full chains
    dims = [len(nerve(G, n)) for n in range(TOP + 2)]
    ranks = [0] + [modp_rank(boundary_matrix_d(G, n).data, p) for n in range(1, TOP + 2)]
    got = homology_groups(G, TOP, coefficients=p)
    for n, h in enumerate(got):
        assert h.free_rank == 0 and set(h.torsion) <= {p}
        assert len(h.torsion) == dims[n] - ranks[n] - ranks[n + 1], n


@pytest.mark.parametrize("G, M", CASES)
def test_normalized_cohomology_equals_the_full_route_in_both_models(G, M):
    M = _module(G, M)
    top = TOP - 1
    for space, norm_space, groups in (
            (cochain_space, normalized_cochain_space, cocycle_cohomology),
            (hom_space, normalized_hom_space, hom_side_cohomology)):
        full = cochain_complex(G, M, [space(G, M, n) for n in range(top + 2)]).groups()
        assert normalized_cochain_groups(G, M, top, norm_space) == full, space.__name__
        assert groups(G, M, top) == full, space.__name__
