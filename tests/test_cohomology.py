import random

import pytest

from groupoidal import cohomology
from groupoidal.cohomology import (cochain_pullback_matrix,
                                   cocycle_coboundary_matrix,
                                   cocycle_cohomology, hom_coboundary_matrix,
                                   hom_side_cohomology, induced_cohomology_map,
                                   pullback_module, theta_rho_check)
from groupoidal.groupoids import (GroupoidFunctor, nerve, validate_module)
from groupoidal.models import (action_groupoid, constant_functor,
                               constant_module, cyclic_table, disjoint_union,
                               full_pair_groupoid, group_groupoid,
                               inclusion_functor_left, permutation_module,
                               random_groupoid, random_module, sign_module,
                               space_groupoid)
from groupoidal.zlinalg import FgAbGroup, IntMatrix, kernel_basis

from isotropy_models import random_orbit_groupoid
from oracles import (betti_over_field_cochain, complex_betti, group_cochain_deltas,
                     modp_rank, orbit_count, rational_rank)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def test_cohomology_builds_each_block_space_once(monkeypatch):
    # degrees 0..3 need the spaces of degrees 0..4: five of each kind
    calls = {"cochain_space": 0, "hom_space": 0}
    for name in calls:
        def counted(*args, _build=getattr(cohomology, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(cohomology, name, counted)
    z3 = group_groupoid(cyclic_table(3))
    M = constant_module(z3, 1)
    assert cocycle_cohomology(z3, M, 3) == hom_side_cohomology(z3, M, 3)
    assert calls == {"cochain_space": 5, "hom_space": 5}


def test_delta0_trivial_module_on_group_is_zero():
    z2 = group_groupoid(cyclic_table(2))
    d0 = cocycle_coboundary_matrix(z2, constant_module(z2, 1), 0)
    assert d0 == IntMatrix.zeros(2, 1)


def test_delta1_z2_hand_values():
    z2 = group_groupoid(cyclic_table(2))
    d1 = cocycle_coboundary_matrix(z2, constant_module(z2, 1), 1)
    cols = {t: i for i, t in enumerate(nerve(z2, 1).tuples)}
    rows = {t: i for i, t in enumerate(nerve(z2, 2).tuples)}
    # f(e) = 0 three times and -f(e) + 2 f(g) = 0 encoded exactly
    assert d1.data[rows[(0, 0)]] == [1, 0]
    assert d1.data[rows[(0, 1)]] == [1, 0]
    assert d1.data[rows[(1, 0)]] == [1, 0]
    assert d1.data[rows[(1, 1)]] == [-1, 2]
    assert kernel_basis(d1).cols == 0


def test_delta0_sign_module():
    z2 = group_groupoid(cyclic_table(2))
    d0 = cocycle_coboundary_matrix(z2, sign_module(z2), 0)
    # value at the unit arrow is 0, at the flip it is -2m
    assert sorted(v[0] for v in d0.data) == [-2, 0]


def test_delta_squares_to_zero():
    rng = random.Random(3)
    cases = [(group_groupoid(cyclic_table(2)), None),
             (full_pair_groupoid(3), None)]
    for _ in range(4):
        G = random_groupoid(rng)
        cases.append((G, random_module(G, rng)))
    for G, M in cases:
        M = M or constant_module(G, 1)
        for n in (0, 1, 2):
            prod = (cocycle_coboundary_matrix(G, M, n + 1)
                    * cocycle_coboundary_matrix(G, M, n))
            assert prod.is_zero()
            prod = (hom_coboundary_matrix(G, M, n + 1)
                    * hom_coboundary_matrix(G, M, n))
            assert prod.is_zero()


def test_z2_cohomology_frozen():
    z2 = group_groupoid(cyclic_table(2))
    got = cocycle_cohomology(z2, constant_module(z2, 1), 3)
    assert got == [Z, ZERO, FgAbGroup.cyclic(2), ZERO]


def test_z3_cohomology_frozen():
    z3 = group_groupoid(cyclic_table(3))
    got = cocycle_cohomology(z3, constant_module(z3, 1), 2)
    assert got == [Z, ZERO, FgAbGroup.cyclic(3)]


@pytest.mark.parametrize("k", [2, 3])
def test_group_cohomology_against_independent_complex(k):
    table = cyclic_table(k)
    G = group_groupoid(table)
    groups = cocycle_cohomology(G, constant_module(G, 1), 3)
    deltas = group_cochain_deltas(table, 2)
    dims = [k ** n for n in range(3)]
    outs = [deltas[n] for n in range(3)]
    ins = [None, deltas[0], deltas[1]]
    assert (complex_betti(outs, ins, dims, rational_rank)
            == [g.free_rank for g in groups[:3]])
    for p in (2, 3):
        assert (complex_betti(outs, ins, dims, lambda m: modp_rank(m, p))
                == betti_over_field_cochain(groups, p)[:3])


def test_space_groupoid_cohomology():
    sp = space_groupoid(4)
    got = cocycle_cohomology(sp, constant_module(sp, 1), 3)
    assert got == [FgAbGroup.free(4), ZERO, ZERO, ZERO]


def test_pair_groupoid_cohomology():
    p3 = full_pair_groupoid(3)
    assert cocycle_cohomology(p3, constant_module(p3, 1), 2) == [Z, ZERO, ZERO]


def test_hom_side_matches_cocycle_side():
    cases = [
        (group_groupoid(cyclic_table(2)), None),
        (group_groupoid(cyclic_table(3)), None),
        (full_pair_groupoid(3), None),
        (space_groupoid(3), None),
    ]
    z2 = group_groupoid(cyclic_table(2))
    cases.append((z2, sign_module(z2)))
    for G, M in cases:
        M = M or constant_module(G, 1)
        assert hom_side_cohomology(G, M, 2) == cocycle_cohomology(G, M, 2)


def test_hom_side_one_unit_trivial_group():
    pt = space_groupoid(1)
    M = constant_module(pt, 2)
    got = hom_side_cohomology(pt, M, 2)
    assert got == [FgAbGroup.free(2), ZERO, ZERO]


def test_theta_rho_z2():
    z2 = group_groupoid(cyclic_table(2))
    rep = theta_rho_check(z2, constant_module(z2, 1), 2)
    assert rep.ok, rep.failures


def test_theta_degree_zero_is_unit_bijection():
    from groupoidal.cohomology import theta_matrix
    p3 = full_pair_groupoid(3)
    M = constant_module(p3, 1)
    assert theta_matrix(p3, M, 0) == IntMatrix.identity(3)


def test_theta_rho_random_instances():
    rng = random.Random(42)
    for i in range(10):
        G = random_groupoid(rng)
        M = random_module(G, rng)
        rep = theta_rho_check(G, M, 2)
        assert rep.ok, (i, rep.failures)


def test_theta_rho_random_orbit_instances():
    # orbits of several units whose isotropy acts on the module
    rng = random.Random(43)
    for i in range(4):
        G, M = random_orbit_groupoid(rng)
        rep = theta_rho_check(G, M, 2)
        assert rep.ok, (i, rep.failures)


def test_pullback_module_identity():
    z2 = group_groupoid(cyclic_table(2))
    M = sign_module(z2)
    pb = pullback_module(GroupoidFunctor.identity(z2), M)
    assert pb.fiber_rank == M.fiber_rank
    assert all(pb.act(g) == M.act(g) for g in range(z2.n_arrows))


def test_pullback_module_constant_functor():
    p3 = full_pair_groupoid(3)
    pt = space_groupoid(1)
    pb = pullback_module(constant_functor(p3, pt), constant_module(pt, 1))
    assert validate_module(p3, pb).ok
    assert all(r == 1 for r in pb.fiber_rank.values())


def test_pullback_sign_module_along_quotient():
    # Z/4 -> Z/2 pulls the sign module back to the one trivial on the kernel
    z4 = group_groupoid(cyclic_table(4))
    z2 = group_groupoid(cyclic_table(2))
    quot = GroupoidFunctor(z4, z2, [0, 1, 0, 1])
    pb = pullback_module(quot, sign_module(z2))
    assert validate_module(z4, pb).ok
    assert [pb.act(g).data[0][0] for g in range(4)] == [1, -1, 1, -1]


def test_induced_cohomology_identity():
    z2 = group_groupoid(cyclic_table(2))
    M = constant_module(z2, 1)
    for n in (0, 1, 2):
        ind = induced_cohomology_map(GroupoidFunctor.identity(z2), M, n)
        assert ind.matrix == IntMatrix.identity(ind.source.n_generators)


def test_surjective_functor_pullback_injective():
    p3 = full_pair_groupoid(3)
    pt = space_groupoid(1)
    phi = constant_functor(p3, pt)
    M = constant_module(pt, 1)
    for n in (0, 1, 2):
        P = cochain_pullback_matrix(phi, M, n)
        assert kernel_basis(P).cols == 0
    ind = induced_cohomology_map(phi, M, 0)
    assert ind.is_injective_at_chain_level()
    assert kernel_basis(ind.matrix).cols == 0  # injective on H^0 as well


def test_composition_reversal_at_chain_level():
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, full_pair_groupoid(2))
    pt = space_groupoid(1)
    incl = inclusion_functor_left(z2, union)       # G1 -> G2
    collapse = constant_functor(union, pt)         # G2 -> G3
    composed = collapse.compose_with(incl)         # G1 -> G3
    M = constant_module(pt, 1)
    for n in (0, 1, 2):
        lhs = cochain_pullback_matrix(composed, M, n)
        rhs = (cochain_pullback_matrix(incl, pullback_module(collapse, M), n)
               * cochain_pullback_matrix(collapse, M, n))
        assert lhs == rhs


def test_pullback_commutes_with_coboundary():
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, space_groupoid(2))
    incl = inclusion_functor_left(z2, union)
    M = constant_module(union, 1)
    Mpull = pullback_module(incl, M)
    for n in (0, 1):
        lhs = cochain_pullback_matrix(incl, M, n + 1) * cocycle_coboundary_matrix(union, M, n)
        rhs = cocycle_coboundary_matrix(z2, Mpull, n) * cochain_pullback_matrix(incl, M, n)
        assert lhs == rhs


def test_h0_rank_is_orbit_count():
    rng = random.Random(19)
    for _ in range(5):
        G = random_groupoid(rng)
        h0 = cocycle_cohomology(G, constant_module(G, 1), 0)[0]
        assert h0 == FgAbGroup.free(orbit_count(G))


def test_transformation_groupoid_matches_group_with_permutation_module():
    perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    act = action_groupoid(cyclic_table(3), perms)
    z3 = group_groupoid(cyclic_table(3))
    pm = permutation_module(cyclic_table(3), perms, group=z3)
    lhs = cocycle_cohomology(act, constant_module(act, 1), 2)
    rhs = cocycle_cohomology(z3, pm, 2)
    assert lhs == rhs
    swap = action_groupoid(cyclic_table(2), [[0, 1], [1, 0]])
    z2 = group_groupoid(cyclic_table(2))
    pm2 = permutation_module(cyclic_table(2), [[0, 1], [1, 0]], group=z2)
    assert (cocycle_cohomology(swap, constant_module(swap, 1), 2)
            == cocycle_cohomology(z2, pm2, 2))


def test_s3_classical_cohomology():
    from test_models import S3_TABLE
    s3 = group_groupoid(S3_TABLE)
    got = cocycle_cohomology(s3, constant_module(s3, 1), 2)
    assert got == [Z, ZERO, FgAbGroup.cyclic(2)]
    assert theta_rho_check(s3, constant_module(s3, 1), 1).ok
