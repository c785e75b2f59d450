import random

import pytest

from groupoidal.groupoids import (DegreeTooLarge, FiniteGroupoid, nerve, validate_groupoid,
                                  validate_module)
from groupoidal.homology import homology_groups
from groupoidal.models import (MalformedDiagram, NotAGroup, NotAnAction,
                               NotSurjective, action_groupoid,
                               bratteli_stationary, constant_module,
                               cyclic_table, disjoint_union,
                               full_pair_groupoid, group_groupoid,
                               odometer_system, pair_groupoid_from_map,
                               random_groupoid, random_module, sign_module,
                               space_groupoid)
from groupoidal import models, zlinalg
from groupoidal.zlinalg import FgAbGroup, IntMatrix

from oracles import group_groupoid_of_table, orbit_count, permutation_module
from test_resolution import D4, S3, _relabelled

S3_TABLE = [
    # elements: e, (12), (13), (23), (123), (132)
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
]


def test_space_groupoid_point():
    pt = space_groupoid(1)
    assert pt.n_arrows == 1 and validate_groupoid(pt).ok


def test_space_groupoid_nerve_counts():
    from groupoidal.groupoids import nerve
    sp = space_groupoid(4)
    for n in range(4):
        assert len(nerve(sp, n)) == 4


def test_group_groupoid_cyclic():
    for k in (2, 3):
        g = group_groupoid(cyclic_table(k))
        assert g.n_units == 1
        assert validate_groupoid(g).ok


def test_group_groupoid_s3():
    g = group_groupoid(S3_TABLE)
    assert validate_groupoid(g).ok
    assert g.n_arrows == 6


def test_group_groupoid_rejects_non_group():
    with pytest.raises(NotAGroup):
        group_groupoid([[0, 0], [0, 0]])
    with pytest.raises(NotAGroup):
        group_groupoid([[0, 1], [1, 1]])


def test_pair_groupoid_constant_map():
    g = pair_groupoid_from_map([0, 0, 0])
    assert g.n_arrows == 9
    assert validate_groupoid(g).ok


def test_pair_groupoid_bijection_is_space():
    g = pair_groupoid_from_map([0, 1, 2])
    assert g.n_arrows == 3
    assert all(g.is_unit(a) for a in range(3))


def test_pair_groupoid_mixed_fibers():
    g = pair_groupoid_from_map([0, 0, 1])  # fibers of sizes 2 and 1
    assert g.n_arrows == 2 * 2 + 1
    assert validate_groupoid(g).ok


def test_pair_groupoid_rejects_gaps():
    with pytest.raises(NotSurjective):
        pair_groupoid_from_map([0, 2])


def test_action_groupoid_swap():
    g = action_groupoid(cyclic_table(2), [[0, 1], [1, 0]])
    assert g.n_arrows == 4
    assert validate_groupoid(g).ok
    assert homology_groups(g, 0)[0] == FgAbGroup.free(1)


def test_action_groupoid_trivial_action():
    g = action_groupoid(cyclic_table(2), [[0, 1], [0, 1]])
    assert validate_groupoid(g).ok
    assert g.n_arrows == 4


def test_action_groupoid_rotation():
    g = action_groupoid(cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert validate_groupoid(g).ok
    assert orbit_count(g) == 1


def test_action_groupoid_rejects_non_action():
    with pytest.raises(NotAnAction):
        action_groupoid(cyclic_table(2), [[0, 1], [0, 1, 2]])
    with pytest.raises(NotAnAction):
        # the generator must square to the identity permutation
        action_groupoid(cyclic_table(2), [[0, 1, 2], [1, 2, 0]])


def test_disjoint_union_homology_additive():
    rng = random.Random(31)
    for _ in range(3):
        g1 = random_groupoid(rng, max_arrows=10)
        g2 = random_groupoid(rng, max_arrows=10)
        u = disjoint_union(g1, g2)
        assert validate_groupoid(u).ok
        h1 = homology_groups(g1, 2)
        h2 = homology_groups(g2, 2)
        hu = homology_groups(u, 2)
        for n in range(3):
            assert hu[n] == h1[n].direct_sum(h2[n])


def test_disjoint_union_points():
    u = disjoint_union(space_groupoid(1), space_groupoid(1))
    assert homology_groups(u, 0)[0] == FgAbGroup.free(2)


def test_bratteli_stationary_shapes():
    b = bratteli_stationary(2, 4)
    assert b.vertex_counts == (1,) * 5
    assert all(m == IntMatrix.from_rows([[2]]) for m in b.matrices)
    b2 = bratteli_stationary(IntMatrix.from_rows([[1, 1], [1, 1]]), 3)
    assert b2.vertex_counts == (2, 2, 2, 2)
    ident = bratteli_stationary(IntMatrix.identity(3), 2)
    assert ident.matrices[0] == IntMatrix.identity(3)


def test_bratteli_rejects_malformed():
    with pytest.raises(MalformedDiagram):
        bratteli_stationary(IntMatrix.from_rows([[1, 0], [0, 0]]), 2)
    with pytest.raises(MalformedDiagram):
        bratteli_stationary(2, 0)


def test_modules_validate():
    z2 = group_groupoid(cyclic_table(2))
    assert validate_module(z2, constant_module(z2, 3)).ok
    assert validate_module(z2, sign_module(z2)).ok
    act = action_groupoid(cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert validate_module(act, constant_module(act, 2)).ok


def test_sign_module_rejects_odd_group():
    z3 = group_groupoid(cyclic_table(3))
    with pytest.raises(ValueError):
        sign_module(z3)


def test_permutation_module_matrices():
    perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    z3 = group_groupoid(cyclic_table(3))
    m = permutation_module(cyclic_table(3), perms, group=z3)
    assert validate_module(z3, m).ok
    assert m.act(1).col(0) == [0, 1, 0]


def test_odometer_system_basics():
    od = odometer_system(2, 3)
    assert od.permutation(1) == [1, 0]
    assert od.permutation(2) == [1, 2, 3, 0]


def test_odometer_refinement_compatibility():
    # truncating after adding one equals adding one after truncating; the
    # truncation sends a depth-(d+1) cylinder to the depth-d cylinder whose
    # refinement holds it
    for p in (2, 3):
        od = odometer_system(p, 4)
        for d in range(1, 4):
            trunc = {i: j for i, j, _ in od.refinement(d).entries()}
            pi_d = od.permutation(d)
            pi_d1 = od.permutation(d + 1)
            for j in range(p ** (d + 1)):
                assert trunc[pi_d1[j]] == pi_d[trunc[j]]


def test_every_constructor_h0_matches_orbit_count():
    rng = random.Random(17)
    graphs = [
        space_groupoid(3),
        group_groupoid(cyclic_table(3)),
        full_pair_groupoid(3),
        action_groupoid(cyclic_table(2), [[0, 1], [1, 0]]),
        disjoint_union(space_groupoid(2), group_groupoid(cyclic_table(2))),
    ] + [random_groupoid(rng) for _ in range(4)]
    for g in graphs:
        assert validate_groupoid(g).ok
        assert homology_groups(g, 0)[0] == FgAbGroup.free(orbit_count(g))


def test_pair_groupoid_matches_base_space_homology():
    # equivalence relations of a surjection have the homology of the base
    for psi, base in [([0, 0, 0], 1), ([0, 0, 1], 2), ([0, 1, 1, 0], 2)]:
        rel = pair_groupoid_from_map(psi)
        sp = space_groupoid(base)
        assert homology_groups(rel, 2) == homology_groups(sp, 2)


def test_random_groupoid_size_and_validity():
    rng = random.Random(4)
    for _ in range(10):
        g = random_groupoid(rng)
        assert g.n_arrows <= 20
        assert validate_groupoid(g).ok
        m = random_module(g, rng)
        assert validate_module(g, m).ok


def test_odometer_depth_cap(monkeypatch):
    monkeypatch.setenv("GROUPOIDAL_CAP", "100")
    with pytest.raises(DegreeTooLarge):
        odometer_system(2, 10)


# -- each size check admits its input at the cap and refuses it one below ------


def _refused_one_below(monkeypatch, work, build):
    """build() passes with the cap at `work` and raises DegreeTooLarge with
    the cap at work - 1."""
    monkeypatch.setenv("GROUPOIDAL_CAP", str(work))
    build()
    monkeypatch.setenv("GROUPOIDAL_CAP", str(work - 1))
    with pytest.raises(DegreeTooLarge):
        build()


def test_pair_fibers_charge_k_cubed_each(monkeypatch):
    # fibers of 2 and 3 points, read out of order: 2^3 + 3^3 composable pairs
    _refused_one_below(monkeypatch, 8 + 27, lambda: pair_groupoid_from_map([1, 0, 1, 0, 1]))


@pytest.mark.parametrize("multiplicity, vertices", [(2, 1), ([[1, 1], [1, 0]], 2)],
                         ids=["uhf2", "golden"])
def test_stationary_diagram_charges_its_vertex_levels(multiplicity, vertices, monkeypatch):
    _refused_one_below(monkeypatch, 4 * vertices, lambda: bratteli_stationary(multiplicity, 3))


def test_odometer_charges_the_points_of_every_depth(monkeypatch):
    # 3 + 9 points at 50 entries each
    _refused_one_below(monkeypatch, (3 + 9) * 50, lambda: odometer_system(3, 2))


# -- checks over all triples are charged against the cap first ------------------


def test_group_table_charges_k_cubed_before_the_associativity_check(monkeypatch):
    monkeypatch.setenv("GROUPOIDAL_CAP", str(5 ** 3))
    assert group_groupoid(cyclic_table(5)).n_arrows == 5
    monkeypatch.setenv("GROUPOIDAL_CAP", str(5 ** 3 - 1))
    with pytest.raises(DegreeTooLarge):
        group_groupoid(cyclic_table(5))


def test_action_charges_k_squared_times_the_points(monkeypatch):
    perms = [[(x + 2 * g) % 6 for x in range(6)] for g in range(3)]
    monkeypatch.setenv("GROUPOIDAL_CAP", str(3 * 3 * 6))
    assert action_groupoid(cyclic_table(3), perms).n_units == 6
    monkeypatch.setenv("GROUPOIDAL_CAP", str(3 * 3 * 6 - 1))
    with pytest.raises(DegreeTooLarge):
        action_groupoid(cyclic_table(3), perms)


@pytest.mark.parametrize("seed", range(4))
def test_validate_groupoid_charges_the_composable_triples(seed, monkeypatch):
    # the count is that of the composable 3-strings, without building them;
    # the pair block keeps it above 1, so the cap below it is positive
    G = disjoint_union(random_groupoid(random.Random(seed)), full_pair_groupoid(2))
    triples = len(nerve(G, 3))
    copy = FiniteGroupoid(G.src, G.rng, G.comp, G.inv, G.units)
    monkeypatch.setenv("GROUPOIDAL_CAP", str(triples))
    assert validate_groupoid(copy).ok
    monkeypatch.setenv("GROUPOIDAL_CAP", str(triples - 1))
    with pytest.raises(DegreeTooLarge):
        validate_groupoid(copy)


# -- every model comes from two constructors, with no elimination ---------------


def _fields(G):
    # the composition dict in insertion order, which the nerve's order follows
    return G.src, G.rng, list(G.comp.items()), G.inv, G.units


def test_models_build_without_the_elimination_engine(monkeypatch):
    def refuse(self, A):
        raise AssertionError("a model ran the elimination engine")

    monkeypatch.setattr(zlinalg._Smith, "__init__", refuse)
    for seed in range(50):
        rng = random.Random(seed)
        G = random_groupoid(rng)
        assert validate_module(G, random_module(G, rng, max_rank=3)).ok
    group_groupoid(S3)
    action_groupoid(cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    space_groupoid(3)
    pair_groupoid_from_map([0, 1, 0, 2])
    bratteli_stationary([[1, 1], [1, 0]], 3)
    odometer_system(3, 2)


def test_random_unimodular_carries_its_inverse():
    rng = random.Random(8)
    for r in (1, 2, 3):
        ident = IntMatrix.identity(r)
        for _ in range(200):
            m, inv = models._random_unimodular(rng, r, rng.randint(0, 8))
            assert m * inv == ident == inv * m


def test_action_groupoid_builds_one_groupoid(monkeypatch):
    built = []

    def counted(*args):
        built.append(FiniteGroupoid(*args))
        return built[-1]

    monkeypatch.setattr(models, "FiniteGroupoid", counted)
    action_groupoid(cyclic_table(3), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert len(built) == 1


@pytest.mark.parametrize("table", [cyclic_table(k) for k in range(1, 7)]
                         + [_relabelled(S3, random.Random(1)), _relabelled(D4, random.Random(2))],
                         ids=[f"z{k}" for k in range(1, 7)] + ["s3", "d4"])
def test_group_groupoid_is_the_direct_construction(table):
    # the relabelled tables move the identity element off 0
    assert _fields(group_groupoid(table)) == _fields(group_groupoid_of_table(table))


def test_space_groupoid_is_the_direct_construction():
    for k in range(1, 6):
        ids = list(range(k))
        direct = FiniteGroupoid(ids, ids, {(i, i): i for i in ids}, ids, ids)
        assert _fields(space_groupoid(k)) == _fields(direct)
