import importlib.util
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal.groupoids import GroupoidFunctor
from groupoidal.homology import (NotAPermutation, chain_pushforward,
                                 homology_groups, induced_homology_map,
                                 odometer_homology, z_action_homology)
from groupoidal.limits import colimit_divisible
from groupoidal.models import (constant_functor, cyclic_table,
                               disjoint_union, full_pair_groupoid,
                               group_groupoid, inclusion_functor_left,
                               random_groupoid, space_groupoid)
from groupoidal.zlinalg import ChainComplex, FgAbGroup, IntMatrix, kernel_basis

from oracles import (betti_over_field, complex_betti, group_bar_boundaries,
                     modp_rank, orbit_count, rational_rank)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def test_space_groupoid_homology():
    got = homology_groups(space_groupoid(4), 3)
    assert got == [FgAbGroup.free(4), ZERO, ZERO, ZERO]


def test_z2_homology_frozen_values():
    z2 = group_groupoid(cyclic_table(2))
    assert homology_groups(z2, 3) == [Z, FgAbGroup.cyclic(2), ZERO,
                                      FgAbGroup.cyclic(2)]


def test_z3_homology_frozen_values():
    z3 = group_groupoid(cyclic_table(3))
    assert homology_groups(z3, 3) == [Z, FgAbGroup.cyclic(3), ZERO,
                                      FgAbGroup.cyclic(3)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_group_homology_against_independent_bar_complex(k):
    """The independently built classical bar complex must predict the
    same Betti numbers over Q and over small prime fields."""
    table = cyclic_table(k)
    groups = homology_groups(group_groupoid(table), 3)
    mats = group_bar_boundaries(table, 3)
    dims = [k ** n for n in range(4)]
    outs = [None] + [mats[n] for n in (1, 2, 3)]
    ins = [mats[n + 1] for n in range(4)]
    # over Q
    assert (complex_betti(outs, ins, dims, rational_rank)
            == [g.free_rank for g in groups])
    # over F_p
    for p in (2, 3):
        assert (complex_betti(outs, ins, dims, lambda m: modp_rank(m, p))
                == betti_over_field(groups, p))


def test_pair_groupoid_homology():
    assert homology_groups(full_pair_groupoid(3), 2) == [Z, ZERO, ZERO]


def test_degree_zero_rank_is_orbit_count():
    rng = random.Random(77)
    for _ in range(6):
        g = random_groupoid(rng)
        h0 = homology_groups(g, 0)[0]
        assert h0 == FgAbGroup.free(orbit_count(g))


def test_mod_m_coefficients():
    z2 = group_groupoid(cyclic_table(2))
    got = homology_groups(z2, 3, coefficients=2)
    assert got == [FgAbGroup.cyclic(2)] * 4
    # nontrivial gcd arithmetic: Z/2 homology with Z/3 coefficients dies
    assert homology_groups(z2, 3, coefficients=3) == [
        FgAbGroup.cyclic(3), ZERO, ZERO, ZERO]


def test_induced_identity_functor():
    z2 = group_groupoid(cyclic_table(2))
    for n in (0, 1):
        ind = induced_homology_map(GroupoidFunctor.identity(z2), n)
        assert ind.matrix == IntMatrix.identity(ind.source.n_generators)


def test_induced_inclusion_into_union():
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, space_groupoid(1))
    incl = inclusion_functor_left(z2, union)
    ind = induced_homology_map(incl, 0)
    assert ind.source_group == Z
    assert ind.target_group == FgAbGroup.free(2)
    assert kernel_basis(ind.matrix).cols == 0  # injective Z -> Z + Z


def test_induced_constant_functor_iso_on_h0():
    p3 = full_pair_groupoid(3)
    pt = space_groupoid(1)
    ind = induced_homology_map(constant_functor(p3, pt), 0)
    assert ind.source_group == Z and ind.target_group == Z
    assert abs(ind.matrix.data[0][0]) == 1


def test_chain_level_functoriality_composition():
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, full_pair_groupoid(2))
    pt = space_groupoid(1)
    incl = inclusion_functor_left(z2, union)
    collapse = constant_functor(union, pt)
    composed = collapse.compose_with(incl)
    for n in (0, 1, 2):
        lhs = chain_pushforward(composed, n)
        rhs = chain_pushforward(collapse, n) * chain_pushforward(incl, n)
        assert lhs == rhs


def test_pushforward_commutes_with_boundaries():
    from groupoidal.groupoids import boundary_matrix_d
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, space_groupoid(2))
    incl = inclusion_functor_left(z2, union)
    for n in (1, 2, 3):
        lhs = chain_pushforward(incl, n - 1) * boundary_matrix_d(z2, n)
        rhs = boundary_matrix_d(union, n) * chain_pushforward(incl, n)
        assert lhs == rhs


def test_z_action_five_cycle():
    za = z_action_homology([1, 2, 3, 4, 0])
    assert (za.h0, za.h1, za.h0_dual, za.h1_dual) == (Z, Z, Z, Z)


def test_z_action_identity():
    za = z_action_homology([0, 1, 2])
    assert za.h0 == FgAbGroup.free(3)
    assert za.h1 == FgAbGroup.free(3)


def test_z_action_two_cycle_plus_fixed():
    za = z_action_homology([1, 0, 2])
    assert za.h0 == FgAbGroup.free(2)
    assert za.h1 == FgAbGroup.free(2)


def test_z_action_rank_equals_orbits():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 7)
        perm = list(range(k))
        rng.shuffle(perm)
        orbits = 0
        seen = set()
        for x in range(k):
            if x not in seen:
                orbits += 1
                while x not in seen:
                    seen.add(x)
                    x = perm[x]
        za = z_action_homology(perm)
        assert za.h0.free_rank == orbits == za.h1.free_rank
        assert za.h0_dual.free_rank == orbits == za.h1_dual.free_rank


def test_z_action_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        z_action_homology([0, 0, 1])


def test_z_action_of_the_benchmark_300_points_runs_one_unit_phase(tmp_path):
    # id - P is factored once: its transpose's groups are read off it
    from groupoidal import zlinalg
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(os.path.dirname(__file__), os.pardir,
                                        "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (job,) = [job for job in workloads.make_jobs("af-towers", 1, 0, str(tmp_path))
              if job["id"] == "z-action-300"]
    perm = [int(x) for x in job["argv"][job["argv"].index("--perm") + 1].split(",")]
    calls = []
    strip = zlinalg._strip_unit_pivots
    with mock.patch.object(zlinalg, "_strip_unit_pivots",
                           lambda *a, **kw: calls.append(1) or strip(*a, **kw)):
        za = z_action_homology(perm)
    assert len(calls) == 1
    assert za.h0 == za.h1 == FgAbGroup.free(job["expect"]["cycles"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(perm=st.integers(1, 12).flatmap(lambda k: st.permutations(range(k))))
def test_z_action_dual_groups_are_those_of_the_transposed_complex(perm):
    k = len(perm)
    delta = IntMatrix.identity(k) - IntMatrix.from_entries(
        k, k, ((px, x, 1) for x, px in enumerate(perm)))
    dual = ChainComplex([delta.transpose(), IntMatrix.zeros(0, k)], 1).groups()
    za = z_action_homology(perm)
    assert [za.h0_dual, za.h1_dual] == list(dual)


@pytest.mark.parametrize("p,depth", [(2, 3), (3, 2)])
def test_odometer_connecting_maps(p, depth):
    rep = odometer_homology(p, depth)
    for entry in rep.per_depth:
        assert entry.h0 == Z
        assert entry.h1 == Z
        if entry.h0_connecting is not None:
            assert entry.h0_connecting == IntMatrix.from_rows([[p]])
            assert entry.h1_connecting == IntMatrix.identity(1)
    assert rep.stabilized_h1 == Z


def test_odometer_factors_each_id_minus_p_once():
    # H_0 reads id - P as its relation matrix (d_0 is zero), and H_1 as its
    # d_out: one engine of the depth's complex serves both.  No transform is
    # read off that engine: the presentations keep its logs and replay them
    # when read, and only the connecting maps read them, the generators of
    # each depth but the last and the coordinates of each depth but the first
    from groupoidal import zlinalg
    from oracles import recording_engine
    built, pres = [], []

    def recording_init(self, *args, _init=zlinalg.ChainHomologyPresentation.__init__):
        pres.append(self)
        _init(self, *args)

    with mock.patch.object(zlinalg, "_Smith", recording_engine(built)), \
            mock.patch.object(zlinalg.ChainHomologyPresentation, "__init__", recording_init):
        odometer_homology(2, 13)
    factored = [(eng.m, eng.n, eng.reads) for eng in built if any(eng.rows)]
    assert factored == [(2 ** d, 2 ** d, set()) for d in range(1, 14)]
    read = [{name for name in ("_coord_rows", "generator_matrix", "generators", "cycle_basis")
             if name in vars(p)} for p in pres]
    assert read == [{name for name, read in (("_coord_rows", d > 1),
                                             ("generator_matrix", d < 13)) if read}
                    for d in range(1, 14) for _ in range(2)]


def test_odometer_colimit_divisibility():
    rep = odometer_homology(2, 4)
    C = rep.h0_colimit
    a = C.element(0, [1])
    for k in (1, 2, 3):
        res = colimit_divisible(C, a, 2 ** k, 3)
        assert res.kind == "witness"
    assert colimit_divisible(C, a, 3, 3).kind == "no_witness_up_to"


def test_induced_map_rejects_invalid_functor():
    from groupoidal.groupoids import InvalidFunctor
    z2 = group_groupoid(cyclic_table(2))
    z3 = group_groupoid(cyclic_table(3))
    bad = GroupoidFunctor(z2, z3, [0, 1])  # not a homomorphism
    with pytest.raises(InvalidFunctor):
        induced_homology_map(bad, 0)


def test_s3_classical_homology():
    from test_models import S3_TABLE
    s3 = group_groupoid(S3_TABLE)
    assert homology_groups(s3, 3) == [Z, FgAbGroup.cyclic(2), ZERO,
                                      FgAbGroup.from_orders([6])]


def test_s3_to_degree_4_factors_only_small_remainders():
    # the unit pivots are stripped first, so only what no +-1 pivot can
    # reduce is left to factor; the full d_5 of S3 is 1296 x 7776.  Those
    # remainders are direct sums of one-row blocks, [2 2] and
    # [2 2] + [-3 3], so they are read as gcds and the engine runs on none
    from test_models import S3_TABLE
    from groupoidal import zlinalg
    shapes, engines = [], []
    split = zlinalg._block_factors

    def recording(A, units=True):
        shapes.append(A.shape)
        return split(A, units)

    class Recording(zlinalg._Smith):
        def __init__(self, A):
            engines.append(A.shape)
            super().__init__(A)

    s3 = group_groupoid(S3_TABLE)
    with mock.patch.object(zlinalg, "_block_factors", recording), \
            mock.patch.object(zlinalg, "_Smith", Recording):
        got = homology_groups(s3, 4)
    assert got == [Z, FgAbGroup.cyclic(2), ZERO, FgAbGroup.cyclic(6), ZERO]
    assert shapes and max(rows for rows, _ in shapes) <= 32, shapes
    assert (1, 2) in shapes and (2, 4) in shapes and not engines, (shapes, engines)
