import json
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import cli, zlinalg
from groupoidal.homology import homology_groups
from groupoidal.limits import (ColimitGroup, StageBoundExceeded, Tower,
                               af_cohomology_tower, af_homology,
                               colimit_divisible, colimit_equal,
                               dimension_group, limit_and_lim1)
from groupoidal.models import (MalformedDiagram, bratteli_stationary,
                               pair_groupoid_from_map)
from groupoidal.zlinalg import (FgAbGroup, IntMatrix, LinearSystem, invariant_factors,
                                rank)

from oracles import image_basis, lattice_index, recording_engine, truncated_threads


def doubling():
    return ColimitGroup(Tower.stationary_tower("direct", IntMatrix.from_rows([[2]])))


def test_colimit_equal_examples():
    C = doubling()
    res = colimit_equal(C, C.element(0, [1]), C.element(1, [2]), 5)
    assert res.kind == "equal" and res.stage == 1
    res = colimit_equal(C, C.element(0, [1]), C.element(0, [2]), 5)
    assert res.kind == "not_equal" and res.exact
    res = colimit_equal(C, C.element(2, [7]), C.element(2, [7]), 5)
    assert res.kind == "equal" and res.stage == 2


def test_colimit_equal_stage_bound():
    C = doubling()
    with pytest.raises(StageBoundExceeded):
        colimit_equal(C, C.element(6, [1]), C.element(0, [1]), 5)


def test_colimit_equal_is_equivalence_on_reachable_fragment():
    # non-injective stationary map: only bounded answers, so check the
    # relation behaves like an equivalence where it does decide
    T = Tower.stationary_tower("direct", IntMatrix.from_rows([[2, 0], [0, 0]]))
    C = ColimitGroup(T)
    a = C.element(0, [1, 5])
    b = C.element(1, [2, 0])
    c = C.element(2, [4, 0])
    ab = colimit_equal(C, a, b, 6)
    bc = colimit_equal(C, b, c, 6)
    ac = colimit_equal(C, a, c, 6)
    assert ab.kind == "equal" and bc.kind == "equal" and ac.kind == "equal"
    assert colimit_equal(C, a, a, 6).kind == "equal"
    assert colimit_equal(C, b, a, 6).kind == "equal"  # symmetric


def test_colimit_divisible_examples():
    C = doubling()
    a = C.element(0, [1])
    res = colimit_divisible(C, a, 2, 8)
    assert (res.kind, res.stage, res.vector) == ("witness", 1, (1,))
    res = colimit_divisible(C, a, 3, 8)
    assert res.kind == "no" and res.exact
    res = colimit_divisible(C, a, 1, 8)
    assert res.kind == "witness"


def test_colimit_divisible_mixed_divisor():
    C = doubling()
    # q = 12 = 4 * 3: the 3-part must divide the coefficient
    assert colimit_divisible(C, C.element(0, [3]), 12, 20).kind == "witness"
    assert colimit_divisible(C, C.element(0, [1]), 12, 20).kind == "no"


def test_colimit_divisible_bounded_for_general_towers():
    T = Tower("direct", [1, 1, 1], [IntMatrix.from_rows([[2]])] * 2)
    C = ColimitGroup(T)
    res = colimit_divisible(C, C.element(0, [1]), 3, 2)
    assert res.kind == "no_witness_up_to" and not res.exact


@pytest.mark.parametrize("query", ["equal", "divisible"])
def test_a_query_scan_is_charged_as_its_entries_grow(query, monkeypatch):
    # the same 200 stages of a map that is not injective: entries of a few
    # words at multiplicity 1, of up to 200 words at multiplicity 2^64
    from groupoidal.groupoids import DegreeTooLarge

    def scan(m):
        C = ColimitGroup(Tower.stationary_tower("direct", IntMatrix.from_rows([[m, m], [m, m]])))
        a = C.element(0, [1, 0])
        if query == "equal":
            return colimit_equal(C, a, C.element(0, [2, 0]), 200).kind
        return colimit_divisible(C, a, 7, 200).kind
    monkeypatch.setenv("GROUPOIDAL_CAP", "10000")
    assert scan(1) == {"equal": "not_equal_up_to", "divisible": "no_witness_up_to"}[query]
    with pytest.raises(DegreeTooLarge):
        scan(2 ** 64)


def test_dimension_group_uhf2():
    B = bratteli_stationary(2, 4)
    C = dimension_group(B)
    assert C.tower.rank_at(0) == 1
    assert C.tower.map_at(0) == IntMatrix.from_rows([[2]])
    a = C.element(0, [1])
    for k in (1, 2, 3):
        assert colimit_divisible(C, a, 2 ** k, 6).kind == "witness"
    assert colimit_divisible(C, a, 5, 6).kind == "no"


def test_dimension_group_identity_diagram():
    B = bratteli_stationary(IntMatrix.identity(3), 3)
    C = dimension_group(B)
    assert C.tower.rank_at(0) == 3
    assert C.tower.map_at(1) == IntMatrix.identity(3)


def test_dimension_group_ones_matrix():
    m = IntMatrix.from_rows([[1, 1], [1, 1]])
    B = bratteli_stationary(m, 3)
    C = dimension_group(B)
    # composites collapse to rank one: a single free generator survives
    comp = C.tower.map_at(0)
    for n in (1, 2):
        comp = C.tower.map_at(n) * comp
        assert rank(comp) == 1
    assert invariant_factors(C.tower.map_at(0)) == [1]


def test_af_homology_vanishes_positively():
    B = bratteli_stationary(2, 3)
    assert af_homology(B, 1).group == FgAbGroup.trivial()
    assert af_homology(B, 5).group == FgAbGroup.trivial()
    assert af_homology(B, 0).colimit is not None


def test_af_homology_matches_truncated_elementary_groupoids():
    # level-L truncations of the full shift are pair-groupoid bundles,
    # whose homology vanishes in positive degrees
    for fibers in ([0, 0], [0, 0, 1, 1], [0, 0, 0, 1]):
        R = pair_groupoid_from_map(fibers)
        h = homology_groups(R, 2)
        assert h[1] == FgAbGroup.trivial()
        assert h[2] == FgAbGroup.trivial()
        assert h[0].free_rank == len(set(fibers))


def test_limit_constant_tower():
    T = Tower.stationary_tower("inverse", IntMatrix.identity(1))
    rep = limit_and_lim1(T, 4)
    assert rep.ml_certificate
    assert rep.thread_rank == 1
    assert truncated_threads(T, 4)[1] == IntMatrix.from_rows([[1]])


def test_limit_doubling_tower_nonml():
    T = Tower.stationary_tower("inverse", IntMatrix.from_rows([[2]]))
    rep = limit_and_lim1(T, 5)
    assert not rep.ml_certificate
    assert 0 in rep.nonml_stages
    chain = rep.chains[0]
    # images 2^m Z: ranks constant but indices strictly drop by factor 2
    assert chain.ranks == [1] * 5
    assert chain.indices[1:] == [2, 2, 2, 2]
    assert chain.stabilized_at is None
    # truncated threads force divisibility by 2^N at stage zero
    assert truncated_threads(T, 5)[1] == IntMatrix.from_rows([[32]])


def test_limit_eventually_zero():
    T = Tower("inverse", [1, 1, 1, 1],
              [IntMatrix.from_rows([[1]]), IntMatrix.zeros(1, 1),
               IntMatrix.zeros(1, 1)])
    rep = limit_and_lim1(T, 3)
    assert rep.ml_certificate
    assert truncated_threads(T, 3)[1].cols == 0


def test_limit_surjections_always_ml():
    T = Tower("inverse", [1, 2, 3],
              [IntMatrix.from_rows([[1, 0]]), IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])])
    rep = limit_and_lim1(T, 2)
    assert rep.ml_certificate


def test_image_chains_decrease():
    rng = random.Random(6)
    for _ in range(5):
        mats = [IntMatrix(2, 2, [[rng.randint(-2, 2) for _ in range(2)]
                                 for _ in range(2)]) for _ in range(3)]
        T = Tower("inverse", [2, 2, 2, 2], mats)
        rep = limit_and_lim1(T, 3)
        chain = rep.chains[0]
        # later images are contained in earlier ones
        composite = None
        bases = []
        for m in range(1, 4):
            step = T.map_at(m - 1)
            composite = step if composite is None else composite * step
            bases.append(composite)
        for earlier, later in zip(bases, bases[1:]):
            sys = LinearSystem(earlier)
            for j in range(later.cols):
                assert sys.solve(later.col(j)) is not None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stabilized_at_matches_pairwise_lattice_equality(seed):
    rng = random.Random(seed)
    N = rng.randint(2, 4)
    ranks = [rng.randint(1, 3) for _ in range(N + 1)]
    mats = [IntMatrix(ranks[n], ranks[n + 1],
                      [[rng.choice([-1, 0, 0, 1, 1, 2]) for _ in range(ranks[n + 1])]
                       for _ in range(ranks[n])]) for n in range(N)]
    T = Tower("inverse", ranks, mats)
    rep = limit_and_lim1(T, N)
    assert rep.thread_rank == truncated_threads(T, N)[0].cols
    for n_stage, got in enumerate(rep.chains):
        composites = [mats[n_stage]]
        for m in range(n_stage + 1, N):
            composites.append(composites[-1] * mats[m])
        want = None
        for start, image in enumerate(composites):
            if all(LinearSystem(image).solve_columns(later) is not None
                   and LinearSystem(later).solve_columns(image) is not None
                   for later in composites[start + 1:]):
                want = n_stage + 1 + start
                break
        # one trailing image certifies nothing unless it is the only one
        if start == len(composites) - 1 and start > 0:
            want = None
        assert got.stabilized_at == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stage_chains_match_the_solve_route_index(seed):
    # ranks down to 0, zero maps and non-unit entries, so chains drop rank,
    # vanish, and hold steps of index above 1
    rng = random.Random(seed)
    N = rng.randint(2, 4)
    ranks = [rng.randint(0, 4) for _ in range(N + 1)]
    mats = [IntMatrix.zeros(ranks[n], ranks[n + 1]) if rng.random() < 0.15 else
            IntMatrix(ranks[n], ranks[n + 1],
                      [[rng.choice([0, 0, 1, -1, 2, 3, -4, 6]) for _ in range(ranks[n + 1])]
                       for _ in range(ranks[n])]) for n in range(N)]
    rep = limit_and_lim1(Tower("inverse", ranks, mats), N)
    for n_stage, chain in enumerate(rep.chains):
        composites = [mats[n_stage]]
        for m in range(n_stage + 1, N):
            composites.append(composites[-1] * mats[m])
        images = [image_basis(c).column_list() for c in composites]
        assert chain.ranks == [len(b) for b in images]
        assert chain.indices == [None] + [lattice_index(prev, cur)
                                          for prev, cur in zip(images, images[1:])]


def _transform_factorizations(argv, monkeypatch, capsys):
    """Engines built by one CLI run on which a transform read-out runs."""
    built = []
    monkeypatch.setattr(zlinalg, "_Smith", recording_engine(built))
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden"))
    assert cli.main(argv) == 0
    capsys.readouterr()
    return sum(1 for eng in built if eng.reads)


@pytest.mark.parametrize("argv, want", [
    # every rank and index is read off invariant factors, and the thread
    # rank off the rank of the thread matrix
    (["af-cohomology", "inputs/uhf2.json", "--levels", "4", "--depth", "5"], 0),
    (["af-cohomology", "inputs/uhf2.json", "--levels", "1", "--depth", "5"], 0),
    (["dimension-group", "inputs/uhf6.json", "--queries", "inputs/uhf6-queries.json"], 0),
], ids=["af-levels-4", "af-levels-1", "dimension-group-uhf6"])
def test_numbers_do_not_run_the_transform_engine(argv, want, monkeypatch, capsys):
    assert _transform_factorizations(argv, monkeypatch, capsys) == want


@pytest.mark.parametrize("N,D", [(2, 14), (3, 13)])
def test_af_cohomology_of_2_to_the_16_cylinders_fits_in_1_gib(N, D):
    # the 2^16 depth-16 cylinders give a thread matrix of 114,688 x 131,072;
    # a dense kernel basis of it, 114,688 x 16,384 cells, does not fit in
    # 1 GiB, so the thread rank must be read off a rank
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    uhf2 = os.path.join(os.path.dirname(__file__), "golden", "inputs", "uhf2.json")
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli", "af-cohomology", uhf2,
                          "--levels", str(N), "--depth", str(D), "--format", "json"],
                         capture_output=True, text=True, timeout=10, preexec_fn=limit)
    assert res.returncode == 0, res.stderr[-300:]
    assert json.loads(res.stdout) == {
        "command": "af-cohomology", "p": 2, "stages": N, "depth": D,
        "h0": {"lattice_rank": 1, "constants_only": True, "truncated_thread_rank": 2 ** D},
        "h1": {"image_ranks": [2 ** (D + N - m) for m in range(1, N + 1)],
               "nonml_evidence": True}}


@pytest.mark.parametrize("p,N,D", [(2, 3, 4), (3, 2, 3)])
def test_af_cohomology_tower(p, N, D):
    rep = af_cohomology_tower(bratteli_stationary(p, N), N, D)
    assert rep.h0_lattice_rank == 1
    assert rep.h0_constants_only
    assert rep.h1_nonml_evidence
    # image ranks drop by a factor of p each stage
    for a, b in zip(rep.h1_image_ranks, rep.h1_image_ranks[1:]):
        assert a == p * b


def test_af_cohomology_rejects_general_diagrams():
    B = bratteli_stationary(IntMatrix.from_rows([[1, 1], [1, 1]]), 2)
    with pytest.raises(MalformedDiagram):
        af_cohomology_tower(B, 2, 2)


def test_af_cohomology_charges_p_to_the_depth_plus_levels(monkeypatch):
    from groupoidal.groupoids import DegreeTooLarge
    B = bratteli_stationary(2, 3)
    monkeypatch.setenv("GROUPOIDAL_CAP", str(2 ** 5))
    assert af_cohomology_tower(B, 2, 3).h0_constants_only
    monkeypatch.setenv("GROUPOIDAL_CAP", str(2 ** 5 - 1))
    with pytest.raises(DegreeTooLarge):
        af_cohomology_tower(B, 2, 3)


def test_af_cohomology_depth_cap(monkeypatch):
    from groupoidal.groupoids import DegreeTooLarge
    B = bratteli_stationary(2, 3)
    monkeypatch.setenv("GROUPOIDAL_CAP", "10")
    with pytest.raises(DegreeTooLarge):
        af_cohomology_tower(B, 3, 4)
