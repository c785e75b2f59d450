import json
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import cli, limits, zlinalg
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
    # rank is the last stage's rank
    (["af-cohomology", "inputs/uhf2.json", "--levels", "4", "--depth", "5"], 0),
    (["af-cohomology", "inputs/uhf2.json", "--levels", "1", "--depth", "5"], 0),
    (["dimension-group", "inputs/uhf6.json", "--queries", "inputs/uhf6-queries.json"], 0),
], ids=["af-levels-4", "af-levels-1", "dimension-group-uhf6"])
def test_numbers_do_not_run_the_transform_engine(argv, want, monkeypatch, capsys):
    assert _transform_factorizations(argv, monkeypatch, capsys) == want


_UHF2 = os.path.join(os.path.dirname(__file__), "golden", "inputs", "uhf2.json")


def _af_cohomology_in_1_gib(p, N, D, timeout, tmp_path):
    """Run `af-cohomology` on the stationary p-edge diagram (uhf p) in a
    child with 1 GiB of address space and check that it exits 0 with the
    closed form of the report."""
    model = tmp_path / f"uhf{p}.json"
    model.write_text(json.dumps({"kind": "bratteli", "stationary": True, "p": p, "levels": 4}))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli", "af-cohomology", str(model),
                          "--levels", str(N), "--depth", str(D), "--format", "json"],
                         capture_output=True, text=True, timeout=timeout, preexec_fn=limit)
    assert res.returncode == 0, res.stderr[-300:]
    assert json.loads(res.stdout) == {
        "command": "af-cohomology", "p": p, "stages": N, "depth": D,
        "h0": {"lattice_rank": 1, "constants_only": True, "truncated_thread_rank": p ** D},
        "h1": {"image_ranks": [p ** (D + N - m) for m in range(1, N + 1)],
               "nonml_evidence": True}}


@pytest.mark.parametrize("N,D", [(2, 14), (3, 13)])
def test_af_cohomology_of_2_to_the_16_cylinders_fits_in_1_gib(N, D, tmp_path):
    # at 2/14 a dense kernel basis of the 98,304 x 114,688 thread matrix
    # has 114,688 x 16,384 cells and does not fit in 1 GiB, so the thread
    # rank must not be read off a basis
    _af_cohomology_in_1_gib(2, N, D, 10, tmp_path)


@pytest.mark.grid
@pytest.mark.parametrize("N,D", [(2, 17), (1, 19)])
def test_af_cohomology_of_2_to_the_19_cylinders_fits_in_1_gib(N, D, tmp_path):
    # eliminating the 786,432 x 917,504 thread matrix at 2/17 runs out of
    # 1 GiB, so the thread rank must be the last stage's, read off no
    # matrix; at 1/19 the one image rank is factored from the 2^20 x 2^19
    # shift pullback, once the fixed-lattice matrix is released
    _af_cohomology_in_1_gib(2, N, D, 60, tmp_path)


@pytest.mark.grid
@pytest.mark.parametrize("N,D", [(2, 18), (10, 10), (14, 6), (18, 2)])
def test_af_cohomology_of_2_to_the_20_cylinders_fits_in_1_gib(N, D, tmp_path):
    # a stage-0 composite has 2^20 rows; holding the stage maps and their
    # running products beside it runs out of 1 GiB, so each composite is
    # built alone, as a k-fold shift pullback, and released once factored.
    # Each row holds one 1, so its factors are read as column gcds, with
    # no copy of its rows and no pivot
    _af_cohomology_in_1_gib(2, N, D, 60, tmp_path)


@pytest.mark.grid
@pytest.mark.parametrize("p,N,D", [(3, 2, 11), (3, 6, 7), (5, 2, 7)])
def test_af_cohomology_of_uhf3_and_uhf5_at_the_cap_fits_in_1_gib(p, N, D, tmp_path):
    # the stage-0 composites have 3^13 or 5^9 rows; a unit phase that
    # copies their rows, with a column index and a heap beside them, runs
    # out of 1 GiB
    _af_cohomology_in_1_gib(p, N, D, 60, tmp_path)


@pytest.mark.parametrize("p, depth", [(p, d) for p in range(2, 6) for d in range(4)
                                      if p ** d <= 125])
def test_shift_pullback_has_full_column_rank(p, depth):
    # column c holds its p ones in rows c*p .. c*p+p-1, and no other
    # column touches them, so the rank is the column count, which is what
    # the invariant factors af_cohomology_tower reads off must give
    A = limits._shift_pullback(p, depth)
    assert A.shape == (p ** (depth + 1), p ** depth)
    assert sorted(A.entries()) == [(c * p + a, c, 1) for c in range(p ** depth) for a in range(p)]
    assert rank(A) == p ** depth


@pytest.mark.parametrize("p", range(2, 6))
def test_shift_pullback_factors_take_no_pivot(p, monkeypatch):
    # one 1 per row: the k-fold pullback is the direct sum of its columns,
    # so its invariant factors are its column gcds, all 1, and neither the
    # unit phase nor the engine runs
    def refuse(*_):
        raise AssertionError("a shift pullback was eliminated")

    monkeypatch.setattr(zlinalg, "_eliminate_units", refuse)
    monkeypatch.setattr(zlinalg, "_Smith", refuse)
    for depth, k in ((0, 1), (2, 1), (1, 3), (3, 2)):
        assert invariant_factors(limits._shift_pullback(p, depth, k)) == [1] * p ** depth


@pytest.mark.parametrize("p", range(2, 6))
def test_k_fold_shift_pullback_is_the_product_of_one_fold_pullbacks(p):
    # the composite of the tower's first k maps, which af_cohomology_tower
    # builds directly instead of multiplying
    for depth in range(3):
        for k in range(1, 5):
            if p ** (depth + k) > 625:
                continue
            product = limits._shift_pullback(p, depth + k - 1)
            for d in range(depth + k - 2, depth - 1, -1):
                product = product * limits._shift_pullback(p, d)
            assert limits._shift_pullback(p, depth, k) == product


@pytest.mark.parametrize("N", [2, 3, 5])
def test_af_cohomology_multiplies_no_matrices(N, monkeypatch):
    # each stage-0 composite is a k-fold shift pullback, built once; a
    # tower of stage maps would take N - 1 products to reach them
    products = []
    real = IntMatrix.__mul__
    monkeypatch.setattr(IntMatrix, "__mul__",
                        lambda A, B: products.append((A.shape, B.shape)) or real(A, B))
    rep = af_cohomology_tower(cli.parse_input(_UHF2), N, 3)
    assert products == []
    assert rep.h1_image_ranks == [2 ** (3 + N - m) for m in range(1, N + 1)]


def test_af_cohomology_eliminates_only_what_it_prints(monkeypatch):
    # one rank, of the fixed-lattice matrix, and one invariant_factors per
    # stage-0 composite; the thread rank needs no elimination
    calls = {"rank": 0, "invariant_factors": 0}

    def counting(name):
        real = getattr(limits, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(limits, name, counting(name))
    rep = af_cohomology_tower(cli.parse_input(_UHF2), 4, 5)
    assert calls == {"rank": 1, "invariant_factors": 4}
    assert rep.h0_truncated_thread_rank == 2 ** 5


def test_af_cohomology_at_one_level_ranks_only_the_fixed_lattice(monkeypatch):
    # the one image rank of a one-level tower is read off the shift
    # pullback's invariant factors, so the fixed-lattice matrix is all
    # that `rank` eliminates
    ranked = []
    real = limits.rank
    monkeypatch.setattr(limits, "rank", lambda A: ranked.append(A.shape) or real(A))
    rep = af_cohomology_tower(cli.parse_input(_UHF2), 1, 5)
    assert ranked == [(2 ** 6, 2 ** 5)]
    assert rep.h1_image_ranks == [2 ** 5] and rep.h0_truncated_thread_rank == 2 ** 5


def _matrices(rows, cols):
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(
        lambda data: IntMatrix(rows, cols, data))


@st.composite
def inverse_towers(draw):
    """(T, N): an inverse tower of ranks 0-4 and entries in -3..3 to depth
    N in 2..4, or a stationary one."""
    N = draw(st.integers(2, 4))
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        return Tower.stationary_tower("inverse", draw(_matrices(k, k))), N
    ranks = draw(st.lists(st.integers(0, 4), min_size=N + 1, max_size=N + 1))
    mats = [draw(_matrices(ranks[n], ranks[n + 1])) for n in range(N)]
    return Tower("inverse", ranks, mats), N


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tower=inverse_towers())
def test_thread_rank_is_the_kernel_basis_column_count(tower):
    T, N = tower
    assert limit_and_lim1(T, N).thread_rank == truncated_threads(T, N)[0].cols


@pytest.mark.parametrize("p,N,D", [(2, 3, 4), (3, 2, 3), (5, 1, 2)])
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
