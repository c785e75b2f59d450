import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal.groupoids import (DegreeTooLarge, FiniteGroupoid, GModule,
                                  bar_boundary_matrix_b, boundary_matrix_d,
                                  coinvariants_collapse, face_table, nerve,
                                  require_module_work, require_nerve_work,
                                  validate_groupoid, validate_module)
from groupoidal.models import (action_groupoid, constant_module, cyclic_table,
                               disjoint_union, full_pair_groupoid,
                               group_groupoid, random_groupoid, random_module,
                               sign_module, space_groupoid)
from groupoidal.zlinalg import (IntMatrix, homology_at, invariant_factors,
                                rank)

from normalized import normalized_nerve, require_normalized_work
from oracles import det, homology_face


def zoo():
    rng = random.Random(7)
    base = [
        group_groupoid(cyclic_table(2)),
        group_groupoid(cyclic_table(3)),
        full_pair_groupoid(3),
        space_groupoid(4),
        action_groupoid(cyclic_table(2), [[0, 1], [1, 0]]),
        disjoint_union(group_groupoid(cyclic_table(2)), full_pair_groupoid(2)),
    ]
    return base + [random_groupoid(rng) for _ in range(4)]


def test_validate_group():
    assert validate_groupoid(group_groupoid(cyclic_table(2))).ok


def test_validate_pair_groupoid():
    assert validate_groupoid(full_pair_groupoid(3)).ok


def test_validate_broken_associativity():
    # corrupt one composition entry of Z/3
    g = group_groupoid(cyclic_table(3))
    comp = dict(g.comp)
    comp[(1, 1)] = 1  # should be 2
    broken = FiniteGroupoid(g.src, g.rng, comp, g.inv, g.units)
    rep = validate_groupoid(broken)
    assert not rep.ok
    assert rep.axiom in ("associativity", "inverse-law", "left-identity",
                         "right-identity", "composition-endpoints")
    assert rep.witness is not None


def test_nerve_counts_group():
    z2 = group_groupoid(cyclic_table(2))
    assert len(nerve(z2, 0)) == 1
    assert len(nerve(z2, 2)) == 4
    for n in range(5):
        assert len(nerve(z2, n)) == 2 ** n


def test_nerve_counts_pair():
    p3 = full_pair_groupoid(3)
    assert len(nerve(p3, 2)) == 27
    for n in range(4):
        assert len(nerve(p3, n)) == 3 ** (n + 1)


def test_nerve_degree_zero_is_units():
    g = space_groupoid(3)
    assert nerve(g, 0).tuples == ((0,), (1,), (2,))


def test_nerve_cap(monkeypatch):
    p3 = full_pair_groupoid(3)
    monkeypatch.setenv("GROUPOIDAL_CAP", "10")
    with pytest.raises(DegreeTooLarge):
        nerve(FiniteGroupoid(p3.src, p3.rng, p3.comp, p3.inv, p3.units), 4)


@pytest.mark.parametrize("seed", range(6))
def test_nerve_work_estimate_matches_the_enumerated_nerves(seed, monkeypatch):
    # the estimate counts strings without building them; the cap it is
    # checked against is the exact total of count(n) * (n + 1)^2
    G = random_groupoid(random.Random(seed))
    top = 3
    total = sum(len(nerve(G, n)) * (n + 1) ** 2 for n in range(top + 1))
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total))
    assert require_nerve_work(G, top) == total
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total - 1))
    with pytest.raises(DegreeTooLarge):
        require_nerve_work(G, top)


@pytest.mark.parametrize("seed", range(4))
def test_nerve_work_with_module_ranks_adds_each_cochain_block(seed, monkeypatch):
    # an n-string adds the rank at the range of its first arrow, its block
    # in the cochains, to its face work
    rng = random.Random(seed)
    G = random_groupoid(rng)
    ranks = {u: rng.randrange(5) for u in G.units}
    top = 3
    total = sum((n + 1) ** 2 + ranks[G.rng[t[0]]]
                for n in range(top + 1) for t in nerve(G, n).tuples)
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total))
    assert require_nerve_work(G, top, ranks) == total
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total - 1))
    with pytest.raises(DegreeTooLarge):
        require_nerve_work(G, top, ranks)


@pytest.mark.parametrize("with_ranks", [False, True], ids=["plain", "ranks"])
@pytest.mark.parametrize("seed", range(6))
def test_normalized_nerve_work_estimate_matches_the_nondegenerate_strings(
        seed, with_ranks, monkeypatch):
    # the normalized reference route counts only the strings with no unit
    # entry, and each degree at least one string's (n + 1)^2, even if none
    # survives
    rng = random.Random(seed)
    G = random_groupoid(rng)
    ranks = {u: rng.randrange(5) for u in G.units} if with_ranks else None
    top = 3
    total = sum(max((n + 1) ** 2,
                    sum((n + 1) ** 2 + (ranks[G.rng[t[0]]] if ranks else 0)
                        for t in normalized_nerve(G, n).tuples))
                for n in range(top + 1))
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total))
    require_normalized_work(G, top, ranks)
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total - 1))
    with pytest.raises(DegreeTooLarge):
        require_normalized_work(G, top, ranks)


def test_normalized_nerve_work_charges_degrees_with_no_strings():
    # a point has no nondegenerate string above degree 0; degree n still
    # costs (n + 1)^2, so a huge degree is refused as on the full nerve
    G = space_groupoid(1)
    assert len(normalized_nerve(G, 1)) == 0
    with pytest.raises(DegreeTooLarge):
        require_normalized_work(G, 10 ** 5)


def test_module_work_is_refused_one_entry_past_the_cap(monkeypatch):
    # Z/3 at fiber rank 2 and the pair groupoid on two points at rank 1:
    # 1 + rank^3 per arrow, 3 * 9 + 4 * 2, and per composable pair of the
    # isotropy groups, 9 * 9 for Z/3 and 1 * 2 for a point's trivial group
    G = disjoint_union(group_groupoid(cyclic_table(3)), full_pair_groupoid(2))
    ranks = {0: 2, 3: 1, 6: 1}
    assert sorted(ranks) == list(G.units)
    monkeypatch.setenv("GROUPOIDAL_CAP", "118")
    assert require_module_work(G, ranks) == 118
    monkeypatch.setenv("GROUPOIDAL_CAP", "117")
    with pytest.raises(DegreeTooLarge):
        require_module_work(G, ranks)


def test_validate_groupoid_refuses_a_repeated_unit():
    # listed twice, the unit of a point would count as two units
    point = {"src": [0], "rng": [0], "comp": {(0, 0): 0}, "inv": [0]}
    assert validate_groupoid(FiniteGroupoid(**point, units=[0])).ok
    rep = validate_groupoid(FiniteGroupoid(**point, units=[0, 0]))
    assert (rep.ok, rep.axiom, rep.witness) == (False, "unit-duplicate", (0,))


def test_nerve_work_refuses_a_huge_degree_at_once():
    # one string per degree, but face work grows like n^2 per string
    with pytest.raises(DegreeTooLarge):
        require_nerve_work(space_groupoid(1), 10 ** 9)


def test_boundary_d1_group_is_zero():
    z2 = group_groupoid(cyclic_table(2))
    assert boundary_matrix_d(z2, 1) == IntMatrix.zeros(1, 2)


def test_boundary_d2_z2_columns():
    z2 = group_groupoid(cyclic_table(2))
    d2 = boundary_matrix_d(z2, 2)
    cols = {t: d2.col(i) for i, t in enumerate(nerve(z2, 2).tuples)}
    assert cols[(0, 0)] == [1, 0]
    assert cols[(0, 1)] == [1, 0]
    assert cols[(1, 0)] == [1, 0]
    assert cols[(1, 1)] == [-1, 2]


def test_space_groupoid_alternating_differentials():
    sp = space_groupoid(4)
    for n in (1, 2, 3, 4):
        d = boundary_matrix_d(sp, n)
        if n >= 2 and n % 2 == 0:
            assert d == IntMatrix.identity(4)
        else:
            assert d == IntMatrix.zeros(4, 4)


def test_bar_b0_z2():
    z2 = group_groupoid(cyclic_table(2))
    assert bar_boundary_matrix_b(z2, 0) == IntMatrix.from_rows([[1, 1]])


def test_bar_b1_image_z2():
    z2 = group_groupoid(cyclic_table(2))
    b1 = bar_boundary_matrix_b(z2, 1)
    cols = {tuple(b1.col(j)) for j in range(b1.cols)}
    # every column is 0 or +-([g] - [e])
    assert cols <= {(0, 0), (-1, 1), (1, -1)}
    assert (-1, 1) in cols or (1, -1) in cols


def test_bar_b0_surjective_everywhere():
    for G in zoo():
        b0 = bar_boundary_matrix_b(G, 0)
        assert rank(b0) == G.n_units
        assert all(f == 1 for f in invariant_factors(b0))


def test_boundary_squares_to_zero():
    for G in zoo():
        for n in (1, 2, 3):
            assert (boundary_matrix_d(G, n) * boundary_matrix_d(G, n + 1)).is_zero()


def test_bar_squares_to_zero():
    for G in zoo():
        for n in (0, 1, 2, 3):
            assert (bar_boundary_matrix_b(G, n) * bar_boundary_matrix_b(G, n + 1)).is_zero()


def test_bar_exactness_by_rank():
    for G in zoo():
        for n in (0, 1, 2):
            b_out = bar_boundary_matrix_b(G, n)
            b_in = bar_boundary_matrix_b(G, n + 1)
            assert rank(b_out) + rank(b_in) == b_in.rows
            assert homology_at(b_out, b_in).is_trivial


def test_bridging_identity():
    for G in zoo():
        for n in (1, 2, 3):
            lhs = coinvariants_collapse(G, n - 1) * bar_boundary_matrix_b(G, n)
            rhs = boundary_matrix_d(G, n) * coinvariants_collapse(G, n)
            assert lhs == rhs


def test_bridging_z2_both_zero():
    z2 = group_groupoid(cyclic_table(2))
    prod = coinvariants_collapse(z2, 0) * bar_boundary_matrix_b(z2, 1)
    assert prod.is_zero()
    assert (boundary_matrix_d(z2, 1) * coinvariants_collapse(z2, 1)).is_zero()


def test_coinvariants_q0():
    z2 = group_groupoid(cyclic_table(2))
    assert coinvariants_collapse(z2, 0) == IntMatrix.from_rows([[1, 1]])


def test_coinvariants_selects_tail():
    p3 = full_pair_groupoid(3)
    q1 = coinvariants_collapse(p3, 1)
    nv2 = nerve(p3, 2)
    nv1 = nerve(p3, 1)
    for j, t in enumerate(nv2.tuples):
        col = q1.col(j)
        assert col[nv1.index[t[1:]]] == 1
        assert sum(map(abs, col)) == 1


def test_validate_module_constant_and_sign():
    z2 = group_groupoid(cyclic_table(2))
    assert validate_module(z2, constant_module(z2, 1)).ok
    assert validate_module(z2, sign_module(z2)).ok
    # (-1)^2 = 1 is what makes the sign module close up
    sm = sign_module(z2)
    assert sm.act(1) * sm.act(1) == IntMatrix.identity(1)


def test_validate_module_rejects_non_unimodular():
    z2 = group_groupoid(cyclic_table(2))
    bad = GModule(z2, {0: 1}, {0: IntMatrix.identity(1),
                               1: IntMatrix.from_rows([[2]])})
    rep = validate_module(z2, bad)
    assert not rep.ok
    assert rep.axiom in ("unimodular", "action-functorial")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_validate_module_unimodular_iff_det_is_a_unit(seed):
    # pair(2) module: a random square A on one arrow, the identity on its
    # inverse; only the unimodularity check can reject A before the
    # functoriality checks do
    rng = random.Random(seed)
    G = full_pair_groupoid(2)
    g = next(a for a in range(G.n_arrows) if not G.is_unit(a))
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    else:  # a unimodular A as a product of elementary row operations
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 6)):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i == j or rng.random() < 0.2:
                a[i] = [-v for v in a[i]]
            else:
                q = rng.randint(-3, 3)
                a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    action = {u: IntMatrix.identity(n) for u in G.units}
    action[g] = IntMatrix.from_rows(a)
    action[G.inv[g]] = IntMatrix.identity(n)
    rep = validate_module(G, GModule(G, {u: n for u in G.units}, action))
    assert (rep.axiom == "unimodular") == (abs(det(a)) != 1)


def test_validate_random_modules():
    rng = random.Random(13)
    for _ in range(8):
        G = random_groupoid(rng)
        M = random_module(G, rng)
        assert validate_module(G, M).ok


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_face_table_indexes_the_faces_of_every_string(seed):
    G = random_groupoid(random.Random(seed))
    for n in range(1, 5):
        below, faces = nerve(G, n - 1).index, face_table(G, n)
        assert len(faces) == len(nerve(G, n))
        for t, f in zip(nerve(G, n).tuples, faces):
            assert f == tuple(below[homology_face(G, t, i)] for i in range(n + 1))
        assert face_table(G, n) is faces  # cached next to the nerve
    with pytest.raises(ValueError):
        face_table(G, 0)
