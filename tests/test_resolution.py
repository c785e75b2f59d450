"""The Morse resolutions of the isotropy groups, as exact identities.

`resolution.GroupResolution` builds, from a group's table, the Morse
complex A_* of the normalized bar resolution.  These tests check the
pieces against definitions computed here by brute force (shortlex normal
forms, the matching as an involution, Z[H]-linear d_M d_M = 0, the flow as
a chain map on every bar cell of low degree), and the groups against the
normalized (Eilenberg-Mac Lane) complexes of `normalized.py`, on a zoo of
groups, on action groupoids and on seeded random groups with modules.
"""

import inspect
import itertools
import random
import sys

import pytest

from groupoidal.cohomology import cocycle_cohomology, hom_side_cohomology, pullback_module
from groupoidal.groupoids import (Budget, DegreeTooLarge, FiniteGroupoid, GModule,
                                  GroupoidError, isotropy_inclusion)
from groupoidal.homology import homology_groups
from groupoidal.models import (action_groupoid, constant_module, cyclic_table,
                               disjoint_union, full_pair_groupoid, group_groupoid,
                               random_groupoid, random_module, space_groupoid)
from groupoidal.resolution import GroupResolution
from groupoidal.zlinalg import IntMatrix, LinearSystem

from isotropy_models import _unimodular, random_orbit_groupoid
from normalized import (normalized_cochain_groups, normalized_cochain_space, normalized_complex,
                        normalized_hom_space)
from oracles import permutation_module


def _permutation_table(gens, n):
    """Cayley table of the permutation group on n points generated by gens,
    elements numbered in lex order of their images (the identity first)."""
    elements, queue = {tuple(range(n))}, [tuple(range(n))]
    for a in queue:
        for g in gens:
            b = tuple(a[g[x]] for x in range(n))
            if b not in elements:
                elements.add(b)
                queue.append(b)
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(a[b[x]] for x in range(n))] for b in elements] for a in elements], elements


def _q8_table():
    """The quaternions +-1, +-i, +-j, +-k as (sign, unit) pairs."""
    units = {("1", "1"): (1, "1"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "k"): (1, "i"),
             ("k", "i"): (1, "j"), ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"),
             ("i", "k"): (-1, "j")}
    for u in "ijk":
        units["1", u] = units[u, "1"] = (1, u)
    elements = [(s, u) for u in "1ijk" for s in (1, -1)]
    index = {e: i for i, e in enumerate(elements)}
    table = []
    for s, u in elements:
        row = []
        for t, v in elements:
            sign, w = units[u, v]
            row.append(index[(s * t * sign, w)])
        table.append(row)
    return table


S3, S3_PERMS = _permutation_table([(1, 0, 2), (1, 2, 0)], 3)
D4, D4_PERMS = _permutation_table([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
A4, A4_PERMS = _permutation_table([(1, 2, 0, 3), (0, 2, 3, 1)], 4)
V4, V4_PERMS = _permutation_table([(1, 0, 3, 2), (2, 3, 0, 1)], 4)

# name: (table, degrees the normalized reference reaches in well under a second)
GROUPS = {**{f"z{k}": (cyclic_table(k), 5 if k <= 3 else 3) for k in range(2, 9)},
          "s3": (S3, 4), "d4": (D4, 3), "q8": (_q8_table(), 3), "a4": (A4, 2), "v4": (V4, 5)}


def _resolution(name, top=6):
    G = group_groupoid(GROUPS[name][0])
    return GroupResolution(G, G.units[0], Budget(f"resolution degrees 0..{top}"))


def _bar_cells(r, n):
    return itertools.product(range(1, len(r.elements)), repeat=n)


def _bar_boundary(r, cell):
    """(g, sign, face) of d [h_1|...|h_n] = h_1 [h_2|...] + sum (-1)^i
    [..|h_i h_{i+1}|..] + (-1)^n [h_1|...|h_{n-1}], degenerate faces dropped."""
    n = len(cell)
    out = [(cell[0], 1, cell[1:])]
    for i in range(1, n):
        h = r.mul[cell[i - 1]][cell[i]]
        if h:
            out.append((0, (-1) ** i, cell[:i - 1] + (h,) + cell[i + 1:]))
    return out + [(0, (-1) ** n, cell[:-1])]


def _plus(acc, g, s, chain, mul):
    """acc += s * g * chain, in Z[H] coefficients."""
    for (h, j), v in chain.items():
        key = (mul[g][h], j)
        acc[key] = acc.get(key, 0) + s * v
    return acc


def _nonzero(chain):
    return {k: v for k, v in chain.items() if v}


def _d_morse(r, n, chain):
    """d_M on a chain of degree-n critical cells, Z[H]-linearly."""
    d, out = r.differential(n), {}
    for (h, j), v in chain.items():
        _plus(out, h, v, d[j], r.mul)
    return _nonzero(out)


# -- normal forms and the matching ----------------------------------------------


def test_generators_and_normal_forms_are_pinned():
    # fixed by the table alone, so no hash seed can change them; two
    # reflections generate S3 and D4, with three tips each
    r = _resolution("s3")
    assert r.forms.gens == [1, 2] and r.forms.tips == 3
    assert r.forms.word == [(), (0,), (1,), (1, 0), (0, 1), (0, 1, 0)]
    r = _resolution("d4")
    assert r.forms.gens == [1, 2] and r.forms.tips == 3
    assert r.forms.word == [(), (0,), (1,), (1, 0), (1, 0, 1), (0, 1, 0, 1), (0, 1), (0, 1, 0)]
    for k in range(2, 9):
        r = _resolution(f"z{k}")
        assert r.forms.gens == [1] and r.forms.tips == 1


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normal_forms_are_the_shortlex_least_words_and_closed_under_subwords(name):
    r = _resolution(name)
    gens, size = r.forms.gens, len(r.elements)
    first = {0: ()}
    for length in itertools.count(1):
        if len(first) == size:
            break
        for word in itertools.product(range(len(gens)), repeat=length):  # lex order
            h = 0
            for letter in word:
                h = r.mul[h][gens[letter]]
            first.setdefault(h, word)
    assert r.forms.word == [first[h] for h in range(size)]
    normal = set(r.forms.word)
    for w in normal:
        assert all(w[i:j] in normal for i in range(len(w)) for j in range(i, len(w) + 1))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_matching_pairs_every_other_cell_once_and_leaves_the_critical_cells(name):
    r = _resolution(name)
    cells = {n: list(_bar_cells(r, n)) for n in range(4)}
    for n in range(3):
        ups = {}
        for c in cells[n]:
            p = r.partner(c)
            if isinstance(p, tuple):
                assert len(p) == n + 1 and p not in ups
                ups[p] = c
        downs = {c for c in cells[n + 1] if r.partner(c) == -1}
        assert set(ups) == downs, n
        assert [c for c in cells[n + 1] if r.partner(c) == 0] == sorted(r.cells(n + 1))


@pytest.mark.parametrize("name, counts", [
    ("s3", [1, 2, 3, 5, 9, 17, 33]), ("d4", [1, 2, 3, 5, 8, 12, 17]),
    ("a4", [1, 2, 5, 10, 21, 42, 85]), ("z5", [1] * 7), ("v4", [1, 2, 3, 4, 5, 6, 7])])
def test_critical_cell_counts(name, counts):
    r = _resolution(name)
    assert [len(r.cells(n)) for n in range(7)] == counts


# -- the Morse complex and the flow ---------------------------------------------


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_morse_differential_squares_to_zero_in_zh(name):
    r = _resolution(name)
    for n in range(2, 6):
        for c, chain in zip(r.cells(n), r.differential(n)):
            assert _d_morse(r, n - 1, chain) == {}, (n, c)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_flow_is_a_chain_map_and_the_identity_on_critical_cells(name):
    # phi d = d_M phi on every bar cell of degree <= 4
    r = _resolution(name)
    for n in range(1, 5):
        index = {c: j for j, c in enumerate(r.cells(n))}
        for cell in _bar_cells(r, n):
            phi = r.flow(cell)
            if cell in index:
                assert phi == {(0, index[cell]): 1}
            lhs = {}
            for g, s, face in _bar_boundary(r, cell):
                _plus(lhs, g, s, r.flow(face), r.mul)
            assert _nonzero(lhs) == _d_morse(r, n, phi), cell


# -- the groups against the normalized reference --------------------------------


def _twisted(G, M, rng):
    """M with every fiber's basis changed by a random unimodular C_u:
    g acts by C_{r(g)} M(g) C_{s(g)}^-1, an isomorphic module."""
    conj = {u: _unimodular(rng, M.rank_at(u)) for u in G.units}
    inv = {u: LinearSystem(c).solve_columns(IntMatrix.identity(c.rows)) for u, c in conj.items()}
    return GModule(G, M.fiber_rank, {g: conj[G.rng[g]] * M.act(g) * inv[G.src[g]]
                                     for g in range(G.n_arrows)})


def _group_cases():
    rng = random.Random(16)
    cases = []
    for name, (table, top) in sorted(GROUPS.items()):
        G = group_groupoid(table)
        cases.append(pytest.param(G, constant_module(G, 1), top, id=f"{name}-constant"))
    for name, table, perms in (("s3", S3, S3_PERMS), ("d4", D4, D4_PERMS),
                               ("a4", A4, A4_PERMS), ("v4", V4, V4_PERMS)):
        G = group_groupoid(table)
        M = _twisted(G, permutation_module(table, [list(p) for p in perms], G), rng)
        cases.append(pytest.param(G, M, GROUPS[name][1], id=f"{name}-permutation"))
    return cases


def _action_cases():
    swap = [1, 0, 3, 2, 5, 4]
    return [
        pytest.param(action_groupoid(cyclic_table(4), [list(range(6)), swap] * 2), 3,
                     id="z4-on-6"),
        pytest.param(action_groupoid(S3, [list(p) for p in S3_PERMS]), 3, id="s3-on-3"),
        pytest.param(action_groupoid(D4, [list(p) for p in D4_PERMS]), 3, id="d4-on-4"),
        pytest.param(disjoint_union(group_groupoid(cyclic_table(3)), full_pair_groupoid(2)), 4,
                     id="z3+pair2"),
        pytest.param(space_groupoid(3), 4, id="space3"),
    ]


def _relabelled(table, rng):
    k = len(table)
    sigma = list(range(k))
    rng.shuffle(sigma)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


def _random_case(seed):
    """A relabelled zoo group, maybe beside a random groupoid, with a random
    module; or a random orbit groupoid whose isotropy acts on its module."""
    rng = random.Random(seed)
    if seed % 3 == 2:
        G, M = random_orbit_groupoid(rng)
        return G, M, 3
    name = rng.choice(["s3", "d4", "q8", "z6", "v4"])
    G = group_groupoid(_relabelled(GROUPS[name][0], rng))
    if seed % 3 == 1:
        G = disjoint_union(G, random_groupoid(rng, max_arrows=8))
    return G, random_module(G, rng), min(GROUPS[name][1], 3)


def _check_groups(G, M, top):
    assert homology_groups(G, top) == normalized_complex(G, top).groups()
    ctop = top - 1
    want = normalized_cochain_groups(G, M, ctop, normalized_cochain_space)
    assert normalized_cochain_groups(G, M, ctop, normalized_hom_space) == want
    assert cocycle_cohomology(G, M, ctop) == want
    assert hom_side_cohomology(G, M, ctop) == want


@pytest.mark.parametrize("G, M, top", _group_cases())
def test_group_homology_and_cohomology_equal_the_normalized_reference(G, M, top):
    _check_groups(G, M, top)


@pytest.mark.parametrize("G, top", _action_cases())
def test_action_groupoids_equal_the_normalized_reference(G, top):
    i, _ = isotropy_inclusion(G)
    M = random_module(G, random.Random(top))
    _check_groups(G, M, top)
    # the isotropy groups' own normalized complexes give the same groups
    assert homology_groups(G, top) == normalized_complex(i.source, top).groups()
    assert cocycle_cohomology(G, M, top - 1) == normalized_cochain_groups(
        i.source, pullback_module(i, M), top - 1, normalized_cochain_space)


@pytest.mark.parametrize("seed", range(12))
def test_random_groups_with_modules_equal_the_normalized_reference(seed):
    _check_groups(*_random_case(seed))


# -- refusals: coefficients, cycles, recursion, work ----------------------------


def _z3():
    return GroupResolution(group_groupoid(cyclic_table(3)), 0, Budget("resolution degrees 0..3"))


def test_a_matched_coefficient_other_than_one_is_refused(monkeypatch):
    # [2] split into [1|2]: face 0 of [1|2] is 1 * [2], a coefficient in H
    r = _z3()
    partner = GroupResolution.partner
    monkeypatch.setattr(GroupResolution, "partner",
                        lambda self, c: (1, 2) if c == (2,) else partner(self, c))
    with pytest.raises(GroupoidError, match="coefficient"):
        r.flow((2,))


def test_a_flow_that_runs_into_a_cell_in_progress_is_refused(monkeypatch):
    # [1] split into [2|2], whose faces need [2], whose partner [1|1] needs [1]
    r = _z3()
    partner = GroupResolution.partner
    monkeypatch.setattr(GroupResolution, "partner",
                        lambda self, c: (2, 2) if c == (1,) else partner(self, c))
    with pytest.raises(GroupoidError, match="in progress"):
        r.flow((1,))


def test_the_flow_runs_on_an_explicit_stack():
    # the flow of [g^{k-1}] in Z/k needs those of [g^{k-2}], ..., [g]: a
    # chain far deeper than the recursion limit set here
    k = 500  # built directly: group_groupoid checks associativity in k^3 steps
    G = FiniteGroupoid([0] * k, [0] * k, {(a, b): (a + b) % k for a in range(k) for b in range(k)},
                       [-a % k for a in range(k)], [0])
    limit = sys.getrecursionlimit()
    # 150 frames above the test's own stack, far fewer than the chain's 499
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        groups = homology_groups(G, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert [str(g) for g in groups] == ["Z", "Z/500"]


def test_work_is_charged_as_it_runs(monkeypatch):
    G = group_groupoid(S3)
    budget = Budget("resolution degrees 0..6")
    r = GroupResolution(G, G.units[0], budget)
    before = budget.used
    r.differential(6)
    spent = budget.used
    assert spent > before
    # a cap one entry short refuses the same work, part way through the flow
    monkeypatch.setenv("GROUPOIDAL_CAP", str(spent - 1))
    short = Budget("resolution degrees 0..6")
    with pytest.raises(DegreeTooLarge, match="resolution degrees 0..6"):
        GroupResolution(G, G.units[0], short).differential(6)
    monkeypatch.setenv("GROUPOIDAL_CAP", str(spent))
    GroupResolution(G, G.units[0], Budget("resolution degrees 0..6")).differential(6)


def test_every_degree_costs_its_floor_even_with_no_cells(monkeypatch):
    # the trivial group has no cell above degree 0; degree n still costs
    # (n + 1)^2, so a huge degree is refused at once
    floor = sum((n + 1) ** 2 for n in range(12))
    monkeypatch.setenv("GROUPOIDAL_CAP", str(floor))
    assert len(homology_groups(space_groupoid(1), 10)) == 11
    monkeypatch.setenv("GROUPOIDAL_CAP", str(floor - 1))
    with pytest.raises(DegreeTooLarge):
        homology_groups(space_groupoid(1), 10)
    monkeypatch.delenv("GROUPOIDAL_CAP")
    with pytest.raises(DegreeTooLarge):
        homology_groups(space_groupoid(1), 10 ** 100)
