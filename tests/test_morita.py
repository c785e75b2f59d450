"""The reduction to isotropy groups, certified by an explicit homotopy.

`isotropy_inclusion` gives the inclusion i: H -> G of the isotropy groups
at the least unit x of each orbit, and an arrow k_y: x -> y for every unit
y.  The retraction r(g) = k_{r(g)}^-1 g k_{s(g)} satisfies r i = id, and k
is a natural transformation from i r to the identity, so the prism
operator

    P(g_0, ..., g_{n-1}) = sum_p (-1)^p (g_0, ..., g_{p-1}, k_{x_p},
                                         ir(g_p), ..., ir(g_{n-1})),

with x_0 = r(g_0) and x_p = s(g_{p-1}), is a chain homotopy
dP + Pd = ir - id on the full nerve (Segal 1968; Quillen 1973, section 1).
Its transpose, with the action of k_y on the fibers, is a cochain homotopy
for the cocycle complex with any module.  The tests check both as exact
matrix identities, and that the groups computed on H are those of G's
normalized complexes, which stay the reference here.
"""

import itertools
import random
import time

import pytest

from groupoidal import cli
from groupoidal.cohomology import (cochain_complex, cochain_space, cocycle_cohomology,
                                   hom_side_cohomology, hom_space, pullback_module)
from groupoidal.groupoids import (FiniteGroupoid, GModule, GroupoidFunctor,
                                  boundary_matrix_d, isotropy_inclusion, nerve,
                                  validate_functor, validate_groupoid, validate_module)
from groupoidal.homology import homology_groups, nerve_complex
from groupoidal.models import (action_groupoid, constant_module, cyclic_table,
                               disjoint_union, full_pair_groupoid, group_groupoid,
                               pair_groupoid_from_map, random_groupoid, random_module,
                               sign_module, space_groupoid)
from groupoidal.zlinalg import IntMatrix

from isotropy_models import random_orbit_groupoid

TOP = 3  # prism identities in degrees 0..TOP


def _s3():
    elements = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    table = [[index[tuple(a[b[x]] for x in range(3))] for b in elements] for a in elements]
    parity = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
              for p in elements]
    return table, [list(p) for p in elements], parity


def _character(G, M, sign):
    """M with each arrow g's action multiplied by sign(g) = +-1, a character."""
    action = {g: M.act(g).scaled(sign(g)) for g in range(G.n_arrows)}
    return GModule(G, M.fiber_rank, action)


def _zoo():
    z2 = group_groupoid(cyclic_table(2))
    # Z/4 acting on 6 points through Z/2: three orbits of two points, each
    # with isotropy Z/2; arrow g * 6 + x is element g at point x
    swap = [1, 0, 3, 2, 5, 4]
    z4_on_6 = action_groupoid(cyclic_table(4), [list(range(6)), swap] * 2)
    # S3 permuting 3 points: one orbit with isotropy Z/2
    s3, perms, parity = _s3()
    s3_on_3 = action_groupoid(s3, perms)
    rng = random.Random(7)
    return [
        ("z2-sign", z2, sign_module(z2)),
        ("space3", space_groupoid(3), constant_module(space_groupoid(3), 2)),
        ("pair3", full_pair_groupoid(3), None),
        ("pair2-3", pair_groupoid_from_map([0, 1, 1, 0, 1]), None),
        ("z4-on-6-parity", z4_on_6,
         _character(z4_on_6, random_module(z4_on_6, rng), lambda g: (-1) ** (g // 6))),
        ("s3-on-3-sign", s3_on_3,
         _character(s3_on_3, random_module(s3_on_3, rng), lambda g: (-1) ** parity[g // 3])),
        ("z3+pair2", disjoint_union(group_groupoid(cyclic_table(3)), full_pair_groupoid(2)), None),
    ]


def _random(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_arrows=12)
    return G, random_module(G, rng)


def _random_orbits(seed):
    return random_orbit_groupoid(random.Random(seed))


# random{seed} never has an orbit of several units with nontrivial isotropy;
# orbits{seed} always has one, with a module on which that isotropy acts
RANDOM_ORBITS = [pytest.param(*_random_orbits(seed), id=f"orbits{seed}") for seed in range(8)]
CASES = ([pytest.param(G, M, id=name) for name, G, M in _zoo()]
         + [pytest.param(*_random(seed), id=f"random{seed}") for seed in range(8)]
         + RANDOM_ORBITS)


def _module(G, M):
    return M if M is not None else constant_module(G, 1)


def _ir(G, k, g):
    """i(r(g)) = k_{r(g)}^-1 g k_{s(g)}, an arrow of G at a base unit."""
    return G.comp[G.comp[G.inv[k[G.rng[g]]], g], k[G.src[g]]]


def _retraction(G, i, k):
    """r: G -> H as a functor."""
    pos = {g: j for j, g in enumerate(i.arrow_map)}
    return GroupoidFunctor(G, i.source, [pos[_ir(G, k, g)] for g in range(G.n_arrows)])


def _prism_terms(G, k, t, n):
    """(sign, (n+1)-string) of the prism operator on the n-string t; the
    0-string (y,) is the unit y, which has no arrows."""
    body = t if n else ()
    for p in range(n + 1):
        x = G.rng[t[0]] if p == 0 else G.src[body[p - 1]]
        yield (-1) ** p, body[:p] + (k[x],) + tuple(_ir(G, k, g) for g in body[p:])


def _prism(G, k, n):
    """P_n: C_n -> C_{n+1} on the full nerves."""
    src, dst = nerve(G, n), nerve(G, n + 1)
    return IntMatrix.from_entries(
        len(dst), len(src),
        ((dst.index[s], j, sign) for j, t in enumerate(src.tuples)
         for sign, s in _prism_terms(G, k, t, n)))


def _ir_chains(G, k, n):
    """(ir)_n: C_n -> C_n on the full nerve."""
    nv = nerve(G, n)
    return IntMatrix.from_entries(
        len(nv), len(nv),
        ((nv.index[tuple(_ir(G, k, g) for g in t)], j, 1) for j, t in enumerate(nv.tuples)))


@pytest.mark.parametrize("G, M", CASES)
def test_base_arrows_are_the_least_arrows_from_the_least_unit_of_each_orbit(G, M):
    # fixed by the tables alone, so no hash seed can change the choice
    _, k = isotropy_inclusion(G)
    for orbit in G.orbits():
        x = orbit[0]
        assert k[x] == x
        for y in orbit[1:]:
            assert k[y] == min(g for g in G.arrows_by_src[x] if G.rng[g] == y)
    assert sorted(k) == list(G.units)


@pytest.mark.parametrize("G, M", CASES)
def test_inclusion_is_a_functor_onto_the_isotropy_groups_and_r_i_is_the_identity(G, M):
    i, k = isotropy_inclusion(G)
    H = i.source
    assert validate_groupoid(H).ok and validate_functor(i).ok
    assert H.n_units == len(G.orbits())
    bases = {orbit[0] for orbit in G.orbits()}
    want = [g for g in range(G.n_arrows) if G.src[g] == G.rng[g] and G.src[g] in bases]
    assert sorted(i.arrow_map) == want
    r = _retraction(G, i, k)
    assert validate_functor(r).ok
    assert r.compose_with(i).arrow_map == tuple(range(H.n_arrows))
    if all(len(orbit) == 1 for orbit in G.orbits()):
        assert H is G


@pytest.mark.parametrize("G, M", CASES)
def test_prism_is_a_chain_homotopy_from_i_r_to_the_identity(G, M):
    _, k = isotropy_inclusion(G)
    for n in range(TOP + 1):
        lhs = boundary_matrix_d(G, n + 1) * _prism(G, k, n)
        if n:
            lhs = lhs + _prism(G, k, n - 1) * boundary_matrix_d(G, n)
        size = len(nerve(G, n))
        assert lhs == _ir_chains(G, k, n) - IntMatrix.identity(size), n


def _cochain_prism(G, k, dom, cod, n):
    """Q_n: C^{n+1} -> C^n, the value of Q c at an n-string t being the
    signed sum of c over the prism terms of t; each term's first arrow
    has t's range, so every block is an identity."""
    return IntMatrix.from_entries(
        cod.total, dom.total,
        ((cod.offset[t] + a, dom.offset[s] + a, sign)
         for t, r in zip(cod.keys, cod.ranks) for sign, s in _prism_terms(G, k, t, n)
         for a in range(r)))


def _ir_cochains(G, M, k, space, n):
    """(ir)^#_n: (ir)^# c (t) = k_y . c(ir(t)), y the range of t."""
    return IntMatrix.from_entries(
        space.total, space.total,
        ((space.offset[t] + a, space.offset[tuple(_ir(G, k, g) for g in t)] + b, v)
         for t in space.keys for a, b, v in M.act(k[G.rng[t[0]]]).entries()))


@pytest.mark.parametrize("G, M", CASES)
def test_cochain_prism_is_a_cochain_homotopy_with_the_module(G, M):
    M = _module(G, M)
    _, k = isotropy_inclusion(G)
    spaces = [cochain_space(G, M, n) for n in range(TOP + 2)]
    cx = cochain_complex(G, M, spaces)
    q = [_cochain_prism(G, k, spaces[n + 1], spaces[n], n) for n in range(TOP + 1)]
    for n in range(TOP + 1):
        lhs = q[n] * cx.d_out(n)
        if n:
            lhs = lhs + cx.d_out(n - 1) * q[n - 1]
        want = _ir_cochains(G, M, k, spaces[n], n) - IntMatrix.identity(spaces[n].total)
        assert lhs == want, n


@pytest.mark.parametrize("G, M", CASES)
def test_isotropy_groups_equal_the_normalized_route_on_g(G, M):
    M = _module(G, M)
    assert homology_groups(G, TOP) == nerve_complex(G, TOP, normalized=True).groups()
    top = TOP - 1
    for space, groups in ((cochain_space, cocycle_cohomology),
                          (hom_space, hom_side_cohomology)):
        want = cochain_complex(G, M, [space(G, M, n, normalized=True)
                                      for n in range(top + 2)]).groups()
        assert groups(G, M, top) == want, space.__name__


@pytest.mark.parametrize("G, M", CASES)
def test_groups_build_no_nerve_of_g_unless_g_is_its_own_isotropy(G, M):
    # a fresh copy, since the other tests build G's nerves
    G = FiniteGroupoid(G.src, G.rng, G.comp, G.inv, G.units)
    M = GModule(G, M.fiber_rank, M.action) if M is not None else constant_module(G, 1)
    homology_groups(G, TOP)
    cocycle_cohomology(G, M, TOP - 1)
    hom_side_cohomology(G, M, TOP - 1)
    assert bool(G._nerves) == (isotropy_inclusion(G)[0].source is G)


@pytest.mark.parametrize("G, M", CASES)
def test_pulled_back_module_is_a_module_over_the_isotropy_groups(G, M):
    i, _ = isotropy_inclusion(G)
    assert validate_module(i.source, pullback_module(i, _module(G, M))).ok


@pytest.mark.parametrize("command", ["homology", "cohomology"])
def test_a_pair_groupoid_over_the_cap_on_g_answers_on_its_isotropy(command, tmp_path, capsys):
    # 40 * 39^6 nondegenerate 6-strings on G, against one unit on H
    model = tmp_path / "pair40.json"
    model.write_text('{"kind": "pair", "fibers": [40]}', encoding="utf-8")
    start = time.perf_counter()
    code = cli.main([command, str(model), "--max-degree", "6", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 2.0
    assert '"free_rank": 1' in out and out.count('"free_rank": 0') == 6


@pytest.mark.parametrize("G, M", RANDOM_ORBITS)
def test_random_orbit_cases_pull_back_a_nontrivial_isotropy_action(G, M):
    # an orbit of several units whose isotropy acts nontrivially, so the
    # pullback along i carries a twist the base arrows k_y must transport
    i, k = isotropy_inclusion(G)
    bases = {orbit[0] for orbit in G.orbits() if len(orbit) > 1}
    twisted = [g for g in i.arrow_map if G.src[g] in bases
               and M.act(g) != IntMatrix.identity(M.rank_at(G.src[g]))]
    assert twisted
