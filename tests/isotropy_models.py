"""Seeded random groupoids with orbits of several units and nontrivial
isotropy, and modules on which that isotropy acts nontrivially.

`models.random_groupoid` builds unions of groups, pair groupoids, unit
spaces and free actions, so none of its orbits has both more than one unit
and a nontrivial isotropy group.  Here the core block is Z/n rotating the
k points of Z/k (k | n, k >= 2): one orbit of k units whose isotropy group
at every unit is the subgroup kZ/n, of order n/k >= 2.  Its module comes
from an integral representation rho of Z/n whose order does not divide k,
so the isotropy acts nontrivially, conjugated by a random unimodular
matrix C_x at each point: arrow (g, x) acts by C_{g.x} rho(g) C_x^-1.  A
small block of `models.random_groupoid` with `models.random_module` may
be added beside it.
"""

import random

from groupoidal.groupoids import GModule, validate_groupoid, validate_module
from groupoidal.models import (action_groupoid, cyclic_table, disjoint_union,
                               random_groupoid, random_module)
from groupoidal.zlinalg import IntMatrix, LinearSystem

# (n, k): Z/n on k points, isotropy Z/(n/k)
ROTATIONS = [(4, 2), (6, 2), (6, 3)]

# generators of integral representations of cyclic groups, by their order
GENERATORS = {
    2: [[-1]],
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[1, -1], [1, 0]],
}


def _power(T: IntMatrix, e: int) -> IntMatrix:
    out = IntMatrix.identity(T.rows)
    for _ in range(e):
        out = out * T
    return out


def _unimodular(rng: random.Random, r: int) -> IntMatrix:
    """A row permutation of a unit lower triangular r x r matrix."""
    rows = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(r)]
            for i in range(r)]
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows)


def _rotation_block(rng: random.Random, n: int, k: int):
    """Z/n rotating Z/k, with a module twisted by a faithful-on-isotropy rho."""
    G = action_groupoid(cyclic_table(n), [[(x + g) % k for x in range(k)] for g in range(n)])
    order = rng.choice([o for o in GENERATORS if n % o == 0 and k % o])
    T = IntMatrix.from_rows(GENERATORS[order])
    if rng.random() < 0.5:  # a trivial summand beside rho
        T = IntMatrix.from_entries(T.rows + 1, T.rows + 1,
                                   list(T.entries()) + [(T.rows, T.rows, 1)])
    r = T.rows
    conj = [_unimodular(rng, r) for _ in range(k)]
    conj_inv = [LinearSystem(c).solve_columns(IntMatrix.identity(r)) for c in conj]
    action = {g * k + x: conj[(x + g) % k] * _power(T, g) * conj_inv[x]
              for g in range(n) for x in range(k)}
    return G, GModule(G, {u: r for u in G.units}, action)


def _union(first, second):
    (G1, M1), (G2, M2) = first, second
    off = G1.n_arrows
    G = disjoint_union(G1, G2)
    ranks = {**M1.fiber_rank, **{u + off: r for u, r in M2.fiber_rank.items()}}
    action = {**M1.action, **{g + off: m for g, m in M2.action.items()}}
    return G, GModule(G, ranks, action)


def random_orbit_groupoid(rng: random.Random, max_arrows: int = 18):
    """(G, M): a rotation block, maybe beside a small random block."""
    n, k = rng.choice(ROTATIONS)
    block = _rotation_block(rng, n, k)
    room = max_arrows - n * k
    if room >= 2 and rng.random() < 0.5:
        H = random_groupoid(rng, max_arrows=room)
        other = (H, random_module(H, rng))
        block = _union(block, other) if rng.random() < 0.5 else _union(other, block)
    G, M = block
    assert validate_groupoid(G).ok and validate_module(G, M).ok
    return G, M
