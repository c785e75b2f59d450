"""Every chain, bar and cochain builder, pinned by shape and entry hash.

For seeded `random_groupoid`/`random_module` instances this file pins the
shape and the sha256 of the sorted nonzero entries of each builder's
matrix: the nerve boundaries d_1..d_3, and in degrees 0..2 the bar
boundary, the coinvariants collapse, both coboundaries, theta and rho,
plus the cochain pullback along a disjoint-union inclusion.  A change to
a face rule, a sign or a block layout changes a hash.  The expected data
is `tests/builder_pins.json`.  Regenerate it (only on purpose) with

    PYTHONPATH=src python tests/test_builder_pin.py > tests/builder_pins.json
"""

import hashlib
import json
import os
import random

from groupoidal.cohomology import (_coboundary, cochain_pullback_matrix, cochain_space,
                                   cocycle_coboundary_matrix, hom_coboundary_matrix,
                                   hom_space, rho_matrix, theta_matrix)
from groupoidal.groupoids import (bar_boundary_matrix_b, boundary_matrix_d,
                                  coinvariants_collapse, face_table, nerve)
from groupoidal.models import (cyclic_table, disjoint_union, group_groupoid,
                               inclusion_functor_left, random_groupoid, random_module)
from groupoidal.zlinalg import IntMatrix

PINNED = os.path.join(os.path.dirname(__file__), "builder_pins.json")
SEEDS = range(8)


def _pin(m):
    digest = hashlib.sha256(json.dumps(sorted(m.entries())).encode()).hexdigest()
    return [m.rows, m.cols, digest]


def _case(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_arrows=10)
    M = random_module(G, rng)
    out = {f"d{n}": _pin(boundary_matrix_d(G, n)) for n in range(1, 4)}
    for n in range(3):
        for name, build in (("b", bar_boundary_matrix_b), ("collapse", coinvariants_collapse)):
            out[f"{name}{n}"] = _pin(build(G, n))
        for name, build in (("delta_c", cocycle_coboundary_matrix),
                            ("delta_h", hom_coboundary_matrix),
                            ("theta", theta_matrix), ("rho", rho_matrix)):
            out[f"{name}{n}"] = _pin(build(G, M, n))
    H = random_groupoid(rng, max_arrows=6)
    union = disjoint_union(G, H)
    phi = inclusion_functor_left(G, union)
    MU = random_module(union, rng)
    for n in range(3):
        out[f"pullback{n}"] = _pin(cochain_pullback_matrix(phi, MU, n))
    return out


def compute():
    return {str(seed): _case(seed) for seed in SEEDS}


def test_builder_matrices_match_pinned_data():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = compute()
    assert sorted(got) == sorted(pinned)
    for seed in sorted(pinned):
        assert got[seed] == pinned[seed], seed


def _summed_in_place(G, M, n, dom, cod):
    """delta_n with every face added where its column first appeared and
    the zero sums dropped only at the end, by `from_row_dicts`."""
    at, faces = nerve(G, n + 1).index, face_table(G, n + 1)
    cols = [dom.offset.get(s) for s in nerve(G, n).tuples]
    rows = []
    for t, r in zip(cod.keys, cod.ranks):
        f = faces[at[t]]
        block = [{} for _ in range(r)]
        for i in range(n + 2):
            if cols[f[i]] is None:
                continue
            if i == 0:
                for a, j, v in M.act(t[0]).entries():
                    block[a][cols[f[0]] + j] = v
            else:
                for a, row in enumerate(block):
                    row[cols[f[i]] + a] = row.get(cols[f[i]] + a, 0) + (-1) ** i
        rows.extend(block)
    return IntMatrix.from_row_dicts(dom.total, rows)


def test_coboundary_rows_keep_the_order_of_summing_in_place():
    # the coboundary drops a sum as it cancels; in degree 3 a string of
    # units hits one column at all five faces, signs +1, -1, +1, -1, +1,
    # and the rows must still list their entries as if every sum stayed
    # where its column first appeared
    rng = random.Random(0)
    cases = [(G, random_module(G, rng)) for G in
             [group_groupoid(cyclic_table(2)), group_groupoid(cyclic_table(3))]
             + [random_groupoid(rng, max_arrows=10) for _ in range(12)]]
    checked = 0
    for G, M in cases:
        for n in range(4):
            for space in (cochain_space, hom_space):
                dom, cod = space(G, M, n), space(G, M, n + 1)
                got, want = _coboundary(G, M, n, dom, cod), _summed_in_place(G, M, n, dom, cod)
                assert [list(r.items()) for r in got._row_dicts] == \
                    [list(r.items()) for r in want._row_dicts], (G.n_arrows, n, space)
                checked += (n == 3)
    assert checked == 2 * len(cases)


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1, sort_keys=True))
