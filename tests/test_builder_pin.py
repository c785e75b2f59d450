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

from groupoidal.cohomology import (cochain_pullback_matrix, cocycle_coboundary_matrix,
                                   hom_coboundary_matrix, rho_matrix, theta_matrix)
from groupoidal.groupoids import (bar_boundary_matrix_b, boundary_matrix_d,
                                  coinvariants_collapse)
from groupoidal.models import (disjoint_union, inclusion_functor_left,
                               random_groupoid, random_module)

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


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1, sort_keys=True))
