"""Whole `LesReport`s of the skew-product exact sequence, pinned.

The CLI goldens print `connecting_ok` but not the connecting matrices, so
this file pins everything a report carries: the degree checks, the base
and window groups, the degreewise bookkeeping groups and the zig-zag
connecting matrices with their shapes.  The expected data is
`tests/les_reports.json`.  Regenerate it (only on purpose) with

    PYTHONPATH=src python tests/test_les_pin.py > tests/les_reports.json
"""

import json
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal.models import (cyclic_table, full_pair_groupoid,
                               group_groupoid, random_groupoid, sign_module)
from groupoidal.skew import ZCocycle, les_verify

PINNED = os.path.join(os.path.dirname(__file__), "les_reports.json")


def _group(g):
    return [g.free_rank, list(g.torsion)]


def report_dict(rep):
    return {
        "ok": rep.ok,
        "checks": [[ch.degree, ch.composite_zero, ch.exact_at_sub,
                    ch.exact_at_mid, ch.exact_at_quot, ch.commutes]
                   for ch in rep.checks],
        "base_groups": [_group(g) for g in rep.base_groups],
        "inner_groups": [_group(g) for g in rep.inner_groups],
        "degreewise_groups": [_group(g) for g in rep.degreewise_groups],
        "degree0": [_group(rep.degree0_group), rep.degree0_matches_base],
        "connecting": [[m.rows, m.cols, m.data] for m in rep.connecting],
        "connecting_ok": rep.connecting_ok,
    }


def _cases():
    p3 = full_pair_groupoid(3)
    pot = ZCocycle.from_potential(p3, dict(zip(p3.units, (0, 2, 1))))
    z2 = group_groupoid(cyclic_table(2))
    zero = ZCocycle.zero(z2)
    return {
        "pair3-potential-homology": (p3, pot, 6, 2, 2, "homology", None),
        "pair3-potential-cohomology": (p3, pot, 6, 2, 2, "cohomology", None),
        "z2-zero-homology": (z2, zero, 4, 1, 2, "homology", None),
        "z2-zero-cohomology": (z2, zero, 4, 1, 2, "cohomology", None),
        "z2-sign-cohomology": (z2, zero, 4, 1, 2, "cohomology", sign_module(z2)),
    }


def compute():
    return {name: report_dict(les_verify(G, c, K, guard, n_max, mode=mode, M=M))
            for name, (G, c, K, guard, n_max, mode, M) in sorted(_cases().items())}


def test_les_reports_match_pinned_data():
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = compute()
    assert sorted(got) == sorted(pinned)
    for name in sorted(pinned):
        assert got[name] == pinned[name], name


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_les_verify_random_potential_cocycles(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_arrows=14)
    c = ZCocycle.from_potential(G, {u: rng.randint(-1, 1) for u in G.units})
    for mode in ("homology", "cohomology"):
        rep = les_verify(G, c, 4, 2, 1, mode=mode)
        assert rep.ok, (seed, mode)
        assert rep.degree0_matches_base, (seed, mode)


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1, sort_keys=True))
