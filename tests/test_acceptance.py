"""Acceptance criteria, one test per criterion, each printing a pass line
with its runtime.  Every assertion is exact (integer equality); the only
tolerances are the per-criterion wall-clock budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os
import random
import subprocess
import sys
import time

from groupoidal.cohomology import (cochain_pullback_matrix, cocycle_cohomology,
                                   hom_side_cohomology, pullback_module,
                                   theta_rho_check)
from groupoidal.groupoids import (bar_boundary_matrix_b, boundary_matrix_d,
                                  coinvariants_collapse)
from groupoidal.homology import (chain_pushforward, homology_groups,
                                 odometer_homology, z_action_homology)
from groupoidal.groupoids import GroupoidFunctor
from groupoidal.limits import af_cohomology_tower, colimit_divisible, dimension_group
from groupoidal.models import (bratteli_stationary, constant_module, cyclic_table,
                               disjoint_union, full_pair_groupoid, group_groupoid,
                               random_groupoid, random_module, space_groupoid)
from groupoidal.skew import ZCocycle, les_verify
from groupoidal.zlinalg import (FgAbGroup, IntMatrix, homology_at,
                                kernel_basis, rank)

from oracles import (betti_over_field, betti_over_field_cochain,
                     cocycle_from_potential, complex_betti, group_bar_boundaries,
                     group_cochain_deltas, modp_rank, rational_rank)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def _report(number, description, t0, budget):
    elapsed = time.time() - t0
    print(f"PASS criterion {number}: {description} "
          f"({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def _sampled_groupoids():
    rng = random.Random(42)
    zoo = [
        group_groupoid(cyclic_table(2)),
        group_groupoid(cyclic_table(3)),
        full_pair_groupoid(3),
        space_groupoid(4),
        disjoint_union(group_groupoid(cyclic_table(2)), space_groupoid(1)),
    ]
    return zoo + [random_groupoid(rng) for _ in range(10)]


def test_criterion_1_trivial_space_groupoid():
    t0 = time.time()
    sp = space_groupoid(4)
    assert homology_groups(sp, 3) == [FgAbGroup.free(4), ZERO, ZERO, ZERO]
    got = cocycle_cohomology(sp, constant_module(sp, 1), 3)
    assert got == [FgAbGroup.free(4), ZERO, ZERO, ZERO]
    _report(1, "trivial space groupoid on 4 points", t0, 1.0)


def test_criterion_2_cyclic_groups_with_oracle():
    t0 = time.time()
    expected = {
        2: ([Z, FgAbGroup.from_orders([2]), ZERO, FgAbGroup.from_orders([2])],
            [Z, ZERO, FgAbGroup.from_orders([2]), ZERO]),
        3: ([Z, FgAbGroup.from_orders([3]), ZERO, FgAbGroup.from_orders([3])],
            [Z, ZERO, FgAbGroup.from_orders([3]), ZERO]),
    }
    for k, (want_h, want_c) in expected.items():
        table = cyclic_table(k)
        G = group_groupoid(table)
        groups_h = homology_groups(G, 3)
        groups_c = cocycle_cohomology(G, constant_module(G, 1), 3)
        assert groups_h == want_h
        assert groups_c == want_c
        assert hom_side_cohomology(G, constant_module(G, 1), 3) == want_c
        # independent classical bar complex of the group: Betti numbers
        # over Q and small prime fields must agree
        mats = group_bar_boundaries(table, 3)
        dims = [k ** n for n in range(4)]
        outs = [None] + [mats[n] for n in (1, 2, 3)]
        ins = [mats[n + 1] for n in range(4)]
        assert (complex_betti(outs, ins, dims, rational_rank)
                == [g.free_rank for g in groups_h])
        for p in (2, 3):
            assert (complex_betti(outs, ins, dims, lambda m: modp_rank(m, p))
                    == betti_over_field(groups_h, p))
        deltas = group_cochain_deltas(table, 2)
        cdims = [k ** n for n in range(3)]
        couts = [deltas[n] for n in range(3)]
        cins = [None, deltas[0], deltas[1]]
        assert (complex_betti(couts, cins, cdims, rational_rank)
                == [g.free_rank for g in groups_c[:3]])
        for p in (2, 3):
            assert (complex_betti(couts, cins, cdims, lambda m: modp_rank(m, p))
                    == betti_over_field_cochain(groups_c, p)[:3])
    _report(2, "Z/2 and Z/3 against the classical bar-complex oracle", t0, 5.0)


def test_criterion_3_theta_rho_on_random_instances():
    t0 = time.time()
    rng = random.Random(42)
    count = 0
    while count < 10:
        G = random_groupoid(rng, max_arrows=20)
        M = random_module(G, rng, max_rank=2)
        rep = theta_rho_check(G, M, 2)
        assert rep.ok, rep.failures
        assert rep.cocycle_groups == rep.hom_groups
        count += 1
    _report(3, "theta/rho identities on 10 random groupoid/module pairs",
            t0, 60.0)


def test_criterion_4_boundary_and_bar_properties():
    t0 = time.time()
    for G in _sampled_groupoids():
        for n in (1, 2, 3):
            assert (boundary_matrix_d(G, n) * boundary_matrix_d(G, n + 1)).is_zero()
        for n in (0, 1, 2, 3):
            assert (bar_boundary_matrix_b(G, n) * bar_boundary_matrix_b(G, n + 1)).is_zero()
        for n in (0, 1, 2):
            b_out = bar_boundary_matrix_b(G, n)
            b_in = bar_boundary_matrix_b(G, n + 1)
            assert rank(b_out) + rank(b_in) == b_in.rows
            assert homology_at(b_out, b_in) == ZERO
        for n in (1, 2, 3):
            assert (coinvariants_collapse(G, n - 1) * bar_boundary_matrix_b(G, n)
                    == boundary_matrix_d(G, n) * coinvariants_collapse(G, n))
    _report(4, "d.d = 0, b.b = 0, bar exactness, bridging identity on all "
               "sampled groupoids", t0, 60.0)


def test_criterion_5_skew_les_both_modes():
    t0 = time.time()
    p3 = full_pair_groupoid(3)
    c = cocycle_from_potential(p3, dict(zip(p3.units, (0, 1, 2))))
    for mode in ("homology", "cohomology"):
        rep = les_verify(p3, c, K=8, guard=3, n_max=2, mode=mode)
        assert rep.ok
        for ch in rep.checks:
            assert ch.composite_zero and ch.exact_at_sub
            assert ch.exact_at_mid and ch.exact_at_quot
        assert rep.base_groups[0] == Z
        assert rep.degree0_group == Z and rep.degree0_matches_base
    z2 = group_groupoid(cyclic_table(2))
    rep = les_verify(z2, ZCocycle.zero(z2), K=8, guard=3, n_max=2,
                     mode="cohomology")
    assert rep.ok
    rep = les_verify(z2, ZCocycle.zero(z2), K=8, guard=3, n_max=2,
                     mode="homology")
    assert rep.ok
    _report(5, "skew LES exactness, pair(3) potential and degenerate Z/2",
            t0, 30.0)


def test_criterion_6_uhf_invariants():
    t0 = time.time()
    for p in (2, 3):
        B = bratteli_stationary(p, 6)
        C = dimension_group(B)
        assert C.tower.map_at(0) == IntMatrix.from_rows([[p]])
        for coeff in (1, 3, 7):
            a = C.element(0, [coeff])
            for k in (1, 2, 3):
                res = colimit_divisible(C, a, p ** k, 8)
                assert res.kind == "witness"
                # the witness is exact: pushing it forward recovers a
                assert res.vector[0] * (p ** k) == coeff * p ** (res.stage)
        q = 5  # coprime to both
        res = colimit_divisible(C, C.element(0, [1]), q, 8)
        assert res.kind == "no" and res.exact
        assert colimit_divisible(C, C.element(0, [q]), q, 8).kind == "witness"
        rep = af_cohomology_tower(B, 3, 4)
        assert rep.h0_constants_only and rep.h0_lattice_rank == 1
        assert rep.h1_nonml_evidence
    _report(6, "UHF(2), UHF(3) dimension group, vanishing, tower evidence",
            t0, 30.0)


def test_criterion_7_z_actions_and_odometer():
    t0 = time.time()
    za = z_action_homology([1, 2, 3, 4, 0])
    assert (za.h0, za.h1, za.h0_dual, za.h1_dual) == (Z, Z, Z, Z)
    rep = odometer_homology(2, 6)
    for entry in rep.per_depth:
        assert entry.h0 == Z and entry.h1 == Z
        if entry.depth > 1:
            assert entry.h0_connecting == IntMatrix.from_rows([[2]])
            assert entry.h1_connecting == IntMatrix.identity(1)
    assert rep.stabilized_h1 == Z
    _report(7, "5-cycle invariants and odometer tower to depth 6", t0, 10.0)


def test_criterion_8_functoriality():
    t0 = time.time()
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, full_pair_groupoid(2))
    pt = space_groupoid(1)
    incl = GroupoidFunctor(z2, union, range(z2.n_arrows))
    collapse = GroupoidFunctor(union, pt, [0] * union.n_arrows)
    composed = GroupoidFunctor(z2, pt, [collapse(incl(g)) for g in range(z2.n_arrows)])
    # homology is covariant: pushforwards compose in order
    for n in (0, 1, 2):
        assert (chain_pushforward(composed, n)
                == chain_pushforward(collapse, n) * chain_pushforward(incl, n))
    # cohomology is contravariant: pullbacks compose in reverse order
    M = constant_module(pt, 1)
    for n in (0, 1, 2):
        lhs = cochain_pullback_matrix(composed, M, n)
        rhs = (cochain_pullback_matrix(incl, pullback_module(collapse, M), n)
               * cochain_pullback_matrix(collapse, M, n))
        assert lhs == rhs
    # surjective functors pull back injectively at chain level
    p3 = full_pair_groupoid(3)
    surj = GroupoidFunctor(p3, pt, [0] * p3.n_arrows)
    for n in (0, 1, 2):
        assert kernel_basis(cochain_pullback_matrix(surj, M, n)).cols == 0
    _report(8, "covariant/contravariant composition and injectivity of "
               "surjective pullbacks", t0, 10.0)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({"kind": "group", "cayley": [[0, 1], [1, 0]]}))
    uhf = tmp_path / "uhf.json"
    uhf.write_text(json.dumps({"kind": "bratteli", "stationary": True,
                               "p": 2, "levels": 3}))
    commands = [
        ["homology", str(z2), "--max-degree", "3", "--format", "json"],
        ["cohomology", str(z2), "--max-degree", "2", "--format", "json"],
        ["verify-theta", "--seed", "42", "--format", "json"],
        ["skew-les", str(z2), "--cocycle", "zero", "--window", "5",
         "--guard", "2", "--max-degree", "1", "--format", "json"],
        ["dimension-group", str(uhf), "--levels", "3", "--format", "json"],
        ["af-cohomology", str(uhf), "--levels", "2", "--depth", "3",
         "--format", "json"],
        ["odometer", "--p", "2", "--max-depth", "4", "--format", "json"],
        ["z-action", "--perm", "1,2,3,4,0", "--format", "json"],
    ]
    for argv in commands:
        outputs = []
        # two repeat runs under different hash seeds: the computation is
        # single-process and deterministic, so bytes must be identical
        for seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            res = subprocess.run([sys.executable, "-m", "groupoidal.cli"] + argv,
                                 capture_output=True, env=env)
            assert res.returncode == 0, (argv, res.stderr)
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1], argv
        parsed = json.loads(outputs[0])
        assert (json.dumps(parsed, indent=2) + "\n").encode() == outputs[0]
    _report(9, "byte-identical CLI output across repeat runs", t0, 60.0)
