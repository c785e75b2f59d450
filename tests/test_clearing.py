"""`ChainComplex.groups()` clears the cells paired below each differential.

Each unit pivot of one differential pairs a cell of the degree it shares
with the next one, and the next differential's unit phase runs without
that cell's line.  These tests check the groups against complexes whose
homology is known without the engine, against the formula that factors
each whole differential on its own, and that the top differential's unit
phase really receives none of the paired cells.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import zlinalg
from groupoidal.cohomology import cochain_complex, cochain_space
from groupoidal.homology import nerve_complex
from groupoidal.models import (constant_module, group_groupoid, random_groupoid,
                               random_module)
from groupoidal.zlinalg import ChainComplex, FgAbGroup, IntMatrix, invariant_factors

from oracles import orders_normal_form
from test_models import S3_TABLE


def _per_differential_groups(ds, step):
    """The groups of ChainComplex(ds, step) from the invariant factors of
    each whole differential: the rank of d_out and the Smith diagonal of
    d_in."""
    facs = [invariant_factors(d) for d in ds]
    out = []
    for n in range(len(ds) - 1 if step < 0 else len(ds)):
        f_out = facs[n]
        f_in = facs[n + 1] if step < 0 else facs[n - 1] if n else []
        out.append(FgAbGroup.from_invariant_factors(
            f_in, free_rank=ds[n].cols - len(f_out) - len(f_in)))
    return out


def _unimodular_pair(rng, k):
    """P and P^-1 for a random product of elementary row operations."""
    P = [[int(i == j) for j in range(k)] for i in range(k)]
    Q = [row[:] for row in P]
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        if rng.random() < 0.25:
            # swap rows i, j of P and columns i, j of P^-1
            P[i], P[j] = P[j], P[i]
            for row in Q:
                row[i], row[j] = row[j], row[i]
        else:
            # row i += q * row j of P, column j -= q * column i of P^-1
            q = rng.choice([-2, -1, 1, 2])
            P[i] = [a + q * b for a, b in zip(P[i], P[j])]
            for row in Q:
                row[j] -= q * row[i]
    P, Q = IntMatrix.from_rows(P, k), IntMatrix.from_rows(Q, k)
    assert P * Q == IntMatrix.identity(k)
    return P, Q


KS = [1, -1, 0, 2, -3, 4, 6, -12, 9]


@st.composite
def known_complexes(draw):
    """(step, ds, want): ChainComplex(ds, step) is a direct sum of summands
    Z --k--> Z between degrees n and n + 1 and free summands Z, each
    degree conjugated by a random unimodular matrix, and want holds the
    (free rank, invariant factors) of each of its degrees."""
    step = draw(st.sampled_from([-1, 1]))
    top = draw(st.integers(0, 3))
    # a chain list starts with d_0, the map from degree 0 to degree -1
    low = -1 if step < 0 else 0
    pairs = draw(st.lists(st.tuples(st.integers(low, top), st.sampled_from(KS)), max_size=10))
    frees = draw(st.lists(st.integers(low, top + 1), max_size=4))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    dims = {n: 0 for n in range(low, top + 2)}
    free = {n: 0 for n in range(low, top + 2)}
    orders = {n: [] for n in range(low, top + 2)}
    entries = {n: [] for n in range(low, top + 1)}  # the map between n and n + 1
    for n in frees:
        dims[n] += 1
        free[n] += 1
    for n, k in pairs:
        a, b = dims[n], dims[n + 1]
        dims[n] += 1
        dims[n + 1] += 1
        # chains map b to k * a, so Z/k lands in degree n; cochains map a
        # to k * b, so it lands in degree n + 1
        entries[n].append((a, b, k) if step < 0 else (b, a, k))
        if k == 0:
            free[n] += 1
            free[n + 1] += 1
        elif abs(k) > 1:
            orders[n if step < 0 else n + 1].append(k)
    P, Q = {}, {}
    for n, k in dims.items():
        P[n], Q[n] = _unimodular_pair(rng, k)
    ds = []
    for n, block in entries.items():
        if step < 0:  # d_{n+1}: C_{n+1} -> C_n
            ds.append(P[n] * IntMatrix.from_entries(dims[n], dims[n + 1], block) * Q[n + 1])
        else:  # delta_n: C^n -> C^{n+1}
            ds.append(P[n + 1] * IntMatrix.from_entries(dims[n + 1], dims[n], block) * Q[n])
    want = [orders_normal_form(orders[n], free[n]) for n in range(top + 1)]
    return step, ds, want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(known_complexes())
def test_groups_of_conjugated_direct_sums(case):
    step, ds, want = case
    groups = ChainComplex(ds, step).groups()
    assert [(g.free_rank, g.torsion) for g in groups] == want
    assert groups == _per_differential_groups(ds, step)


@pytest.mark.parametrize("seed", range(10))
def test_cocycle_complexes_keep_the_per_differential_groups(seed):
    # degrees 0 .. 3 of the full cocycle complex of a seeded random model
    rng = random.Random(seed)
    G = random_groupoid(rng, max_arrows=12)
    M = random_module(G, rng)
    cx = cochain_complex(G, M, [cochain_space(G, M, n) for n in range(5)])
    ds = [cx.d_out(n) for n in range(4)]
    assert cx.groups() == _per_differential_groups(ds, 1)


def _unit_phases(cx):
    """(groups, calls): the groups of cx and, for each call of the rank-only
    routine that cx.groups() makes, lowest degree first, [input, cleared
    rows, paired columns, (the nonzero rows its logless unit phase
    receives, that phase's pivots), or None when it runs no unit phase]."""
    calls = []
    block_factors, eliminate = zlinalg._block_factors, zlinalg._eliminate_units

    def kept_units(rows, *args):
        live = {i for i, row in enumerate(rows) if row}
        calls[-1][3] = live, eliminate(rows, *args)
        return calls[-1][3][1]

    def kept(A, cleared=()):
        calls.append([A, cleared, None, None])
        factors, calls[-1][2] = block_factors(A, cleared)
        return factors, calls[-1][2]

    with mock.patch.object(zlinalg, "_block_factors", kept), \
            mock.patch.object(zlinalg, "_eliminate_units", kept_units):
        groups = cx.groups()
    return groups, calls


@pytest.mark.parametrize("step", [-1, 1])
def test_the_top_unit_phase_gets_none_of_the_cells_paired_below(step):
    S3 = group_groupoid(S3_TABLE)
    if step < 0:
        cx = nerve_complex(S3, 2)
        # d_2 and d_3, as the unit phase sees them: rows are the lower degree
        below, top = (cx._ds[2], cx._ds[3])
    else:
        M = constant_module(S3, 1)
        cx = cochain_complex(S3, M, [cochain_space(S3, M, n) for n in range(4)])
        # delta_1 and delta_2, transposed so that rows are the lower degree
        below, top = (cx.d_out(1).transpose(), cx.d_out(2).transpose())
    groups, calls = _unit_phases(cx)
    assert groups == _per_differential_groups(
        cx._ds if step < 0 else [cx.d_out(n) for n in range(cx.top + 1)], step)
    (below_in, _, paired, (_, below_units)), (top_in, cleared, _, (top_live, top_units)) \
        = calls[-2:]
    assert below_in == below and top_in == top
    # the rows of the top differential taken as zero are the cells of the
    # shared degree that the unit pivots below paired, some of them nonzero
    # there; its unit phase receives them as zero rows and eliminates none
    assert paired == {j for _, j in below_units}
    assert cleared == paired
    assert paired and paired <= {i for i, _, _ in top.entries()}
    assert not paired & top_live
    assert not paired & {p for p, _ in top_units}
