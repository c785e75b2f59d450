"""The elimination engine picks exactly the pivots of the full-scan rules.

Transforms, kernel bases, generators and witness vectors all depend on the
pivot order, so both phases of the engine are checked against a full
scan, on random sparse matrices and on the boundary matrices of real
nerves: every pivot of the unit phase against
`oracles.full_scan_unit_pivots`, and every step of the exact phase, the
incremental pivot queue, against `oracles.full_scan_pivot`.
"""

from functools import lru_cache
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import zlinalg
from groupoidal.groupoids import boundary_matrix_d
from groupoidal.limits import _shift_pullback
from groupoidal.models import (OdometerSystem, cyclic_table, group_groupoid,
                               pair_groupoid_from_map)
from groupoidal.zlinalg import IntMatrix, LinearSystem, invariant_factors, kernel_basis

from oracles import engine_factors, full_scan_pivot, full_scan_unit_pivots


class _CountingSmith(zlinalg._Smith):
    """The engine, keeping the pivots of its unit phase and counting those
    of its exact phase."""

    def _reduce(self):
        self.unit_pivots, self.exact_pivots = None, 0
        eliminate = zlinalg._eliminate_units

        def kept(*args):
            self.unit_pivots = eliminate(*args)
            return self.unit_pivots

        with mock.patch.object(zlinalg, "_eliminate_units", kept):
            super()._reduce()

    def _select_pivot(self, t):
        found = super()._select_pivot(t)
        self.exact_pivots += found is not None
        return found


class _CheckedSmith(_CountingSmith):
    """The engine with every pivot choice compared against the oracles."""

    def _reduce(self):
        want = full_scan_unit_pivots(self.rows)
        super()._reduce()
        for step, (got, pivot) in enumerate(zip_longest(self.unit_pivots, want)):
            assert got == pivot, f"unit step {step}"

    def _select_pivot(self, t):
        got = super()._select_pivot(t)
        assert got == full_scan_pivot(self, t), f"step {t}"
        return got


def _sparse_usv(eng):
    """Nonzeros of U*S*V, summed over the rank-one terms d_i * U[:, i] * V[i, :]."""
    u_cols, v_rows = eng.u_cols(), [{} for _ in range(eng.n)]
    for i, j, v in engine_factors(eng).V.entries():
        v_rows[i][j] = v
    out = {}
    for i in range(eng.rank):
        d = eng.rows[i][i]
        for r, u in u_cols[i].items():
            for c, v in v_rows[i].items():
                out[(r, c)] = out.get((r, c), 0) + u * d * v
    return {k: v for k, v in out.items() if v}


def _nonzeros(A):
    return {(i, j): v for i, row in enumerate(A.data) for j, v in enumerate(row) if v}


def _check_factorizations(A):
    eng = _CheckedSmith(A)
    assert _sparse_usv(eng) == _nonzeros(A)
    return eng


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(0, 12))
    n = draw(st.integers(0, 30))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    cells = draw(st.lists(st.tuples(st.floats(0, 1), st.integers(-3, 3)),
                          min_size=m * n, max_size=m * n))
    return IntMatrix(m, n, [[v if u < density else 0 for u, v in cells[i * n:(i + 1) * n]]
                            for i in range(m)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(), st.lists(st.integers(-3, 3), min_size=30, max_size=30))
def test_pivots_match_full_scan_on_random_sparse_matrices(A, x):
    eng = _check_factorizations(A)
    f = engine_factors(eng)
    assert f.U * f.S * f.V == A
    with mock.patch.object(zlinalg, "_Smith", _CheckedSmith):
        K = kernel_basis(A)
        assert (A * K).is_zero() and K.cols == A.cols - eng.rank
        v = A.apply(x[:A.cols])
        y = LinearSystem(A).solve(v)
        assert y is not None and A.apply(y) == v


@lru_cache(maxsize=None)
def _nerve_boundaries():
    from test_models import S3_TABLE
    # d_1 .. d_4: homology to degree 3
    return [boundary_matrix_d(G, n)
            for G in (group_groupoid(cyclic_table(5)), group_groupoid(S3_TABLE),
                      pair_groupoid_from_map([0, 0, 0, 0]))
            for n in range(1, 5)]


def test_pivots_match_full_scan_on_nerve_boundaries():
    for A in _nerve_boundaries():
        _check_factorizations(A)


def _odometer_boundary(p, d):
    """id - P for the add-one permutation of the p^d cylinders of depth d."""
    n = p ** d
    return IntMatrix.identity(n) - IntMatrix.from_entries(
        n, n, ((j, i, 1) for i, j in enumerate(OdometerSystem(p, d).permutation(d))))


@pytest.mark.parametrize("A", [_odometer_boundary(2, 9), _shift_pullback(3, 3)],
                         ids=["cycle-512", "shift-pullback-81x27"])
def test_pivots_match_full_scan_on_the_af_tower_matrices(A):
    # the odometer's id - P, whose unit phase takes all but one pivot, and
    # the AF tower's shift pullback, one 1 per row and p per column
    eng = _check_factorizations(A)
    assert eng.rank == A.cols - (A.rows == A.cols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(sparse_matrices(),
                 st.integers(0, 11).map(lambda k: _nerve_boundaries()[k])))
def test_the_exact_phase_factors_what_the_unit_phase_leaves(A):
    # on the same orientation, the unit phase takes the pivots of the
    # rank-only path and leaves the remainder that `_strip_unit_pivots`
    # compacts, so the exact phase takes as many pivots as its rank, and
    # the diagonal is the canonical one of the rank-only path
    eng = _CountingSmith(A)
    units, rest = zlinalg._strip_unit_pivots(A)
    assert eng.unit_pivots == units
    assert eng.exact_pivots == zlinalg._Smith(rest).rank
    assert eng.diagonal() == invariant_factors(A)


def test_the_unit_phase_pushes_a_row_only_when_its_entry_changed():
    # row 0 is the first pivot, in column 0.  Clearing it moves rows 1
    # and 2 from column 0 to column 1 at the same length, each still
    # holding a unit, so their heap entries stay exact and neither is
    # pushed.  Row 1 pivots in column 2; that shortens row 2 to two
    # entries (one push), and row 3 keeps no unit (no push).  Row 2 then
    # pivots in column 3 and row 3 is left as the remainder [[3]].
    A = IntMatrix.from_rows([[1, 2, 0, 0],
                             [1, 0, 1, 1],
                             [1, 0, 2, 1],
                             [0, 1, 1, 1]])
    with mock.patch.object(zlinalg.heapq, "heappush", wraps=zlinalg.heapq.heappush) as push:
        units, rest = zlinalg._strip_unit_pivots(A)
    assert units == full_scan_unit_pivots(A._row_dicts) == [(0, 0), (1, 2), (2, 3)]
    assert rest == IntMatrix.from_rows([[3]])
    assert push.call_count == 1
