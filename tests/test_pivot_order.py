"""The elimination engine picks exactly the pivots of the full-scan rule.

Transforms, kernel bases, generators and witness vectors all depend on the
pivot order, so the engine's incremental pivot queue is checked against
`oracles.full_scan_pivot` at every step, on random sparse matrices and on
the boundary matrices of real nerves.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import zlinalg
from groupoidal.groupoids import boundary_matrix_d
from groupoidal.models import cyclic_table, group_groupoid, pair_groupoid_from_map
from groupoidal.zlinalg import IntMatrix, LinearSystem, kernel_basis

from oracles import engine_factors, full_scan_pivot


class _CheckedSmith(zlinalg._Smith):
    """The engine with every pivot choice compared against the oracle."""

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


def test_pivots_match_full_scan_on_nerve_boundaries():
    from test_models import S3_TABLE
    for G in (group_groupoid(cyclic_table(5)), group_groupoid(S3_TABLE),
              pair_groupoid_from_map([0, 0, 0, 0])):
        for n in range(1, 5):  # d_1 .. d_4: homology to degree 3
            _check_factorizations(boundary_matrix_d(G, n))
