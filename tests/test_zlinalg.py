import random
import weakref
from itertools import chain
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupoidal import zlinalg
from groupoidal.zlinalg import (BadModulus, ChainComplex, CompositionNonzero,
                                DimensionMismatch, FgAbGroup, IntMatrix,
                                LinearSystem, coefficients_via_uct,
                                homology_at,
                                LinAlgError, induced_on_homology,
                                invariant_factors, kernel_basis, kernel_group,
                                rank, snf)

from oracles import (det, engine_factors, full_scan_unit_pivots, image_basis,
                     lattice_kernel_group, modp_rank, orders_normal_form, rational_rank,
                     recording_engine, selection_matrix)


def _contains(A, B):
    """Whether every column of B lies in the image lattice of A."""
    return LinearSystem(A).solve_columns(B) is not None


def test_snf_identity():
    A = IntMatrix.identity(2)
    d = snf(A)
    assert d.S == IntMatrix.identity(2)
    assert d.U == IntMatrix.identity(2)
    assert d.V == IntMatrix.identity(2)


def test_snf_zero_1x1():
    d = snf(IntMatrix.from_rows([[0]]))
    assert d.S == IntMatrix.from_rows([[0]])


def test_snf_2x2_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    d = snf(A)
    assert d.S == IntMatrix.from_rows([[2, 0], [0, 4]])
    # first invariant factor is the gcd of the entries, product is |det|
    assert d.diagonal()[0] == 2
    assert d.diagonal()[0] * d.diagonal()[1] == abs(det(A.data)) == 8
    assert d.U * d.S * d.V == A


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        A = IntMatrix.zeros(*shape)
        d = snf(A)
        assert d.S.shape == shape
        assert d.U * d.S * d.V == A


def test_kernel_zero_map():
    K = kernel_basis(IntMatrix.zeros(2, 2))
    assert K == IntMatrix.identity(2)


def test_kernel_identity_empty():
    assert kernel_basis(IntMatrix.identity(3)).cols == 0


def test_kernel_sum_map():
    K = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert K.column_list() == [[1, -1]]
    # every small solution of x + y = 0 is an integer multiple of (1, -1)
    for x in range(-3, 4):
        sol = (x, -x)
        assert sol[0] * (-1) == sol[1] * 1


def test_homology_free():
    h = homology_at(IntMatrix.zeros(1, 3), IntMatrix.zeros(3, 1))
    assert h == FgAbGroup.free(3)


def test_homology_bar_degree_one():
    # kernel all of Z^2, image spanned by [e] and 2[g] - [e]
    d_in = IntMatrix.from_rows([[1, -1], [0, 2]])
    h = homology_at(IntMatrix.zeros(1, 2), d_in)
    assert h == FgAbGroup.from_orders([2])


def test_homology_injective_out():
    h = homology_at(IntMatrix.identity(2), IntMatrix.zeros(2, 0))
    assert h == FgAbGroup.trivial()


def test_homology_guards():
    with pytest.raises(DimensionMismatch):
        homology_at(IntMatrix.zeros(1, 2), IntMatrix.zeros(3, 1))
    with pytest.raises(CompositionNonzero):
        homology_at(IntMatrix.identity(2), IntMatrix.identity(2))


def test_an_empty_composite_is_checked_by_its_shape_alone(monkeypatch):
    # d_out with no rows or d_in with no columns makes a product that is
    # zero by its shape, so only the shapes are compared; every other pair
    # is still multiplied
    products = []

    def counting_mul(a, b, _mul=IntMatrix.__mul__):
        products.append((a.shape, b.shape))
        return _mul(a, b)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    d, z = IntMatrix.from_rows([[1, -1]]), IntMatrix.from_rows([[1], [1]])
    ChainComplex([IntMatrix.zeros(0, 1), d, IntMatrix.zeros(2, 0)], -1)
    ChainComplex([d], 1)  # with the zero map into C^0, 2 x 0
    assert products == []
    ChainComplex([IntMatrix.zeros(0, 1), d, z, IntMatrix.zeros(1, 0)], -1)
    assert products == [((1, 2), (2, 1))]
    for ds, step in (([IntMatrix.zeros(0, 2), d], -1), ([d, IntMatrix.zeros(3, 0)], -1),
                     ([IntMatrix.zeros(1, 2), IntMatrix.zeros(0, 3)], 1)):
        with pytest.raises(DimensionMismatch, match="mul"):
            ChainComplex(ds, step)
    with pytest.raises(CompositionNonzero) as info:
        ChainComplex([IntMatrix.zeros(0, 1), d, IntMatrix.from_rows([[1], [0]])], -1)
    assert info.value.degree == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_column_sums_and_row_picks_are_products_with_selection_matrices(seed):
    # random sparse A and random maps, not injective or not onto as they fall
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    A = IntMatrix.from_entries(rows, cols, [
        (rng.randrange(rows), rng.randrange(cols), rng.randint(-3, 3))
        for _ in range(rng.randint(0, rows * cols))])
    width = rng.randint(1 if cols else 0, 6)
    to = [rng.randrange(width) for _ in range(cols)]
    at = [rng.randrange(rows) for _ in range(rng.randint(0, 6))] if rows else []
    assert A.sum_columns(to, width) == A * selection_matrix(to, width)
    assert A.rows_at(at) == selection_matrix(at, rows) * A


def test_column_sums_and_row_picks_refuse_a_map_out_of_range():
    A = IntMatrix.from_rows([[1, 2], [3, 4]])
    for to, width in (([0], 2), ([0, 2], 2), ([0, -1], 2), ([0, 0, 0], 1)):
        with pytest.raises(DimensionMismatch):
            A.sum_columns(to, width)
    for at in ([2], [-1], [0, 5]):
        with pytest.raises(DimensionMismatch):
            A.rows_at(at)
    assert A.sum_columns([0, 0], 1) == IntMatrix.from_rows([[3], [7]])
    assert A.rows_at([1, 1]) == IntMatrix.from_rows([[3, 4], [3, 4]])


def test_uct_examples():
    Z = FgAbGroup.free(1)
    zero = FgAbGroup.trivial()
    assert coefficients_via_uct(Z, zero, 2) == FgAbGroup.from_orders([2])
    assert coefficients_via_uct(zero, FgAbGroup.from_orders([2]), 2) == FgAbGroup.from_orders([2])
    assert coefficients_via_uct(FgAbGroup.from_orders([3]), zero, 2) == zero
    with pytest.raises(BadModulus):
        coefficients_via_uct(Z, zero, 1)


def test_solve_examples():
    assert LinearSystem(IntMatrix.identity(3)).solve([5, -2, 7]) == [5, -2, 7]
    assert LinearSystem(IntMatrix.from_rows([[2]])).solve([1]) is None
    assert LinearSystem(IntMatrix.from_rows([[2]])).solve([4]) == [2]
    with pytest.raises(DimensionMismatch):
        LinearSystem(IntMatrix.from_rows([[2]])).solve([1, 2])


def test_solve_random_consistency():
    rng = random.Random(5)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)]
                             for _ in range(m)])
        x = [rng.randint(-3, 3) for _ in range(n)]
        v = A.apply(x)
        got = LinearSystem(A).solve(v)
        assert got is not None
        assert A.apply(got) == v


def test_snf_invariants_random():
    rng = random.Random(11)
    for _ in range(120):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        A = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)]
                             for _ in range(m)])
        d = snf(A)
        assert d.U * d.S * d.V == A
        assert abs(det(d.U.data)) == 1
        assert abs(det(d.V.data)) == 1
        diag = d.diagonal()
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        K = kernel_basis(A)
        assert (A * K).is_zero()
        assert K.cols + rank(A) == n


def test_image_basis_is_snf_readout():
    rng = random.Random(13)
    for _ in range(120):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        A = IntMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)]
                             for _ in range(m)])
        assert IntMatrix.from_columns(A.column_list(), m) == A
        d = snf(A)
        us = (d.U * d.S).column_list()[:d.rank]
        B = image_basis(A)
        assert B == IntMatrix.from_columns(us, m)
        assert _contains(A, B) and _contains(B, A)
        C = IntMatrix(m, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(m)])
        assert _contains(A, C) == all(LinearSystem(A).solve(c) is not None
                                           for c in C.column_list())


def test_from_columns_checks_lengths():
    assert IntMatrix.from_columns([], 3).shape == (3, 0)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_columns([[1, 2], [3]], 2)


def test_from_rows_checks_the_given_width():
    assert IntMatrix.from_rows([], 4).shape == (0, 4)
    assert IntMatrix.from_rows([[1, 2]], 2).shape == (1, 2)
    assert IntMatrix.from_rows([[1, 2]]).shape == (1, 2)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2]], 5)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])


def test_from_entries_sums_repeats_and_keeps_no_zeros():
    A = IntMatrix.from_entries(2, 3, [(0, 1, 2), (1, 0, 1), (0, 1, -2), (1, 2, 4), (1, 0, 2)])
    assert A.data == [[0, 0, 0], [3, 0, 4]]
    assert list(A.entries()) == [(1, 0, 3), (1, 2, 4)]
    assert A == IntMatrix(2, 3, [[0, 0, 0], [3, 0, 4]])
    A.data[1][0] = 7  # a dense copy: the matrix does not change
    assert A.col(0) == [0, 3]
    assert IntMatrix.from_entries(2, 2, [(0, 0, 1), (0, 0, -1)]).is_zero()
    for bad in ((2, 0, 1), (0, 3, 1), (-1, 0, 1)):
        with pytest.raises(DimensionMismatch):
            IntMatrix.from_entries(2, 3, [bad])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_from_row_dicts_equals_from_entries(rows, cols, data):
    # repeated positions with values in -2..2 often sum to zero
    cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)),
                      st.integers(-2, 2))
    entries = data.draw(st.lists(cells, max_size=30)) if rows and cols else []
    row_dicts = [{} for _ in range(rows)]
    for i, j, v in entries:
        row_dicts[i][j] = row_dicts[i].get(j, 0) + v
    A = IntMatrix.from_row_dicts(cols, row_dicts)
    B = IntMatrix.from_entries(rows, cols, entries)
    assert A == B and A.shape == (rows, cols)
    assert list(A.entries()) == list(B.entries())
    assert all(v for _, _, v in A.entries())


def test_from_row_dicts_drops_zeros_and_checks_columns():
    A = IntMatrix.from_row_dicts(3, [{0: 0, 2: 5}, {1: 0}, {}])
    assert A.data == [[0, 0, 5], [0, 0, 0], [0, 0, 0]]
    assert list(A.entries()) == [(0, 2, 5)]
    assert A.is_zero() is False and IntMatrix.from_row_dicts(2, [{0: 0}, {1: 0}]).is_zero()
    assert IntMatrix.from_row_dicts(4, [{}, {}]) == IntMatrix.zeros(2, 4)
    assert IntMatrix.from_row_dicts(5, []).shape == (0, 5)
    assert IntMatrix.from_row_dicts(0, [{}, {}]).shape == (2, 0)
    assert IntMatrix.from_row_dicts(0, []).shape == (0, 0)
    for bad in ([{-1: 1}], [{}, {3: 1}], [{0: 1, 7: 0}], [{-2: 0}]):
        with pytest.raises(DimensionMismatch):
            IntMatrix.from_row_dicts(3, bad)
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_row_dicts(0, [{0: 1}])


def test_snf_against_sympy():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(23)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix(m, n, [[rng.randint(-6, 6) for _ in range(n)]
                             for _ in range(m)])
        ours = invariant_factors(A)
        theirs = smith_normal_form(sympy.Matrix(A.data))
        sympy_diag = sorted(abs(theirs[i, i]) for i in range(min(m, n))
                            if theirs[i, i] != 0)
        assert sorted(ours) == sympy_diag


def _random_composable_pair(rng, m=5):
    """d_out (q x m) and d_in (m x l) with d_out * d_in = 0."""
    q = rng.randint(1, 4)
    d_out = IntMatrix(q, m, [[rng.randint(-3, 3) for _ in range(m)]
                             for _ in range(q)])
    K = kernel_basis(d_out)
    l = rng.randint(1, 4)
    R = IntMatrix(K.cols, l, [[rng.randint(-2, 2) for _ in range(l)]
                              for _ in range(K.cols)])
    return d_out, K * R


def test_uct_against_modp_complex():
    # complex Z^l --d_in--> Z^m --d_out--> Z^q; the mod-p dimension at the
    # middle is dim(H_mid (x) F_p) + dim Tor(H_bottom, F_p)
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 5)
        d_out, d_in = _random_composable_pair(rng, m)
        h_mid = homology_at(d_out, d_in)
        h_bottom = homology_at(IntMatrix.zeros(0, d_out.rows), d_out)
        for p in (2, 3, 5):
            uct = coefficients_via_uct(h_mid, h_bottom, p)
            assert uct.free_rank == 0
            dim = m - modp_rank(d_out.data, p) - modp_rank(d_in.data, p)
            assert dim == len(uct.torsion)


def test_rank_against_rational_elimination():
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix(m, n, [[rng.randint(-7, 7) for _ in range(n)]
                             for _ in range(m)])
        assert rank(A) == rational_rank(A.data)


def test_presentation_matches_fast_path():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(1, 5)
        d_out, d_in = _random_composable_pair(rng, m)
        (pres,) = ChainComplex([d_out, d_in], -1).presentations()
        assert pres.group == homology_at(d_out, d_in)
        # generators are cycles and their coordinates are unit vectors
        for j, gen in enumerate(pres.generators):
            assert all(v == 0 for v in d_out.apply(gen))
            coords = pres.coords(gen)
            expected = [0] * pres.n_generators
            expected[j] = 1 % pres.orders[j] if pres.orders[j] else 1
            assert coords == expected
        # boundary columns have trivial class
        for jc in range(d_in.cols):
            assert all(v == 0 for v in pres.coords(d_in.col(jc)))


def test_induced_identity_map():
    d_out = IntMatrix.zeros(1, 2)
    d_in = IntMatrix.from_rows([[1, -1], [0, 2]])
    (pres,) = ChainComplex([d_out, d_in], -1).presentations()
    m = induced_on_homology(IntMatrix.identity(2), pres, pres)
    assert m == IntMatrix.identity(pres.n_generators)


def test_fgabgroup_normal_form():
    g = FgAbGroup.from_orders([2, 3, 4])
    assert g.torsion == (2, 12)
    assert str(g) == "Z/2 + Z/12"
    assert FgAbGroup.from_orders([6]) == FgAbGroup.from_orders([2, 3])
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    s = FgAbGroup.free(1).direct_sum(FgAbGroup.from_orders([2]), FgAbGroup.from_orders([4]))
    assert s.free_rank == 1 and s.torsion == (2, 4)


# large products of 2, 3 and 5 share primes, so normalizing has to merge
# their powers; 0 is a free summand and 1 and -1 are trivial
_ORDERS = st.one_of(
    st.sampled_from([0, 1, -1]), st.integers(-1000, 1000),
    st.builds(lambda a, b, c, sign: sign * 2 ** a * 3 ** b * 5 ** c,
              st.integers(0, 60), st.integers(0, 40), st.integers(0, 30),
              st.sampled_from([1, -1])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(orders=st.lists(_ORDERS, max_size=6), free_rank=st.integers(0, 3))
def test_from_orders_matches_prime_power_oracle(orders, free_rank):
    g = FgAbGroup.from_orders(orders, free_rank)
    assert (g.free_rank, g.torsion) == orders_normal_form(orders, free_rank)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(orders=st.lists(st.one_of(st.sampled_from([0, 1, -1, 2, -4, 6, 12, 9]), _ORDERS),
                       max_size=40),
       free_rank=st.integers(0, 3))
def test_from_orders_merges_long_order_lists_without_the_engine(orders, free_rank):
    # long lists with repeats fold many carries through one chain; the
    # merge builds no matrix, so it can neither run the engine nor recurse
    # through invariant_factors
    def refuse(*_):
        raise AssertionError("from_orders factored a matrix")

    with mock.patch.object(zlinalg, "_Smith", refuse), \
            mock.patch.object(zlinalg, "invariant_factors", refuse), \
            mock.patch.object(zlinalg, "_block_factors", refuse):
        g = FgAbGroup.from_orders(orders, free_rank)
    assert (g.free_rank, g.torsion) == orders_normal_form(orders, free_rank)


@st.composite
def _block_diagonal(draw):
    """A direct sum of 1-4 random blocks with entries in -3..3 and at most
    30 rows in all, its rows and columns permuted at random."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)),
                           min_size=1, max_size=4).filter(lambda b: sum(r for r, _ in b) <= 30))
    entries, top, left = [], 0, 0
    for r, c in blocks:
        values = draw(st.lists(st.integers(-3, 3), min_size=r * c, max_size=r * c))
        entries += [(top + k // c, left + k % c, v) for k, v in enumerate(values)]
        top, left = top + r, left + c
    row_at = draw(st.permutations(range(top)))
    col_at = draw(st.permutations(range(left)))
    return IntMatrix.from_entries(top, left, ((row_at[i], col_at[j], v) for i, j, v in entries))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=_block_diagonal())
def test_block_factors_agree_with_the_engine_on_the_whole_matrix(A):
    facs = invariant_factors(A)
    assert facs == zlinalg._Smith(A).diagonal()
    assert rank(A) == len(facs)
    for p in (2, 3, 5):
        assert modp_rank(A.data, p) == sum(1 for d in facs if d % p)


@st.composite
def _one_entry_rows(draw):
    """A matrix whose nonzero rows hold one entry each, all of one value 1,
    -1 or 2, so that `_block_factors` reads it with no unit phase."""
    v = draw(st.sampled_from([1, -1, 2]))
    cols = draw(st.integers(1, 8))
    at = draw(st.lists(st.one_of(st.none(), st.integers(0, cols - 1)), max_size=20))
    return IntMatrix.from_entries(len(at), cols,
                                  ((i, j, v) for i, j in enumerate(at) if j is not None))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), A=st.one_of(_block_diagonal(), _one_entry_rows()))
def test_block_factors_pair_the_unit_pivot_columns_of_the_cleared_matrix(data, A):
    # the rows in `cleared` are taken as zero, and the paired columns are
    # those of the full-scan unit rule on that masked matrix, lone +-1 rows
    # and columns included: groups() clears exactly the cells that a unit
    # phase on the masked differential pairs.  The factors merge into the
    # masked matrix's Smith diagonal
    cleared = data.draw(st.sets(st.integers(0, A.rows - 1)) if A.rows else st.just(set()))
    masked = [{} if i in cleared else row for i, row in enumerate(A._row_dicts)]
    factors, paired = zlinalg._block_factors(A, cleared)
    assert set(paired) == {j for _, j in full_scan_unit_pivots(masked)}
    assert zlinalg._merge(factors) == zlinalg._Smith(
        IntMatrix.from_row_dicts(A.cols, masked)).diagonal()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cols=st.integers(1, 8),
       entries=st.lists(st.tuples(st.integers(0, 7), st.one_of(
           st.sampled_from([1, -1, 2, 6]), st.integers(-60, 60).filter(bool))), max_size=40))
def test_one_entry_rows_factor_as_the_gcds_of_their_columns(cols, entries):
    # no two columns share a row, so the matrix is the direct sum of its
    # columns, whatever their values
    A = IntMatrix.from_entries(len(entries), cols,
                               ((i, j % cols, v) for i, (j, v) in enumerate(entries)))
    col_gcds = {}
    for j, v in entries:
        col_gcds[j % cols] = gcd(col_gcds.get(j % cols, 0), v)
    _, torsion = orders_normal_form(list(col_gcds.values()))
    want = [1] * (len(col_gcds) - len(torsion)) + list(torsion)
    with mock.patch.object(zlinalg, "_Smith", side_effect=AssertionError("pivoted")):
        assert invariant_factors(A) == want
        assert rank(A) == len(col_gcds)
    assert zlinalg._Smith(A).diagonal() == want


def test_linear_system_reuse():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    sys = LinearSystem(A)
    assert sys.solve([4, 9]) == [2, 3]
    assert sys.solve([1, 0]) is None
    assert sys.solve([0, 0]) == [0, 0]


def test_solve_columns_refuses_a_right_hand_side_of_another_height():
    # the row log indexes rows of B: a taller B read as unsolvable, a
    # shorter one raised IndexError
    sys = LinearSystem(IntMatrix.from_rows([[2, 0], [0, 3]]))
    for B in (IntMatrix.from_rows([[2], [3], [5]]), IntMatrix.from_rows([[2]])):
        with pytest.raises(DimensionMismatch):
            sys.solve_columns(B)


def _random_matrix(rng, m, n, lo=-3, hi=3):
    return IntMatrix(m, n, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def _in_image(A, v):
    """v in the image lattice of A: appending v keeps the rank and the
    product of the invariant factors (the index in the saturation)."""
    Av = IntMatrix.from_entries(A.rows, A.cols + 1, chain(
        A.entries(), ((i, A.cols, x) for i, x in enumerate(v) if x)))
    fa, fb = invariant_factors(A), invariant_factors(Av)
    return len(fa) == len(fb) and prod(fa) == prod(fb)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_solve_columns_is_columnwise_solve(seed):
    rng = random.Random(seed)
    m, n, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)
    A = _random_matrix(rng, m, n)
    # mix columns of the image with arbitrary ones
    B = IntMatrix.from_columns(
        [(A * _random_matrix(rng, n, 1)).col(0) if rng.random() < 0.6
         else [rng.randint(-4, 4) for _ in range(m)] for _ in range(k)], m)
    sys = LinearSystem(A)
    X = sys.solve_columns(B)
    cols = [sys.solve(B.col(j)) for j in range(k)]
    assert [c is not None for c in cols] == [_in_image(A, B.col(j)) for j in range(k)]
    if any(c is None for c in cols):
        assert X is None
    else:
        assert X == IntMatrix.from_columns(cols, n)
        assert A * X == B


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_coords_of_is_columnwise_coords(seed):
    rng = random.Random(seed)
    d_out, d_in = _random_composable_pair(rng, rng.randint(1, 5))
    (pres,) = ChainComplex([d_out, d_in], -1).presentations()
    k, cols = pres.n_generators, rng.randint(0, 4)
    # cycles with known classes: C on the generators plus boundaries
    C = _random_matrix(rng, k, cols, -5, 5)
    M = (IntMatrix.from_columns(pres.generators, pres.ambient) * C
         + d_in * _random_matrix(rng, d_in.cols, cols))
    got = pres.coords_of(M)
    assert got == IntMatrix.from_columns([pres.coords(M.col(j)) for j in range(cols)], k)
    assert got.data == [[v % d if d else v for v in row]
                        for row, d in zip(C.data, pres.orders)]
    hit = [j for j in range(d_out.cols) if any(d_out.col(j))]
    if hit:  # a unit vector that d_out does not kill is not a cycle
        with pytest.raises(LinAlgError):
            pres.coords_of(IntMatrix.from_entries(d_out.cols, 1, [(hit[0], 0, 1)]))


def _random_chain_list(rng, length):
    """ds[0], ..., ds[length - 1] with ds[k] * ds[k+1] = 0: each next
    differential is a random combination of kernel vectors of the last."""
    ds = [_random_matrix(rng, rng.randint(0, 4), rng.randint(1, 4))]
    for _ in range(length - 1):
        K = kernel_basis(ds[-1])
        ds.append(K * _random_matrix(rng, K.cols, rng.randint(0, 4), -2, 2))
    return ds


def _dense_product_is_zero(a, b):
    """a * b == 0, by a plain triple loop over the dense rows."""
    ra, rb = a.data, b.data
    return all(sum(x * rb[k][j] for k, x in enumerate(row)) == 0
               for row in ra for j in range(b.cols))


# -- the sparse product --------------------------------------------------


@st.composite
def _composable_operands(draw):
    """A composable pair a (m x k), b (k x n), any of m, k, n possibly 0,
    whose rows are empty, a single +-1, a single other value or random;
    half the time b is built from kernel vectors of a, so a * b = 0."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))

    def row(width):
        kind = draw(st.sampled_from(["empty", "unit", "single", "random"])) if width else "empty"
        out = [0] * width
        if kind == "random":
            out = [draw(st.integers(-2, 2)) for _ in range(width)]
        elif kind != "empty":
            out[draw(st.integers(0, width - 1))] = draw(
                st.sampled_from([1, -1] if kind == "unit" else [2, -2, 3, -7]))
        return out

    a = IntMatrix(m, k, [row(k) for _ in range(m)])
    if draw(st.booleans()):
        K = kernel_basis(a)
        return a, K * IntMatrix(K.cols, n, [row(n) for _ in range(K.cols)])
    return a, IntMatrix(k, n, [row(n) for _ in range(k)])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_composable_operands())
def test_product_matches_a_dense_reference(operands):
    a, b = operands
    ra, rb = a.data, b.data
    want = [[sum(x * rb[k][j] for k, x in enumerate(row)) for j in range(b.cols)] for row in ra]
    got = a * b
    assert got.shape == (a.rows, b.cols) and got.data == want
    assert all(v for _, _, v in got.entries())  # no stored zero
    assert got.is_zero() == (not any(map(any, want)))
    with pytest.raises(DimensionMismatch):
        a * IntMatrix.zeros(a.cols + 1, b.cols)


def _snapshot(*mats):
    return [(M.shape, list(M.entries())) for M in mats]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_operations_leave_their_operands_unchanged(seed):
    # a product shares the rows of its right factor that a unit row of its
    # left factor picks, and rows_at the rows it picks, so no operation may
    # write into a built matrix, whether it is an operand or a product
    rng = random.Random(seed)
    m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
    A = IntMatrix.from_entries(m, k, ((i, rng.randrange(k), rng.choice([1, 1, -1, 2]))
                                      for i in range(m) if k and rng.random() < 0.8))
    B, C, D = _random_matrix(rng, k, n), _random_matrix(rng, m, n), _random_matrix(rng, m, 3)
    before = _snapshot(A, B, C, D)
    AB = A * B
    product = _snapshot(AB)
    # every vector of Z^m is a cycle of the zero map out, with relations D
    (pres,) = ChainComplex([IntMatrix.zeros(0, m), D], -1).presentations()
    results = [AB + C, AB - C, C - AB, AB.transpose(), AB * AB.transpose(),
               AB.transpose() * AB, AB.rows_at([rng.randrange(m) for _ in range(4)] if m else []),
               AB.sum_columns([rng.randrange(2) for _ in range(n)], 2),
               LinearSystem(D).solve_columns(AB), LinearSystem(AB).solve_columns(C),
               pres.coords_of(AB)]
    assert len(results) == 11
    assert _snapshot(A, B, C, D) == before and _snapshot(AB) == product


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]))
def test_chain_complex_groups_presentations_and_uct(seed, step):
    rng = random.Random(seed)
    chain_ds = _random_chain_list(rng, rng.randint(3, 4))
    # a cochain complex lists the same maps from degree 0 upwards, and its
    # degree 0 is the kernel of the last one (nothing maps into it)
    cx = ChainComplex(chain_ds if step < 0 else chain_ds[::-1], step)
    if step > 0:
        chain_ds.append(IntMatrix.zeros(chain_ds[-1].cols, 0))
    groups = cx.groups()
    presentations = cx.presentations()
    assert len(groups) == len(chain_ds) - 1
    for n, h in enumerate(groups):
        # degree n is ker(chain_ds[i]) / im(chain_ds[i + 1])
        i = n if step < 0 else len(groups) - 1 - n
        d_out, d_in = chain_ds[i], chain_ds[i + 1]
        assert cx.d_out(n) == d_out
        assert presentations[n].group == h
        for p in (2, 3, 5):
            # H_n(C (x) F_p) = H_n (x) F_p + Tor(H_below, F_p), where the
            # p-torsion of H_below is that of coker(d_out): the number of
            # invariant factors of d_out divisible by p, rank over Q minus
            # rank over F_p
            dim = d_out.cols - modp_rank(d_out.data, p) - modp_rank(d_in.data, p)
            tensor = h.free_rank + sum(1 for t in h.torsion if t % p == 0)
            tor = rational_rank(d_out.data) - modp_rank(d_out.data, p)
            assert dim == tensor + tor
            if 0 <= n + step < len(groups):  # H_below is in the list too
                assert tor == sum(1 for t in groups[n + step].torsion if t % p == 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]))
def test_chain_complex_checks_every_pair_at_construction(seed, step):
    rng = random.Random(seed)
    chain_ds = _random_chain_list(rng, rng.randint(3, 4))
    k = rng.randint(1, len(chain_ds) - 1)
    a, b = chain_ds[k - 1], chain_ds[k]
    if rng.random() < 0.5:
        # one more row in b: b no longer composes with a
        bad = IntMatrix.from_entries(b.rows + 1, b.cols, b.entries())
        error = DimensionMismatch
    elif b.rows and b.cols:
        # a unit entry in a row of b whose column of a is nonzero: a * b
        # stops vanishing whenever a is nonzero
        i = next((i for i in range(a.cols) if any(a.col(i))), 0)
        bad = b + IntMatrix.from_entries(b.rows, b.cols, [(i, rng.randrange(b.cols), 1)])
        error = CompositionNonzero
    else:
        return
    chain_ds[k] = bad
    ds = chain_ds if step < 0 else chain_ds[::-1]
    pairs_ok = all(x.cols == y.rows and _dense_product_is_zero(x, y)
                   for x, y in zip(chain_ds, chain_ds[1:]))
    if pairs_ok:
        ChainComplex(ds, step)
    else:
        with pytest.raises(error) as info:
            ChainComplex(ds, step)
        if error is CompositionNonzero:
            # the first failing pair from the top (cochains) or from the
            # bottom (chains) is named by its degree
            i = next(i for i, (x, y) in enumerate(zip(chain_ds, chain_ds[1:]))
                     if not _dense_product_is_zero(x, y))
            n = i if step < 0 else len(chain_ds) - 1 - i
            assert info.value.degree == n
            assert str(info.value) == f"d_out * d_in != 0 at degree {n}"



@pytest.mark.parametrize("step", [-1, 1])
def test_an_empty_complex_has_no_degrees(step):
    # chains and cochains alike: no differential, so no group, no
    # presentation and no degree 0
    cx = ChainComplex([], step)
    assert cx.groups() == []
    assert cx.presentations() == []
    with pytest.raises(IndexError, match="degree 0 outside"):
        cx.d_out(0)


def _read_out(pres):
    """Everything a presentation reports, with the classes of its cycle
    basis and generators in its coordinates."""
    gens = IntMatrix.from_columns(pres.generators, pres.ambient)
    return (pres.group, pres.orders, pres.generators, pres.cycle_basis,
            pres.coords_of(pres.cycle_basis), pres.coords_of(gens))


def _chain_list_with_zeros(seed, zero_at):
    """A random chain list of 2 to 5 differentials, with ds[k] replaced by
    a zero matrix of its shape wherever zero_at[k] holds."""
    rng = random.Random(seed)
    return [IntMatrix.zeros(d.rows, d.cols) if zero else d
            for d, zero in zip(_random_chain_list(rng, rng.randint(2, 5)), zero_at)]


def _recording_pass(cx, record):
    """Run cx.presentations() with an engine that calls record(j, A, engine)
    before it factors A, j the position of A in cx._ds, or None for a
    matrix that is not one of the complex's differentials."""
    ds = cx._ds

    class Recording(zlinalg._Smith):
        def __init__(self, A):
            record(next((j for j, d in enumerate(ds) if d is A), None), A, self)
            super().__init__(A)

    with mock.patch.object(zlinalg, "_Smith", Recording):
        return cx.presentations()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]),
       zero_at=st.lists(st.booleans(), min_size=5, max_size=5))
def test_presentations_share_one_engine_per_differential(seed, step, zero_at):
    # zero differentials at either end and in the middle: each one makes
    # the differential above it a relation matrix read off the shared engine
    chain_ds = _chain_list_with_zeros(seed, zero_at)
    ds = chain_ds if step < 0 else chain_ds[::-1]
    if step > 0:
        chain_ds.append(IntMatrix.zeros(chain_ds[-1].cols, 0))
    cx = ChainComplex(ds, step)
    top = len(chain_ds) - 2
    groups = cx.groups()
    built = []
    with mock.patch.object(zlinalg, "_Smith", recording_engine(built)):
        first = cx.presentations()
    fresh = ChainComplex(ds, step).presentations()
    second = cx.presentations()
    assert len(first) == len(fresh) == len(second) == top + 1
    for n, (pres, h) in enumerate(zip(first, groups)):
        i = n if step < 0 else top - n
        d_out, d_in = chain_ds[i], chain_ds[i + 1]
        assert pres.group == h
        # generators are cycles with unit coordinates; boundaries are 0
        for j, gen in enumerate(pres.generators):
            assert not any(d_out.apply(gen))
            assert pres.coords(gen) == [int(k == j) % d if d else int(k == j)
                                        for k, d in enumerate(pres.orders)]
        assert pres.coords_of(d_in).is_zero()
        for p in (2, 3, 5):
            dim = d_out.cols - modp_rank(d_out.data, p) - modp_rank(d_in.data, p)
            tor = rational_rank(d_out.data) - modp_rank(d_out.data, p)
            assert dim == h.free_rank + sum(1 for t in h.torsion if t % p == 0) + tor
        # a fresh complex, a second pass, and engines of the presentation's
        # own all give the same read-out
        own = zlinalg.ChainHomologyPresentation(d_out, d_in, zlinalg._Smith(d_out),
                                                zlinalg._Smith(d_in))
        want = _read_out(pres)
        assert _read_out(fresh[n]) == want
        assert _read_out(second[n]) == want
        assert _read_out(own) == want
    # every read-out above replays a log the presentation keeps; the pass's
    # engines ran V * d_in for the relation matrices and nothing else
    assert all(eng.reads <= {"v_times"} for eng in built)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]),
       zero_at=st.lists(st.booleans(), min_size=5, max_size=5))
def test_one_pass_factors_each_differential_at_most_once(seed, step, zero_at):
    chain_ds = _chain_list_with_zeros(seed, zero_at)
    cx = ChainComplex(chain_ds if step < 0 else chain_ds[::-1], step)
    built = []
    _recording_pass(cx, lambda j, A, _: built.append((j,) + A.shape))
    factored = [j for j, _, _ in built if j is not None]
    assert len(factored) == len(set(factored))
    # every other engine factors the relation matrix of a nonzero d_out:
    # the kernel coordinates (d_out.cols - rank rows) of d_in's columns
    ds = cx._ds
    assert (sorted((m, n) for j, m, n in built if j is None)
            == sorted((d_out.cols - rank(d_out), d_in.cols)
                      for d_out, d_in in zip(ds, ds[1:]) if not d_out.is_zero()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]),
       zero_at=st.lists(st.booleans(), min_size=5, max_size=5))
def test_one_pass_keeps_no_engine_alive_while_it_factors_the_next(seed, step, zero_at):
    # a differential is handed over as the next d_out when the one before
    # it in the pass is zero, whose engine then stays alive beside it; every
    # other differential the pass factors starts with no engine of the
    # complex alive
    chain_ds = _chain_list_with_zeros(seed, zero_at)
    cx = ChainComplex(chain_ds if step < 0 else chain_ds[::-1], step)
    ds, refs, alive = cx._ds, [], []

    def record(j, _, eng):
        if j is not None and not (j and ds[j - 1].is_zero()):
            alive.append([k for k, ref in enumerate(refs) if ref() is not None])
        refs.append(weakref.ref(eng))

    _recording_pass(cx, record)
    assert alive and all(a == [] for a in alive)


# the read-outs a presentation runs on first read and keeps
_LAZY_READOUTS = ("_coord_rows", "generator_matrix", "generators", "cycle_basis")


def _engine_presentation(d_out, d_in):
    """The cycle basis and generators of ker(d_out)/im(d_in), and a
    function giving canonical coordinates of ambient cycles, all from the
    factors of fresh engines (`engine_factors`): V^-1[:, r:], then
    V^-1[:, r:] * U[:, canon] and rows canon of U^-1 for the relation
    matrix V[r:] * d_in."""
    f = engine_factors(zlinalg._Smith(d_out))
    n, r = d_out.cols, f.rank
    basis = IntMatrix.from_columns(f.V_inv.column_list()[r:], n)
    g = engine_factors(zlinalg._Smith((f.V * d_in).rows_at(range(r, n))))
    diag = g.diagonal()
    canon = list(range(len(diag), n - r)) + [i for i, d in enumerate(diag) if d >= 2]
    orders = [0] * (n - r - len(diag)) + [d for d in diag if d >= 2]
    gens = basis * IntMatrix.from_columns([g.U.col(c) for c in canon], n - r)

    def coords(M):
        z = g.U_inv.rows_at(canon) * (f.V * M).rows_at(range(r, n))
        return IntMatrix.from_rows([[v % d if d else v for v in row]
                                    for row, d in zip(z.data, orders)], M.cols)
    return basis, gens, coords


def _engine_solve(A, B):
    """Some X with A * X = B, or None, from the factors of a fresh engine:
    X = V^-1 * (U^-1 * B / d, stacked on zero rows)."""
    f = engine_factors(zlinalg._Smith(A))
    W, diag = (f.U_inv * B).data, f.diagonal()
    if any(map(any, W[len(diag):])) or any(w % d for row, d in zip(W, diag) for w in row):
        return None
    Y = [[w // d for w in row] for row, d in zip(W, diag)]
    return f.V_inv * IntMatrix.from_rows(Y + [[0] * B.cols] * (A.cols - len(diag)), B.cols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]),
       zero_at=st.lists(st.booleans(), min_size=5, max_size=5))
def test_read_outs_on_demand_equal_a_fresh_engines(seed, step, zero_at):
    # zero differentials (rank 0) and differentials with no columns (the
    # cochains' zero map into C^0, and random ones) included; each read-out
    # is read in a random order, twice
    chain_ds = _chain_list_with_zeros(seed, zero_at)
    ds = chain_ds if step < 0 else chain_ds[::-1]
    if step > 0:
        chain_ds.append(IntMatrix.zeros(chain_ds[-1].cols, 0))
    top = len(chain_ds) - 2
    rng = random.Random(seed)
    for n, pres in enumerate(ChainComplex(ds, step).presentations()):
        i = n if step < 0 else top - n
        d_out, d_in = chain_ds[i], chain_ds[i + 1]
        basis, gens, coords = _engine_presentation(d_out, d_in)
        cycles = basis * _random_matrix(rng, basis.cols, 3)
        reads = {"cycle_basis": (lambda: pres.cycle_basis, basis),
                 "generator_matrix": (lambda: pres.generator_matrix, gens),
                 "generators": (lambda: pres.generators, gens.column_list()),
                 "coords of cycles": (lambda: pres.coords_of(cycles), coords(cycles)),
                 "coords of generators": (lambda: pres.coords_of(gens), coords(gens))}
        for name in rng.sample(sorted(reads), len(reads)) * 2:
            read, want = reads[name]
            assert read() == want, name
        hit = [i for i in range(d_out.cols) if any(d_out.col(i))]
        if hit:
            with pytest.raises(LinAlgError, match="not a cycle"):
                pres.coords_of(IntMatrix.from_entries(d_out.cols, 1, [(hit[0], 0, 1)]))
    for A in chain_ds:
        sys = LinearSystem(A)
        for B in (A * _random_matrix(rng, A.cols, 3), _random_matrix(rng, A.rows, 2),
                  IntMatrix.zeros(A.rows, 0)):
            assert sys.solve_columns(B) == _engine_solve(A, B)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), step=st.sampled_from([-1, 1]),
       zero_at=st.lists(st.booleans(), min_size=5, max_size=5))
def test_presentations_read_no_transform_until_asked(seed, step, zero_at):
    # building the presentations and reading their groups replays no log
    # on identity vectors; the one read-out of an engine is V * d_in, the
    # relation matrix of a nonzero d_out, and only when d_in has columns.
    # Building a linear system reads nothing
    chain_ds = _chain_list_with_zeros(seed, zero_at)
    cx = ChainComplex(chain_ds if step < 0 else chain_ds[::-1], step)
    built = []
    with mock.patch.object(zlinalg, "_Smith", recording_engine(built)):
        pres = cx.presentations()
        assert [p.group for p in pres] == cx.groups()
        systems = [LinearSystem(d) for d in chain_ds]
    assert not any(vars(p).keys() & set(_LAZY_READOUTS) for p in pres)
    ds = cx._ds
    relations = [d_out for d_out, d_in in zip(ds, ds[1:]) if not d_out.is_zero() and d_in.cols]
    engines = built[:len(built) - len(systems)]
    assert sorted(eng.n for eng in engines if eng.reads) == sorted(d.cols for d in relations)
    assert all(eng.reads <= {"v_times"} for eng in engines)
    assert not any(eng.reads for eng in built[len(engines):])


def _unimodular(rng, k):
    """A random permutation of the rows of a unit lower triangular matrix."""
    rows = [[1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(k)]
            for i in range(k)]
    rng.shuffle(rows)
    return IntMatrix(k, k, rows)


def _prepass_matrix(kind, rng):
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    if kind == "no-units":
        A = IntMatrix(m, n, [[rng.choice([0, 0, 2, -2, 3, -3, 4, 6]) for _ in range(n)]
                             for _ in range(m)])
    elif kind == "sparse":
        A = IntMatrix(m, n, [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)]
                             for _ in range(m)])
    else:
        # P * L * D * R * Q with the units of D first: each unit pivot
        # leaves the next one in its Schur complement, so they cascade
        diag = sorted((rng.choice([1, 1, -1, 2, 3, 6, 0]) for _ in range(min(m, n))),
                      key=lambda d: abs(d) != 1)
        D = IntMatrix.from_entries(m, n, ((i, i, d) for i, d in enumerate(diag)))
        A = _unimodular(rng, m) * D * _unimodular(rng, n).transpose()
    # zero some rows and columns
    dead_rows = {i for i in range(m) if rng.random() < 0.1}
    dead_cols = {j for j in range(n) if rng.random() < 0.1}
    return IntMatrix.from_entries(m, n, ((i, j, v) for i, j, v in A.entries()
                                         if i not in dead_rows and j not in dead_cols))


@pytest.mark.parametrize("kind", ["no-units", "sparse", "unimodular-products"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_unit_prepass_matches_exact_engine_and_oracles(kind, seed):
    A = _prepass_matrix(kind, random.Random(seed))
    facs = invariant_factors(A)
    assert facs == zlinalg._Smith(A).diagonal()
    assert rank(A) == len(facs) == rational_rank(A.data)
    for p in (2, 3, 5):
        assert sum(1 for f in facs if f % p) == modp_rank(A.data, p)


# -- the left transform as a row-operation log -------------------------------


def _cycle_boundary(n, rng=None):
    """id - P for the n-cycle i -> i + 1 mod n, its points relabelled by rng."""
    label = list(range(n))
    if rng is not None:
        rng.shuffle(label)
    return IntMatrix.identity(n) - IntMatrix.from_entries(
        n, n, ((label[(i + 1) % n], label[i], 1) for i in range(n)))


def _torsion_form(rng, m, n):
    """X * D * Y with X, Y unimodular and D a Smith form with torsion."""
    diag = sorted(rng.choice([1, 2, 2, 3, 4, 6, 12, 0]) for _ in range(min(m, n)))
    diag = [d for d in diag if d] + [0] * diag.count(0)
    D = IntMatrix.from_entries(m, n, ((i, i, d) for i, d in enumerate(diag)))
    return _unimodular(rng, m) * D * _unimodular(rng, n).transpose()


def _log_cases():
    rng = random.Random(20261019)
    cases = [(f"random-{k}", _random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7)))
             for k in range(12)]
    cases += [(f"sparse-{k}", _prepass_matrix("sparse", rng)) for k in range(8)]
    cases += [(f"cycle-{n}", _cycle_boundary(n)) for n in (1, 2, 3, 8, 27, 64)]
    cases += [(f"cycle-{n}-relabelled", _cycle_boundary(n, rng)) for n in (5, 16, 40)]
    cases += [(f"torsion-{k}", _torsion_form(rng, rng.randint(1, 6), rng.randint(1, 6)))
              for k in range(10)]
    return cases


LOG_CASES = [pytest.param(A, id=name) for name, A in _log_cases()]


@pytest.mark.parametrize("A", LOG_CASES)
def test_log_rows_equal_the_log_replayed_on_the_identity(A):
    eng = zlinalg._Smith(A)
    full = eng.uinv_times(IntMatrix.identity(A.rows)).data
    rng = random.Random(A.rows * 31 + A.cols)
    picks = [list(range(A.rows)), list(range(A.rows))[::-1],
             rng.sample(range(A.rows), rng.randint(0, A.rows))]
    for which in picks:
        assert (zlinalg._uinv_rows(eng.row_ops, eng.m, which)
                == IntMatrix.from_rows([full[i] for i in which], A.rows))


@pytest.mark.parametrize("A", LOG_CASES)
def test_log_inverts_u_and_carries_a_to_the_smith_form(A):
    f = engine_factors(zlinalg._Smith(A))
    assert f.U_inv * f.U == IntMatrix.identity(A.rows)
    assert f.U * f.U_inv == IntMatrix.identity(A.rows)
    assert f.U_inv * A * f.V_inv == f.S
    d = snf(A)
    assert d.U_inv == f.U_inv and d.U_inv * d.U == IntMatrix.identity(A.rows)
    # an engine on which only U is read gives the same U
    assert engine_factors(zlinalg._Smith(A)).U == f.U


# every read-out of the engine; the ones that take an argument get it
# from the case
_READOUTS = ("U cols", "Vinv cols", "diagonal", "kernel", "Uinv rows", "Uinv * B", "V * M")


def _readout(eng, name, which, B, M):
    return {"U cols": eng.u_cols, "Vinv cols": eng.vinv_cols, "diagonal": eng.diagonal,
            "kernel": eng.kernel_matrix,
            "Uinv rows": lambda: zlinalg._uinv_rows(eng.row_ops, eng.m, which),
            "Uinv * B": lambda: eng.uinv_times(B), "V * M": lambda: eng.v_times(M)}[name]()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.permutations(_READOUTS))
def test_read_outs_in_any_order_equal_a_fresh_engines(seed, order):
    rng = random.Random(seed)
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    A = rng.choice([_random_matrix(rng, m, n), _prepass_matrix("sparse", rng),
                    _torsion_form(rng, m + 1, n + 1)])
    which = rng.sample(range(A.rows), rng.randint(0, A.rows))
    B, M = _random_matrix(rng, A.rows, 3), _random_matrix(rng, A.cols, 3)
    eng = zlinalg._Smith(A)
    for name in order + order:
        assert (_readout(eng, name, which, B, M)
                == _readout(zlinalg._Smith(A), name, which, B, M)), name
    f = engine_factors(eng)
    assert f.U * f.U_inv == IntMatrix.identity(A.rows)
    assert f.V_inv * f.V == IntMatrix.identity(A.cols)
    assert f.U_inv * A * f.V_inv == f.S
    assert f.U * f.S * f.V == A
    assert eng.uinv_times(B) == f.U_inv * B and eng.v_times(M) == f.V * M
    assert zlinalg._uinv_rows(eng.row_ops, eng.m, which) == f.U_inv.rows_at(which)


@pytest.mark.parametrize("A", LOG_CASES)
def test_solve_columns_through_the_log_is_exact(A):
    rng = random.Random(A.rows * 17 + A.cols)
    B = IntMatrix.from_columns(
        [(A * _random_matrix(rng, A.cols, 1)).col(0) if rng.random() < 0.5
         else [rng.randint(-4, 4) for _ in range(A.rows)] for _ in range(5)], A.rows)
    sys = LinearSystem(A)
    for j in range(B.cols):
        col = IntMatrix.from_columns([B.col(j)], A.rows)
        x = sys.solve_columns(col)
        assert (x is not None) == _in_image(A, B.col(j))
        if x is not None:
            assert A * x == col
    X = sys.solve_columns(B)
    if all(_in_image(A, B.col(j)) for j in range(B.cols)):
        assert X is not None and A * X == B
    else:
        assert X is None


# orders of canonical generators, 0 for a free one
_GENERATOR_ORDERS = st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 8, 9, 12]), max_size=4)


def _well_defined_map(rng, source_orders, target_orders):
    """A map in canonical coordinates sending each source relation s_j e_j
    into the target relations: entry (i, j) is any integer when s_j = 0,
    zero when s_j != 0 = t_i, else a multiple of t_i / gcd(t_i, s_j)."""
    return IntMatrix(len(target_orders), len(source_orders), [
        [rng.randint(-9, 9) * (1 if not s else t // gcd(t, s)) for s in source_orders]
        for t in target_orders])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source=_GENERATOR_ORDERS, target=_GENERATOR_ORDERS, seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_group_agrees_with_the_lattice_route(source, target, seed):
    M = _well_defined_map(random.Random(seed), source, target)
    assert kernel_group(M, source, target) == lattice_kernel_group(M, source, target)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(source=_GENERATOR_ORDERS, target=_GENERATOR_ORDERS, seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_group_refuses_a_map_that_does_not_lift(source, target, seed):
    # adding 1 at (i, j) moves s_j e_j by s_j e_i, outside the target
    # relations unless t_i divides s_j
    rng = random.Random(seed)
    M = _well_defined_map(rng, source, target)
    off = [(i, j) for i, t in enumerate(target) for j, s in enumerate(source)
           if s and (not t or s % t)]
    assume(off)
    i, j = rng.choice(off)
    M = M + IntMatrix.from_entries(M.rows, M.cols, [(i, j, 1)])
    with pytest.raises(LinAlgError):
        kernel_group(M, source, target)


def test_kernel_group_refuses_an_ill_defined_map_with_a_zero_preimage():
    # Z/2 -> Z^2 sends the relation 2 e_0 to (-6, -2) != 0; the preimage of
    # the target relations is 0, and the lattice route returns 0 unchecked
    M = IntMatrix.from_rows([[-3], [-1]])
    assert lattice_kernel_group(M, [2], [0, 0]) == FgAbGroup.trivial()
    with pytest.raises(LinAlgError):
        kernel_group(M, [2], [0, 0])
