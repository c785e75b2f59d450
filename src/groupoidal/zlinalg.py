"""Exact integer linear algebra.

Smith normal form with unimodular transforms, integer kernels, solving
A*x = v over the integers, and the homology ker(d_out)/im(d_in) of a
composable pair of integer matrices, reported as a finitely generated
abelian group in invariant-factor normal form.

Everything runs on Python ints, so intermediate entries may grow without
overflow.  Matrices are stored densely; the elimination engine works on a
sparse copy and keeps transform matrices sparse until they are read out,
which is what makes the large-but-very-sparse boundary matrices cheap.

Pivot rule: step t of the elimination takes the nonzero of the active block
(rows and columns >= t) with the least key (|v|, Markowitz cost, row,
column), the Markowitz cost being (row length - 1) * (column length - 1).
The engine finds it with a lazily updated heap of per-column best keys
instead of rescanning every nonzero.  The order is kept exact, not just
good: U, V, kernel bases, homology generators and divisibility witnesses
are part of the program's output, and all of them follow the pivot order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence


class LinAlgError(Exception):
    """Base class for exact-linear-algebra failures."""


class DimensionMismatch(LinAlgError):
    pass


class CompositionNonzero(LinAlgError):
    """d_out * d_in is not the zero matrix."""


class BadModulus(LinAlgError):
    pass


class IntMatrix:
    """Dense matrix of Python ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[list] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise DimensionMismatch("data shape does not match (rows, cols)")
            self.data = [list(r) for r in data]

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = len(data)
        if rows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols)
        width = len(data[0])
        return cls(rows, width, [list(r) for r in data])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        """Matrix with columns cols, each of length `rows`."""
        out = cls(rows, len(cols))
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise DimensionMismatch(f"column {j} has length {len(col)}, want {rows}")
            for i, v in enumerate(col):
                if v:
                    out.data[i][j] = v
        return out

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def transpose(self) -> "IntMatrix":
        t = IntMatrix(self.cols, self.rows)
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if v:
                    t.data[j][i] = v
        return t

    def col(self, j: int) -> list:
        return [row[j] for row in self.data]

    def column_list(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} vs {other.shape}")
        return IntMatrix(self.rows, self.cols,
                         [[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [[c * v for v in r] for r in self.data])

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"mul {self.shape} by {other.shape}")
        out = IntMatrix(self.rows, other.cols)
        odata = out.data
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = odata[i]
            for k, a in enumerate(arow):
                if a:
                    brow = bdata[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return out

    def apply(self, vec: Sequence[int]) -> list:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"apply {self.shape} to vector of length {len(vec)}")
        out = [0] * self.rows
        for i, row in enumerate(self.data):
            s = 0
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out[i] = s
        return out

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.data})"
        return f"IntMatrix({self.rows}x{self.cols})"


def _round_div(a: int, b: int) -> int:
    """Integer nearest to a/b; remainder magnitude is at most |b|/2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


class _Smith:
    """Sparse Smith normal form engine.

    Maintains A = U * S * V while S is reduced in place; only the transform
    factors named in `need` ("U", "Uinv", "V", "Vinv") are tracked.  U and
    Vinv are kept column-major, Uinv and V row-major, so kernels and solves
    read straight out of the sparse dictionaries.

    Pivot rule: step t takes the least key (|v|, (len(row) - 1) *
    (len(col) - 1), i, j) over the nonzeros v = S[i][j] with i, j >= t.
    `_best[j]` caches the least key of column j and `_heap` holds every
    cached key, plus stale ones that are dropped when they surface.
    Invariant: `_best[j]` is exact for every column >= t not in `_dirty`.
    A column's key depends on its entries, its length and the lengths and
    indices of its rows, so each elementary operation marks the columns
    whose keys it can change: a row add the columns of the target row
    before the add and of the source row, a row swap the columns of both
    rows, a column add the target column and every column of each row
    whose length changed, a column swap both columns.  The pivots are
    exactly those of a full scan (`tests/oracles.py` keeps one), because
    the transforms, kernel bases, generators and witness vectors read out
    of the engine are part of the output and depend on the order.
    """

    def __init__(self, A: IntMatrix, need: Iterable[str] = ()):
        self.m, self.n = A.rows, A.cols
        self.rows = [dict() for _ in range(self.m)]
        self.colidx = [set() for _ in range(self.n)]
        for i, row in enumerate(A.data):
            ri = self.rows[i]
            for j, v in enumerate(row):
                if v:
                    ri[j] = v
                    self.colidx[j].add(i)
        need = set(need)
        self.U_cols = [{i: 1} for i in range(self.m)] if "U" in need else None
        self.Uinv_rows = [{i: 1} for i in range(self.m)] if "Uinv" in need else None
        self.V_rows = [{j: 1} for j in range(self.n)] if "V" in need else None
        self.Vinv_cols = [{j: 1} for j in range(self.n)] if "Vinv" in need else None
        self.rank = 0
        self._best = [None] * self.n
        self._heap = []
        self._dirty = set(range(self.n))
        self._reduce()

    # -- elementary operations; each keeps A = U S V true ------------------

    @staticmethod
    def _sparse_add(target: dict, source: dict, q: int):
        for k, v in source.items():
            new = target.get(k, 0) + q * v
            if new:
                target[k] = new
            else:
                target.pop(k, None)

    def _row_add(self, i: int, j: int, q: int):
        # S: row_i += q * row_j
        ri, rj = self.rows[i], self.rows[j]
        self._dirty.update(ri)
        self._dirty.update(rj)
        for col, v in rj.items():
            new = ri.get(col, 0) + q * v
            if new:
                ri[col] = new
                self.colidx[col].add(i)
            else:
                ri.pop(col, None)
                self.colidx[col].discard(i)
        if self.U_cols is not None:  # U: col_j -= q * col_i
            self._sparse_add(self.U_cols[j], self.U_cols[i], -q)
        if self.Uinv_rows is not None:  # Uinv: row_i += q * row_j
            self._sparse_add(self.Uinv_rows[i], self.Uinv_rows[j], q)

    def _row_swap(self, i: int, j: int):
        if i == j:
            return
        cols = self.rows[i].keys() | self.rows[j].keys()
        self._dirty |= cols
        for col in cols:
            s = self.colidx[col]
            has_i, has_j = i in s, j in s
            if has_i != has_j:
                if has_i:
                    s.discard(i)
                    s.add(j)
                else:
                    s.discard(j)
                    s.add(i)
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]
        if self.U_cols is not None:
            self.U_cols[i], self.U_cols[j] = self.U_cols[j], self.U_cols[i]
        if self.Uinv_rows is not None:
            self.Uinv_rows[i], self.Uinv_rows[j] = self.Uinv_rows[j], self.Uinv_rows[i]

    def _row_neg(self, i: int):
        self.rows[i] = {k: -v for k, v in self.rows[i].items()}
        if self.U_cols is not None:
            self.U_cols[i] = {k: -v for k, v in self.U_cols[i].items()}
        if self.Uinv_rows is not None:
            self.Uinv_rows[i] = {k: -v for k, v in self.Uinv_rows[i].items()}

    def _col_add(self, j: int, k: int, q: int):
        # S: col_j += q * col_k
        dirty, colj = self._dirty, self.colidx[j]
        dirty.add(j)
        for i in list(self.colidx[k]):
            ri = self.rows[i]
            old = ri.get(j)
            new = q * ri[k] + (old or 0)
            if new:
                ri[j] = new
                if old is None:
                    colj.add(i)
                    dirty.update(ri)
            elif old is not None:
                del ri[j]
                colj.discard(i)
                dirty.update(ri)
        if self.V_rows is not None:  # V: row_k -= q * row_j
            self._sparse_add(self.V_rows[k], self.V_rows[j], -q)
        if self.Vinv_cols is not None:  # Vinv: col_j += q * col_k
            self._sparse_add(self.Vinv_cols[j], self.Vinv_cols[k], q)

    def _col_swap(self, j: int, k: int):
        if j == k:
            return
        self._dirty.update((j, k))
        for i in self.colidx[j] | self.colidx[k]:
            ri = self.rows[i]
            vj, vk = ri.pop(j, None), ri.pop(k, None)
            if vk is not None:
                ri[j] = vk
            if vj is not None:
                ri[k] = vj
        self.colidx[j], self.colidx[k] = self.colidx[k], self.colidx[j]
        if self.V_rows is not None:
            self.V_rows[j], self.V_rows[k] = self.V_rows[k], self.V_rows[j]
        if self.Vinv_cols is not None:
            self.Vinv_cols[j], self.Vinv_cols[k] = self.Vinv_cols[k], self.Vinv_cols[j]

    # -- reduction ---------------------------------------------------------

    def _select_pivot(self, t: int):
        rows, best, heap = self.rows, self._best, self._heap
        for j in self._dirty:
            if j < t:
                continue
            cidx = self.colidx[j]
            cost = len(cidx) - 1
            key = None
            for i in cidx:
                if i >= t:
                    row = rows[i]
                    k = (abs(row[j]), (len(row) - 1) * cost, i, j)
                    if key is None or k < key:
                        key = k
            best[j] = key
            if key is not None:
                heapq.heappush(heap, key)
        self._dirty.clear()
        # rebuild from the live keys once stale ones could outnumber them
        if len(heap) > 2 * (self.n - t) + 16:
            heap[:] = [key for key in best[t:] if key is not None]
            heapq.heapify(heap)
        while heap:
            key = heap[0]
            j = key[3]
            if j >= t and best[j] == key:
                return key[2], j
            heapq.heappop(heap)
        return None

    def _clean_pivot(self, t: int):
        while True:
            pivot = self.rows[t][t]
            # clear column t with row operations
            dirty = False
            for i in sorted(self.colidx[t]):
                if i == t:
                    continue
                v = self.rows[i].get(t, 0)
                if not v:
                    continue
                q = _round_div(v, pivot)
                if q:
                    self._row_add(i, t, -q)
                if self.rows[i].get(t, 0):
                    # remainder is a strictly smaller pivot candidate
                    self._row_swap(i, t)
                    dirty = True
                    break
            if dirty:
                continue
            # clear row t with column operations (cannot refill column t)
            pivot = self.rows[t][t]
            for j in sorted(self.rows[t]):
                if j == t:
                    continue
                v = self.rows[t].get(j, 0)
                if not v:
                    continue
                q = _round_div(v, pivot)
                if q:
                    self._col_add(j, t, -q)
                if self.rows[t].get(j, 0):
                    self._col_swap(j, t)
                    dirty = True
                    break
            if dirty:
                continue
            if len(self.colidx[t]) == 1 and len(self.rows[t]) == 1:
                return

    def _reduce(self):
        t = 0
        bound = min(self.m, self.n)
        while t < bound:
            found = self._select_pivot(t)
            if found is None:
                break
            i, j = found
            self._row_swap(i, t)
            self._col_swap(j, t)
            self._clean_pivot(t)
            t += 1
        self.rank = t
        for i in range(t):
            if self.rows[i][i] < 0:
                self._row_neg(i)
        self._fix_divisibility()

    def _fix_divisibility(self):
        r = self.rank
        while True:
            fixed = False
            for i in range(r - 1):
                a = self.rows[i][i]
                b = self.rows[i + 1][i + 1]
                if b % a == 0:
                    continue
                # fold the pair (a, b) into (gcd, lcm) with unimodular moves
                self._col_add(i, i + 1, 1)
                while True:
                    a = self.rows[i][i]
                    c = self.rows[i + 1].get(i, 0)
                    if not c:
                        break
                    q = _round_div(c, a)
                    if q:
                        self._row_add(i + 1, i, -q)
                    if self.rows[i + 1].get(i, 0):
                        self._row_swap(i, i + 1)
                g = self.rows[i][i]
                u = self.rows[i].get(i + 1, 0)
                if u:
                    self._col_add(i + 1, i, -(u // g))
                if self.rows[i][i] < 0:
                    self._row_neg(i)
                if self.rows[i + 1][i + 1] < 0:
                    self._row_neg(i + 1)
                fixed = True
            if not fixed:
                return

    # -- read-out ----------------------------------------------------------

    def diagonal(self) -> list:
        return [self.rows[i][i] for i in range(self.rank)]

    def s_matrix(self) -> IntMatrix:
        S = IntMatrix(self.m, self.n)
        for i in range(self.rank):
            S.data[i][i] = self.rows[i][i]
        return S

    def u_matrix(self) -> IntMatrix:
        U = IntMatrix(self.m, self.m)
        for c, coldict in enumerate(self.U_cols):
            for r, v in coldict.items():
                U.data[r][c] = v
        return U

    def uinv_matrix(self) -> IntMatrix:
        M = IntMatrix(self.m, self.m)
        for r, rowdict in enumerate(self.Uinv_rows):
            for c, v in rowdict.items():
                M.data[r][c] = v
        return M

    def v_matrix(self) -> IntMatrix:
        V = IntMatrix(self.n, self.n)
        for r, rowdict in enumerate(self.V_rows):
            for c, v in rowdict.items():
                V.data[r][c] = v
        return V

    def vinv_matrix(self) -> IntMatrix:
        M = IntMatrix(self.n, self.n)
        for c, coldict in enumerate(self.Vinv_cols):
            for r, v in coldict.items():
                M.data[r][c] = v
        return M


@dataclass(frozen=True)
class SnfDecomposition:
    """A = U * S * V with U, V unimodular and S in Smith normal form."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(self.S.rows, self.S.cols)) if self.S.data[i][i])

    def diagonal(self) -> list:
        return [self.S.data[i][i] for i in range(self.rank)]


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form A = U*S*V; S nonnegative diagonal, d_i | d_{i+1}."""
    eng = _Smith(A, need=("U", "Uinv", "V", "Vinv"))
    return SnfDecomposition(eng.u_matrix(), eng.s_matrix(), eng.v_matrix(),
                            eng.uinv_matrix(), eng.vinv_matrix())


def rank(A: IntMatrix) -> int:
    return _Smith(A).rank


def invariant_factors(A: IntMatrix) -> list:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    return _Smith(A).diagonal()


def _dense(entries: dict, n: int) -> list:
    """Length-n vector from a sparse {index: value} column or row."""
    out = [0] * n
    for i, v in entries.items():
        out[i] = v
    return out


def _unit(n: int, i: int, d: int) -> list:
    """d times the i-th standard basis vector of Z^n."""
    out = [0] * n
    out[i] = d
    return out


def _normalize_column_sign(col: list) -> list:
    for v in col:
        if v:
            return col if v > 0 else [-x for x in col]
    return col


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel lattice, as matrix columns."""
    eng = _Smith(A, need=("Vinv",))
    return IntMatrix.from_columns(
        [_normalize_column_sign(_dense(eng.Vinv_cols[j], eng.n))
         for j in range(eng.rank, eng.n)], eng.n)


def image_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the image lattice of A (not saturated), as matrix columns.

    With A = U*S*V the image is spanned by the columns U[:, j] * d_j for
    j < rank, read straight off the factorization.  The pivot order does
    not depend on which transforms are tracked, so these are the first
    rank columns of snf(A).U * snf(A).S.
    """
    eng = _Smith(A, need=("U",))
    return IntMatrix.from_columns(
        [[d * v for v in _dense(eng.U_cols[j], eng.m)]
         for j, d in enumerate(eng.diagonal())], eng.m)


class LinearSystem:
    """Factorization of A reusable for many exact solves of A*x = v."""

    def __init__(self, A: IntMatrix):
        self.A = A
        self._eng = _Smith(A, need=("Uinv", "Vinv"))

    @property
    def rank(self) -> int:
        return self._eng.rank

    def solve(self, v: Sequence[int]) -> Optional[list]:
        eng = self._eng
        if len(v) != eng.m:
            raise DimensionMismatch(f"solve: vector length {len(v)} vs {eng.m} rows")
        w = [0] * eng.m
        for i, rowdict in enumerate(eng.Uinv_rows):
            s = 0
            for j, c in rowdict.items():
                if v[j]:
                    s += c * v[j]
            w[i] = s
        y = [0] * eng.n
        for i in range(eng.rank):
            d = eng.rows[i][i]
            q, rem = divmod(w[i], d)
            if rem:
                return None
            y[i] = q
        for i in range(eng.rank, eng.m):
            if w[i]:
                return None
        x = [0] * eng.n
        for i in range(eng.rank):
            if y[i]:
                for r, c in eng.Vinv_cols[i].items():
                    x[r] += y[i] * c
        return x


def solve_in_image(A: IntMatrix, v: Sequence[int]) -> Optional[list]:
    """Some x with A*x = v, or None when v is not in the image lattice."""
    return LinearSystem(A).solve(v)


def image_contains(A: IntMatrix, B: IntMatrix) -> bool:
    """Whether every column of B lies in the image lattice of A."""
    if B.cols == 0:
        return True
    sys = LinearSystem(A)
    return all(sys.solve(col) is not None for col in B.column_list())


def det(A: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = [row[:] for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# -- finitely generated abelian groups -------------------------------------


def _factorint(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FgAbGroup:
    """Isomorphism type of a finitely generated abelian group.

    `torsion` is the invariant-factor chain t_1 | t_2 | ... with each
    t_i >= 2, so equality of groups is equality of fields.
    """

    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        prev = 1
        for t in self.torsion:
            if t < 2:
                raise ValueError("invariant factors must be >= 2")
            if t % prev:
                raise ValueError(f"invariant factors {self.torsion} violate divisibility")
            prev = t

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, r: int) -> "FgAbGroup":
        return cls(r, ())

    @classmethod
    def cyclic(cls, m: int) -> "FgAbGroup":
        if m == 0:
            return cls(1, ())
        return cls.from_orders([m])

    @classmethod
    def from_invariant_factors(cls, factors: Iterable[int], free_rank: int = 0) -> "FgAbGroup":
        fac = [f for f in factors if f != 1]
        zero = sum(1 for f in fac if f == 0)
        return cls(free_rank + zero, tuple(sorted(f for f in fac if f)))

    @classmethod
    def from_orders(cls, orders: Iterable[int], free_rank: int = 0) -> "FgAbGroup":
        """Normalize arbitrary cyclic orders into an invariant-factor chain."""
        by_prime = {}
        rank = free_rank
        for m in orders:
            m = abs(int(m))
            if m == 0:
                rank += 1
                continue
            if m == 1:
                continue
            for p, e in _factorint(m).items():
                by_prime.setdefault(p, []).append(e)
        width = max((len(v) for v in by_prime.values()), default=0)
        factors = []
        for k in range(width):
            f = 1
            for p, exps in by_prime.items():
                exps_sorted = sorted(exps, reverse=True)
                if k < len(exps_sorted):
                    f *= p ** exps_sorted[k]
            factors.append(f)
        return cls(rank, tuple(sorted(factors)))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        orders = list(self.torsion)
        rank = self.free_rank
        for g in others:
            rank += g.free_rank
            orders.extend(g.torsion)
        return FgAbGroup.from_orders(orders, rank)

    def tensor_cyclic(self, m: int) -> "FgAbGroup":
        orders = [m] * self.free_rank + [gcd(t, m) for t in self.torsion]
        return FgAbGroup.from_orders(orders)

    def tor_cyclic(self, m: int) -> "FgAbGroup":
        return FgAbGroup.from_orders([gcd(t, m) for t in self.torsion])

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _require_zero_composite(d_out: IntMatrix, d_in: IntMatrix) -> None:
    """Raise CompositionNonzero unless d_out * d_in = 0.

    The product runs over the nonzeros of both factors only; boundary
    matrices are far too sparse for a dense product to pay.
    """
    in_rows = [[(j, v) for j, v in enumerate(row) if v] for row in d_in.data]
    for row in d_out.data:
        acc = {}
        for k, a in enumerate(row):
            if a:
                for j, b in in_rows[k]:
                    acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            raise CompositionNonzero("d_out * d_in != 0")


def complex_homology(ds: Sequence[IntMatrix]) -> list:
    """ker(ds[k])/im(ds[k+1]) for k = 0 .. len(ds) - 2, with ds[k]*ds[k+1] = 0.

    The kernel lattice of ds[k] is saturated in the ambient Z^m, so the
    torsion of the quotient equals the torsion of Z^m/im(ds[k+1]); only
    the rank of ds[k] and the Smith diagonal of ds[k+1] are needed.  Each
    differential is factored once, and its rank is the number of its
    invariant factors.
    """
    for d_out, d_in in zip(ds, ds[1:]):
        if d_out.cols != d_in.rows:
            raise DimensionMismatch(
                f"cols(d_out)={d_out.cols} must equal rows(d_in)={d_in.rows}")
        _require_zero_composite(d_out, d_in)
    facs = [invariant_factors(d) for d in ds]
    return [FgAbGroup.from_invariant_factors(f_in, free_rank=d_in.rows - len(f_out) - len(f_in))
            for f_out, f_in, d_in in zip(facs, facs[1:], ds[1:])]


def homology_at(d_out: IntMatrix, d_in: IntMatrix) -> FgAbGroup:
    """ker(d_out)/im(d_in) for a composable pair with d_out*d_in = 0."""
    return complex_homology([d_out, d_in])[0]


def coefficients_via_uct(h_n: FgAbGroup, h_nm1: FgAbGroup, m: int) -> FgAbGroup:
    """Homology with Z/m coefficients from two integral homology groups."""
    if m < 2:
        raise BadModulus(f"modulus must be >= 2, got {m}")
    return h_n.tensor_cyclic(m).direct_sum(h_nm1.tor_cyclic(m))


# -- presentations and induced maps -----------------------------------------


class ChainHomologyPresentation:
    """ker(d_out)/im(d_in) with explicit generators and coordinates.

    Heavier than homology_at: tracks a saturated cycle basis and the Smith
    transforms of the relation matrix, so homology classes of ambient
    vectors and induced maps of chain maps can be computed exactly.
    """

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix):
        if d_out.cols != d_in.rows:
            raise DimensionMismatch("presentation: shape mismatch")
        _require_zero_composite(d_out, d_in)
        self.ambient = d_out.cols
        eng_out = _Smith(d_out, need=("V", "Vinv"))
        self._cycle_rank = self.ambient - eng_out.rank
        self._v_rows = eng_out.V_rows  # y = V x; kernel coords are y[rank:]
        self._out_rank = eng_out.rank
        self.cycle_basis = IntMatrix.from_columns(
            [_dense(col, self.ambient) for col in eng_out.Vinv_cols[eng_out.rank:]],
            self.ambient)
        # relation matrix: coordinates of the boundary columns
        rel = IntMatrix.from_columns(
            [self._kernel_coords(col) for col in d_in.column_list()], self._cycle_rank)
        eng_rel = _Smith(rel, need=("U", "Uinv"))
        self._rel_uinv = eng_rel.Uinv_rows
        diag = eng_rel.diagonal()
        k = self._cycle_rank
        orders_by_index = [diag[i] if i < len(diag) else 0 for i in range(k)]
        self._canon_indices = ([i for i in range(k) if orders_by_index[i] == 0]
                               + [i for i in range(k) if orders_by_index[i] >= 2])
        self.orders = [orders_by_index[i] for i in self._canon_indices]
        self.group = FgAbGroup.from_invariant_factors(diag, free_rank=k - len(diag))
        # generator lifts: ambient cycles realizing each canonical generator
        self.generators = [self.cycle_basis.apply(_dense(eng_rel.U_cols[i], k))
                           for i in self._canon_indices]

    def _kernel_coords(self, vec: Sequence[int]) -> list:
        y = [0] * self.ambient
        for i, rowdict in enumerate(self._v_rows):
            s = 0
            for j, c in rowdict.items():
                if vec[j]:
                    s += c * vec[j]
            y[i] = s
        if any(y[i] for i in range(self._out_rank)):
            raise LinAlgError("vector is not a cycle")
        return y[self._out_rank:]

    def coords(self, vec: Sequence[int]) -> list:
        """Canonical coordinates of the homology class of an ambient cycle."""
        c = self._kernel_coords(vec)
        y = [0] * self._cycle_rank
        for i, rowdict in enumerate(self._rel_uinv):
            s = 0
            for j, u in rowdict.items():
                if c[j]:
                    s += u * c[j]
            y[i] = s
        out = []
        for idx, d in zip(self._canon_indices, self.orders):
            out.append(y[idx] % d if d else y[idx])
        return out

    @property
    def n_generators(self) -> int:
        return len(self.orders)


def homology_presentation(d_out: IntMatrix, d_in: IntMatrix) -> ChainHomologyPresentation:
    return ChainHomologyPresentation(d_out, d_in)


def induced_on_homology(chain_map: IntMatrix,
                        source: ChainHomologyPresentation,
                        target: ChainHomologyPresentation) -> IntMatrix:
    """Matrix of the induced map on canonical generators.

    chain_map must send source cycles to target cycles and boundaries to
    boundaries; entries hitting a torsion generator are reduced mod its
    order.
    """
    if chain_map.cols != source.ambient or chain_map.rows != target.ambient:
        raise DimensionMismatch("chain map shape does not match presentations")
    return IntMatrix.from_columns(
        [target.coords(chain_map.apply(gen)) for gen in source.generators],
        target.n_generators)


def quotient_group(target: ChainHomologyPresentation, map_matrix: IntMatrix) -> FgAbGroup:
    """target.group / (subgroup generated by the columns of map_matrix).

    Columns are in the target's canonical coordinates.
    """
    if map_matrix.rows != target.n_generators:
        raise DimensionMismatch("quotient: coordinate mismatch")
    k = target.n_generators
    rel = IntMatrix.from_columns(
        map_matrix.column_list() + [_unit(k, i, d) for i, d in enumerate(target.orders) if d],
        k)
    facs = invariant_factors(rel)
    return FgAbGroup.from_invariant_factors(facs, free_rank=k - len(facs))


def kernel_group(map_matrix: IntMatrix, source_orders: Sequence[int],
                 target_orders: Sequence[int]) -> FgAbGroup:
    """Kernel of a homomorphism between presented abelian groups.

    The map is given in canonical coordinates (order 0 means a free
    generator).  The preimage of the target relation lattice is computed
    as the projection of an integer kernel, then presented modulo the
    source relations.
    """
    ks, kt = len(source_orders), len(target_orders)
    if map_matrix.shape != (kt, ks):
        raise DimensionMismatch("kernel: coordinate mismatch")
    stacked = IntMatrix.from_columns(
        map_matrix.column_list()
        + [_unit(kt, i, -d) for i, d in enumerate(target_orders) if d], kt)
    pre = kernel_basis(stacked)
    # reduce the projected generators to a lattice basis
    basis = image_basis(IntMatrix.from_columns([col[:ks] for col in pre.column_list()], ks))
    r = basis.cols
    if r == 0:
        return FgAbGroup.trivial()
    # source relations expressed in the kernel-lattice basis
    sys = LinearSystem(basis)
    rel_cols = []
    for i, d in enumerate(source_orders):
        if d:
            coords = sys.solve(_unit(ks, i, d))
            if coords is None:
                raise LinAlgError("induced map is not well defined on the quotient")
            rel_cols.append(coords)
    facs = invariant_factors(IntMatrix.from_columns(rel_cols, r))
    return FgAbGroup.from_invariant_factors(facs, free_rank=r - len(facs))
