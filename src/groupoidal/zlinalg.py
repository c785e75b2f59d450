"""Exact integer linear algebra.

Smith normal form with unimodular transforms, integer kernels, solving
A*x = v over the integers, and the homology of a ChainComplex (a list of
differentials, chains or cochains, checked for d*d = 0 once), reported
as finitely generated abelian groups in invariant-factor normal form.

Everything runs on Python ints, so intermediate entries may grow without
overflow.  IntMatrix is sparse, one {column: value} dict per row with no
stored zeros, and this module alone knows that format: builders elsewhere
emit (row, column, value) entries, or rows of {column: value} through
`IntMatrix.from_row_dicts`.  No operation modifies a built matrix, so
rows are shared: where a row of the left factor is the unit e_k, that
row of a product is row k of the right factor itself.  The elimination
engine starts from a copy of the row dicts, which is what makes the
large-but-very-sparse boundary matrices cheap.  It tracks no transform:
it logs its row operations and its column operations, in order, and U,
U^-1, V and V^-1 are replays of the two logs, run only where they are
read, on identity vectors or on the matrix they multiply (see _Smith).

Read-outs run when read, on only the vectors asked for.  A LinearSystem
reads no transform when it is built: it solves A*X = B for all columns
of B at once (the row log replayed on a copy of B, a divisibility check,
the column log replayed backwards on the quotients for V^-1).  A
ChainHomologyPresentation is built with its group and orders alone and
keeps two logs, not engines; its coordinate rows, generators and cycle
basis replay them on the unit vectors they need, each on first read,
and are kept.  It turns every column of M into canonical homology
coordinates at once (V * M, the column log replayed on a copy of M, a
cycle check, one product with the coordinate rows).  The one-vector
`solve` and `coords` are their one-column cases.
`ChainComplex.presentations` builds every degree's presentation in one
pass and keeps no engine, factoring each differential once however many
degrees read it.

Pivot rule, in two phases (see _Smith).  The engine first eliminates
every +-1 pivot in a sparsity order (unit-pivot pre-elimination, as in
Dumas-Saunders-Villard 2001), then takes the least (|v|, Markowitz cost,
row, column) at each step of the remainder.  Both orders are fixed rules,
not just good ones, because the transform read-outs (snf, kernel_basis,
LinearSystem, ChainHomologyPresentation) follow them: U, V, kernel
bases, homology generators and divisibility witnesses are part of the
program's output.  `rank` and `invariant_factors` need no transform
and read the canonical Smith diagonal block by block (`_block_factors`):
a block of the row-column graph with one row or one column is the gcd of
its entries, with no pivot, and any other runs the unit phase without
logs (`_strip_unit_pivots`) and the engine on the compacted remainder.
`_merge` folds the block factors into divisibility order.
`ChainComplex.groups` runs the unit phase on each differential without
the cells that the unit pivots of the one below it paired (see there),
and splits only the remainder.

So callers keep one rule.  A number or a yes/no that `rank` and
`invariant_factors` determine (a rank or nullity, injectivity, the index
of two nested images of equal rank) is read off them.  The transform
read-outs run only where a basis, coordinates or a witness is needed; a
check may share a factorization that its caller builds anyway for such a
read-out, as the skew LES's exactness checks share the lifts' systems.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Optional, Sequence

from .records import FrozenRecord, Record


class LinAlgError(Exception):
    """Base class for exact-linear-algebra failures.  `degree` is the degree
    of a ChainComplex at which one was found, or None."""

    degree: Optional[int] = None


class DimensionMismatch(LinAlgError):
    pass


class CompositionNonzero(LinAlgError):
    """d_out * d_in is not the zero matrix at `degree` of a ChainComplex."""

    def __init__(self, degree: int):
        super().__init__(f"d_out * d_in != 0 at degree {degree}")
        self.degree = degree


class BadModulus(LinAlgError):
    pass


class IntMatrix:
    """Sparse matrix of Python ints: one {column: value} dict per row,
    holding the nonzero entries only.

    The storage format is private to this module.  Other modules build
    matrices with `from_entries`, `from_row_dicts` or the shape
    constructors, and read them through `entries`, `col`, `column_list`
    and `apply`.  `data` is a dense list-of-lists copy for output and
    tests; writing into it does not change the matrix.  No operation
    modifies a matrix once it is built.
    """

    __slots__ = ("rows", "cols", "_row_dicts")

    def __init__(self, rows: int, cols: int, data: Optional[list] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        if data is None:
            self._row_dicts = [{} for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise DimensionMismatch("data shape does not match (rows, cols)")
            self._row_dicts = [{j: v for j, v in enumerate(r) if v} for r in data]

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple]) -> "IntMatrix":
        """rows x cols matrix holding at (i, j) the sum of the v over the
        triples (i, j, v) in entries, in the order from_row_dicts keeps:
        only the rows where a sum cancelled are filtered for zeros."""
        out = cls(rows, cols)  # refuses a negative shape
        row_dicts, cancelled = out._row_dicts, set()
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            row = row_dicts[i]
            new = row[j] = row.get(j, 0) + v
            if not new:
                cancelled.add(i)
        for i in cancelled:
            row_dicts[i] = {j: v for j, v in row_dicts[i].items() if v}
        return out

    @classmethod
    def from_row_dicts(cls, cols: int, rows: list) -> "IntMatrix":
        """len(rows) x cols matrix whose row i holds rows[i], a {column:
        value} dict.  The dicts are taken over, not copied, and their zero
        values are dropped.  A column outside 0..cols - 1 raises
        DimensionMismatch, and so does a negative cols."""
        if (min(chain.from_iterable(rows), default=0) < 0
                or max(chain.from_iterable(rows), default=-1) >= cols):
            raise DimensionMismatch(f"a column outside 0..{cols - 1}")
        if not all(map(all, map(dict.values, rows))):
            rows = [row if all(row.values()) else {j: v for j, v in row.items() if v}
                    for row in rows]
        return cls._of_row_dicts(len(rows), cols, rows)

    @classmethod
    def _of_row_dicts(cls, rows: int, cols: int, row_dicts: list) -> "IntMatrix":
        # the dicts must hold no zeros and must not be modified afterwards
        out = cls(0, cols)
        out.rows, out._row_dicts = rows, row_dicts
        return out

    @classmethod
    def _of_col_dicts(cls, rows: int, col_dicts: list) -> "IntMatrix":
        return cls._of_row_dicts(len(col_dicts), rows, col_dicts).transpose()

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Matrix with rows data, each of length cols; without cols, of the
        length of the first row, or 0 when there is none.  A row of another
        length raises DimensionMismatch."""
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_row_dicts(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        """Matrix with columns cols, each of length `rows`."""
        out = cls(rows, len(cols))
        row_dicts = out._row_dicts
        for j, col in enumerate(cols):
            if len(col) != rows:
                raise DimensionMismatch(f"column {j} has length {len(col)}, want {rows}")
            for i, v in enumerate(col):
                if v:
                    row_dicts[i][j] = v
        return out

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def data(self) -> list:
        """Dense copy as a list of rows."""
        out = [[0] * self.cols for _ in range(self.rows)]
        for row, entries in zip(out, self._row_dicts):
            for j, v in entries.items():
                row[j] = v
        return out

    def entries(self):
        """The nonzero entries as (i, j, v) triples, row by row."""
        for i, row in enumerate(self._row_dicts):
            for j, v in row.items():
                yield i, j, v

    def transpose(self) -> "IntMatrix":
        t = IntMatrix(self.cols, self.rows)
        t_rows = t._row_dicts
        for i, row in enumerate(self._row_dicts):
            for j, v in row.items():
                t_rows[j][i] = v
        return t

    def col(self, j: int) -> list:
        return [row.get(j, 0) for row in self._row_dicts]

    def column_list(self) -> list:
        out = [[0] * self.rows for _ in range(self.cols)]
        for i, row in enumerate(self._row_dicts):
            for j, v in row.items():
                out[j][i] = v
        return out

    def is_zero(self) -> bool:
        return not any(self._row_dicts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._row_dicts == other._row_dicts

    def _plus(self, other: "IntMatrix", sign: int, op: str) -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{op} {self.shape} vs {other.shape}")
        out = []
        for a, b in zip(self._row_dicts, other._row_dicts):
            row = dict(a)
            for j, v in b.items():
                new = row.get(j, 0) + sign * v
                if new:
                    row[j] = new
                else:
                    del row[j]
            out.append(row)
        return IntMatrix._of_row_dicts(self.rows, self.cols, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, 1, "add")

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, -1, "sub")

    def scaled(self, c: int) -> "IntMatrix":
        if not c:
            return IntMatrix(self.rows, self.cols)
        return IntMatrix._of_row_dicts(self.rows, self.cols,
                                       [{j: c * v for j, v in row.items()}
                                        for row in self._row_dicts])

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"mul {self.shape} by {other.shape}")
        b_rows = other._row_dicts
        out = []
        for a_row in self._row_dicts:
            if len(a_row) == 1:  # a * row k of other, shared when a = 1; no zero to drop
                (k, a), = a_row.items()
                out.append(b_rows[k] if a == 1 else {j: a * b for j, b in b_rows[k].items()})
                continue
            acc = {}
            for k, a in a_row.items():
                for j, b in b_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(acc if all(acc.values()) else {j: v for j, v in acc.items() if v})
        return IntMatrix._of_row_dicts(self.rows, other.cols, out)

    def sum_columns(self, to: Sequence[int], cols: int) -> "IntMatrix":
        """self * T for the len(to) x cols matrix T with rows e_{to[k]}:
        column k is added into column to[k], in time linear in the nonzeros."""
        if len(to) != self.cols or min(to, default=0) < 0 or max(to, default=-1) >= cols:
            raise DimensionMismatch(f"sum {self.cols} columns through a map into {cols}")
        rows = [{to[k]: v for k, v in row.items()} for row in self._row_dicts]
        if sum(map(len, rows)) < sum(map(len, self._row_dicts)):  # two columns met: add them
            return IntMatrix.from_entries(self.rows, cols,
                                          ((i, to[k], v) for i, k, v in self.entries()))
        return IntMatrix._of_row_dicts(self.rows, cols, rows)

    def rows_at(self, at: Sequence[int]) -> "IntMatrix":
        """S * self for the len(at) x rows matrix S with rows e_{at[i]}: row
        i is row at[i] of self (shared, as no matrix is modified)."""
        if min(at, default=0) < 0 or max(at, default=-1) >= self.rows:
            raise DimensionMismatch(f"pick rows outside 0..{self.rows - 1}")
        return IntMatrix._of_row_dicts(len(at), self.cols, [self._row_dicts[i] for i in at])

    def apply(self, vec: Sequence[int]) -> list:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"apply {self.shape} to vector of length {len(vec)}")
        out = []
        for row in self._row_dicts:
            s = 0
            for j, a in row.items():
                s += a * vec[j]
            out.append(s)
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


def _replay(ops: Iterable[tuple], vecs: list, flip: bool = False, sign: int = 1) -> list:
    """Apply logged operations, in order, to the sparse vectors vecs in
    place: (i, j, q) adds sign * q * vecs[j] to vecs[i], (i, j) swaps them
    and (i,) negates vecs[i].  With flip an add (i, j, q) is read
    transposed, as adding sign * q * vecs[i] to vecs[j]; a swap and a
    negation are their own transposes and inverses, and sign = -1 inverts
    an add."""
    for op in ops:
        if len(op) == 3:
            if flip:
                j, i, q = op
            else:
                i, j, q = op
            q *= sign
            target = vecs[i]
            for k, v in vecs[j].items():
                new = target.get(k, 0) + q * v
                if new:
                    target[k] = new
                else:
                    target.pop(k, None)
        elif len(op) == 2:
            i, j = op
            vecs[i], vecs[j] = vecs[j], vecs[i]
        else:
            i = op[0]
            vecs[i] = {k: -v for k, v in vecs[i].items()}
    return vecs


def _unit_vectors(m: int, which: Iterable[int]) -> list:
    """The len(which) unit vectors e_i, i in which, stored by coordinate:
    m sparse rows, row which[t] holding a 1 at t and every other row empty."""
    vecs = [{} for _ in range(m)]
    for t, i in enumerate(which):
        vecs[i][t] = 1
    return vecs


def _uinv_rows(row_ops: list, m: int, which: Sequence[int]) -> IntMatrix:
    """The rows `which` of U^-1 for this row log.  They are
    e^T * E_last * ... * E_first, so the log is replayed transposed, last
    first, on the columns of those rows; the cost follows their fill, not
    m^2."""
    return IntMatrix._of_col_dicts(
        len(which), _replay(reversed(row_ops), _unit_vectors(m, which), True))


def _vinv_times(col_ops: list, rows: list, cols: int) -> IntMatrix:
    """V^-1 * Y for the len(rows) x cols matrix Y with these rows, taken
    over: V^-1 = F_first * ... * F_last, so the column log is replayed last
    first, each add (j, k, q) read transposed as row k += q * row j."""
    return IntMatrix._of_row_dicts(len(rows), cols, _replay(reversed(col_ops), rows, True))


class _Smith:
    """Sparse Smith normal form engine.

    Reduces S = A in place to U^-1 * A * V^-1, its Smith normal form, and
    logs every operation it applies on the way, in order: `row_ops` holds
    (i, j, q) for "add q * row j to row i", (i, j) for a row swap and (i,)
    for a negation, and `col_ops` holds (j, k, q) for "add q * col k to
    col j" and (j, k) for a column swap.  No transform is tracked during
    the elimination: for the row operations E and the column operations
    F, U^-1 = E_last * ... * E_first and V^-1 = F_first * ... * F_last,
    and every transform is a replay of one log (`_replay`), run when read:
    U^-1 on whatever it is applied to (`uinv_times`, `uinv_rows`), V on
    the matrix it multiplies (`v_times`), and the columns of U and V^-1 on
    identity vectors (`u_cols`, `vinv_cols`), which only `snf` and the
    kernel (`kernel_matrix`) read whole.  A LinearSystem and a
    ChainHomologyPresentation replay the logs themselves, on only the
    vectors they read (`_uinv_rows`, `_vinv_times`).  A U^-1 tracked as
    a matrix fills towards a dense triangle on matrices such as id - P for
    a long cycle, while its applications stay sparse (the product form of
    the inverse, Dantzig and Orchard-Hays 1954).

    Pivot rule, in two phases.  The unit phase, `_eliminate_units` run
    with the two logs, eliminates every +-1 pivot in its sparsity order
    and leaves each pivot alone in its row and column; logged swaps move
    them to the front, so unit pivot t sits at (t, t).  A matrix with no
    +-1 entry skips the phase.  The exact phase then starts at t = the
    number of unit pivots, with only the live columns dirty, and step t
    takes the least key (|v|, (len(row) - 1) * (len(col) - 1), i, j) over
    the nonzeros v = S[i][j] with i, j >= t.  `_best[j]` caches the least
    key of column j and `_heap` holds every cached key, plus stale ones
    that are dropped when they surface.  Invariant: `_best[j]` is exact
    for every column >= t not in `_dirty`.  A column's key depends on its
    entries, its length and the lengths and indices of its rows, so each
    elementary operation marks the columns whose keys it can change: a row
    add the columns of the target row before the add and of the source
    row, a row swap the columns of both rows, a column add the target
    column and every column of each row whose length changed, a column
    swap both columns.  The pivots of both phases are exactly those of a
    full scan (`tests/oracles.py` keeps one for each), because the
    transforms, kernel bases, generators and witness vectors read out of
    the engine are part of the output and depend on the order.  `rank` and
    `invariant_factors` hand it only the compacted remainder of the unit
    phase (`_strip_unit_pivots`) on a block that is not a gcd, since the
    diagonal alone is canonical.
    """

    def __init__(self, A: IntMatrix):
        self.m, self.n = A.rows, A.cols
        self.rows = [dict(row) for row in A._row_dicts]
        self.colidx = [set() for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for j in row:
                self.colidx[j].add(i)
        self.row_ops = []
        self.col_ops = []
        self.rank = 0
        self._best = [None] * self.n
        self._heap = []
        self._dirty = set()
        self._reduce()

    # -- elementary operations on S, each logged ---------------------------

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
        self.row_ops.append((i, j, q))

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
        self.row_ops.append((i, j))

    def _row_neg(self, i: int):
        self.rows[i] = {k: -v for k, v in self.rows[i].items()}
        self.row_ops.append((i,))

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
        self.col_ops.append((j, k, q))

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
        self.col_ops.append((j, k))

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

    def _units_to_front(self, units: list):
        # logged swaps move unit pivot t to (t, t); at[i] is the row (column)
        # that sits at i and pos[x] where row (column) x sits
        for swap, size, k in ((self._row_swap, self.m, 0), (self._col_swap, self.n, 1)):
            at, pos = list(range(size)), list(range(size))
            for t, pivot in enumerate(units):
                x = pivot[k]
                i, y = pos[x], at[t]
                swap(i, t)
                at[t], at[i], pos[x], pos[y] = x, y, t, i

    def _reduce(self):
        units = _eliminate_units(self.rows, self.colidx, self.row_ops, self.col_ops)
        if units:
            self._units_to_front(units)
        t = len(units)
        self._dirty = {j for j in range(t, self.n) if self.colidx[j]}
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

    def u_cols(self) -> list:
        """The columns of U = E_first^-1 * ... * E_last^-1: the row log
        replayed on identity columns, each add transposed and negated."""
        return _replay(self.row_ops, [{i: 1} for i in range(self.m)], True, -1)

    def vinv_cols(self) -> list:
        """The columns of V^-1: the column log replayed on identity columns."""
        return _replay(self.col_ops, [{j: 1} for j in range(self.n)])

    def v_times(self, M: IntMatrix) -> IntMatrix:
        """V * M = F_last^-1 * ... * F_first^-1 * M: the column log replayed,
        each add transposed and negated, on a copy of the rows of M."""
        rows = _replay(self.col_ops, [dict(row) for row in M._row_dicts], True, -1)
        return IntMatrix._of_row_dicts(self.n, M.cols, rows)

    def uinv_times(self, B: IntMatrix) -> IntMatrix:
        """U^-1 * B: the row log replayed, in order, on a copy of the rows
        of B."""
        rows = _replay(self.row_ops, [dict(row) for row in B._row_dicts])
        return IntMatrix._of_row_dicts(self.m, B.cols, rows)

    def uinv_rows(self, which: Sequence[int]) -> IntMatrix:
        """The rows `which` of U^-1 (see `_uinv_rows`)."""
        return _uinv_rows(self.row_ops, self.m, which)

    def kernel_matrix(self) -> IntMatrix:
        """The columns rank.. of V^-1, each with its first nonzero made positive."""
        return IntMatrix._of_col_dicts(
            self.n, [_normalize_column_sign(col) for col in self.vinv_cols()[self.rank:]])


class SnfDecomposition(FrozenRecord):
    """A = U * S * V with U, V unimodular and S in Smith normal form."""

    __slots__ = ("U", "S", "V", "U_inv", "V_inv")

    @property
    def rank(self) -> int:
        return len(self.diagonal())

    def diagonal(self) -> list:
        return [d for _, _, d in self.S.entries()]


def snf(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form A = U*S*V; S nonnegative diagonal, d_i | d_{i+1}."""
    eng = _Smith(A)
    m, n = A.shape
    return SnfDecomposition(
        IntMatrix._of_col_dicts(m, eng.u_cols()),
        IntMatrix.from_entries(m, n, ((i, i, d) for i, d in enumerate(eng.diagonal()))),
        eng.v_times(IntMatrix.identity(n)), eng.uinv_times(IntMatrix.identity(m)),
        IntMatrix._of_col_dicts(n, eng.vinv_cols()))


def _eliminate_units(rows: list, colidx: list, row_ops: Optional[list] = None,
                     col_ops: Optional[list] = None) -> list:
    """Eliminate the +-1 pivots of a sparse matrix in place and return them,
    in order, as (row, column) pairs.

    rows holds one {column: value} dict per row and colidx[j] the rows with
    a nonzero in column j.  Each step takes a +-1 entry from the shortest
    live row that holds one, in that row's shortest column (ties to the
    lower index both times), and clears its column by exact row
    subtraction, which leaves the Schur complement in the other live rows.
    The pivot row is then left holding the unit alone and is no longer
    live: with logs, the row adds go to row_ops as (i, p, q) and the column
    adds that clear the pivot row, which touch no other row, to col_ops as
    (c, j, q), as `_Smith` logs them; without logs its other entries are
    just dropped, which leaves the same live rows.
    """
    # (row length, row) for every live row holding a unit, plus stale entries;
    # a target row is pushed again only if its length changed or it held no unit
    heap = [(len(row), i) for i, row in enumerate(rows)
            if 1 in row.values() or -1 in row.values()]
    heapq.heapify(heap)
    pivots, done = [], set()
    while heap:
        length, p = heapq.heappop(heap)
        prow = rows[p]
        if len(prow) != length or p in done:
            continue
        # the unit whose column is shortest, ties to the lower column
        j = None
        for c, v in prow.items():
            if v == 1 or v == -1:
                k = len(colidx[c])
                if j is None or k < least or k == least and c < j:
                    j, least = c, k
        if j is None:
            continue
        unit = prow.pop(j)
        rest = list(prow.items())
        for c, _ in rest:
            colidx[c].discard(p)
        targets, colidx[j] = colidx[j], {p}
        targets.discard(p)
        for i in targets:
            row = rows[i]
            values = row.values()
            length, had = len(row), 1 in values or -1 in values
            q = row.pop(j) * unit  # a unit is its own inverse
            for c, v in rest:
                sub = q * v
                old = row.get(c)
                if old is None:
                    row[c] = -sub
                    colidx[c].add(i)
                elif old != sub:
                    row[c] = old - sub
                else:
                    del row[c]
                    colidx[c].discard(i)
            if row_ops is not None:
                row_ops.append((i, p, -q))
            if (len(row) != length or not had) and (1 in values or -1 in values):
                heapq.heappush(heap, (len(row), i))
        if col_ops is not None:
            col_ops.extend((c, j, -v * unit) for c, v in rest)
        rows[p] = {j: unit}
        done.add(p)
        pivots.append((p, j))
    return pivots


def _strip_unit_pivots(A: IntMatrix) -> tuple:
    """(pivots, R): A is equivalent to diag(1, ..., 1, R), with one 1 for
    each of the pivots, in order, that `_eliminate_units` takes on A
    without logs, and R what it leaves, with its zero rows and columns
    removed."""
    rows = [dict(row) for row in A._row_dicts]
    colidx = [set() for _ in range(A.cols)]
    for i, row in enumerate(rows):
        for j in row:
            colidx[j].add(i)
    units = _eliminate_units(rows, colidx)
    for p, _ in units:
        rows[p] = None
    live = [row for row in rows if row]
    cols = {c: k for k, c in enumerate(sorted(set().union(*live)))}
    return units, IntMatrix._of_row_dicts(
        len(live), len(cols), [{cols[c]: v for c, v in row.items()} for row in live])


def _block_factors(A: IntMatrix, units: bool = True) -> list:
    """The nonzero Smith diagonal of A, unordered, factored block by block.

    A is the direct sum of the connected components of its row-column
    graph (Pothen and Fan 1990), found by union-find over the columns that
    each row touches.  A block of one row or one column contributes the gcd
    of its entries.  Any other block goes through the unit phase without
    logs, skipped when `units` is false (a remainder that holds no +-1
    entry), and the engine on what that leaves.  A matrix with one entry
    per row, all of one value v, needs no union-find: it is the direct sum
    of its nonzero columns, each of gcd |v|.
    """
    rows = A._row_dicts
    if max(map(len, rows), default=0) < 2:
        values = set(chain.from_iterable(map(dict.values, rows)))
        if len(values) < 2:
            return [*values] * len(set(chain.from_iterable(rows)))
    root = list(range(A.cols))

    def find(j):
        while root[j] != j:
            root[j] = j = root[root[j]]
        return j

    for row in rows:
        if len(row) > 1:
            it = iter(row)
            r = find(next(it))
            for j in it:
                root[find(j)] = r
    blocks = {}
    for row in rows:
        if row:
            blocks.setdefault(find(next(iter(row))), []).append(row)
    factors = []
    for block in blocks.values():
        cols = set().union(*block)
        if len(block) == 1 or len(cols) == 1:
            factors.append(gcd(*chain.from_iterable(map(dict.values, block))))
            continue
        if len(blocks) == 1:
            B = A
        else:
            at = {c: k for k, c in enumerate(sorted(cols))}
            B = IntMatrix._of_row_dicts(len(block), len(at),
                                        [{at[c]: v for c, v in row.items()} for row in block])
        if units:
            pivots, B = _strip_unit_pivots(B)
            factors += [1] * len(pivots)
        if B.rows:
            factors += _Smith(B).diagonal()
    return factors


def _merge(factors: list) -> list:
    """The invariant factors of the direct sum of the cyclic groups Z/f, f
    in factors (each nonzero), in divisibility order, one per f.

    The factors other than 1 are folded one at a time into a chain kept
    largest first: a carry c passes over the entries it divides, which
    form a prefix, folds the pair (c, e) of the first it does not divide
    into (gcd, lcm), keeps the lcm there and carries the gcd on, and is
    appended once it divides every entry.  No integer is factored.
    """
    top = []
    for f in factors:
        carry, at = abs(f), 0
        while carry > 1:
            at = bisect_left(top, True, at, key=lambda e: e % carry != 0)
            if at == len(top):
                top.append(carry)
                break
            e = top[at]
            g = gcd(carry, e)
            top[at], carry, at = e // g * carry, g, at + 1
    return [1] * (len(factors) - len(top)) + top[::-1]


def rank(A: IntMatrix) -> int:
    """Rank of A: the number of its block factors (`_block_factors`).
    The rank does not depend on pivot order."""
    return len(_block_factors(A))


def invariant_factors(A: IntMatrix) -> list:
    """Nonzero diagonal of the Smith form, in divisibility order.

    The Smith form is canonical, so no transform is logged.  A is factored
    as the direct sum of its blocks (`_block_factors`), and the factors
    of the blocks are merged into divisibility order (`_merge`).  A
    product of shift pullbacks has one entry per row, so it is the direct
    sum of its columns and needs no pivot.  `ChainComplex.groups` runs the
    unit phase itself and splits only its remainder.
    """
    return _merge(_block_factors(A))


def _normalize_column_sign(col: dict) -> dict:
    """The sparse column col, negated if its first nonzero entry is negative."""
    if col and col[min(col)] < 0:
        return {i: -v for i, v in col.items()}
    return col


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel lattice, as matrix columns."""
    return _Smith(A).kernel_matrix()


class LinearSystem:
    """Factorization of A reusable for many exact solves of A*X = B.

    It keeps the engine and reads no transform when it is built: a solve
    replays the row log on its right-hand sides, in place of a product
    with U^-1, and the column log backwards on its quotients, in place of
    a product with V^-1.  `kernel()` equals kernel_basis(A) and
    `diagonal()` equals invariant_factors(A).
    """

    def __init__(self, A: IntMatrix):
        self._eng = _Smith(A)

    @property
    def rank(self) -> int:
        return self._eng.rank

    def diagonal(self) -> list:
        return self._eng.diagonal()

    def kernel(self) -> IntMatrix:
        return self._eng.kernel_matrix()

    def solve_columns(self, B: IntMatrix) -> Optional[IntMatrix]:
        """Some X with A*X = B, or None when a column of B is not in the
        image lattice.

        With A = U*S*V: W = U^-1 * B, the engine's row operations replayed
        on a copy of B, must vanish in rows rank.. and be divisible by d_i
        in row i < rank; then X = V^-1 * (W / d, stacked on n - rank zero rows).
        """
        eng = self._eng
        if B.rows != eng.m:
            raise DimensionMismatch(f"solve {eng.m}-row A * X = B for a {B.rows}-row B")
        w_rows = eng.uinv_times(B)._row_dicts
        if any(w_rows[eng.rank:]):
            return None
        y_rows = []
        for row, d in zip(w_rows, eng.diagonal()):
            y = {}
            for j, w in row.items():
                q, rem = divmod(w, d)
                if rem:
                    return None
                y[j] = q
            y_rows.append(y)
        return _vinv_times(eng.col_ops, y_rows + [{} for _ in range(eng.n - eng.rank)], B.cols)

    def solve(self, v: Sequence[int]) -> Optional[list]:
        x = self.solve_columns(IntMatrix.from_columns([v], self._eng.m))
        return None if x is None else x.col(0)


# -- finitely generated abelian groups -------------------------------------


class FgAbGroup(FrozenRecord):
    """Isomorphism type of a finitely generated abelian group.

    `torsion` is the invariant-factor chain t_1 | t_2 | ... with each
    t_i >= 2, so equality of groups is equality of fields.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        torsion = tuple(int(t) for t in torsion)
        prev = 1
        for t in torsion:
            if t < 2:
                raise ValueError("invariant factors must be >= 2")
            if t % prev:
                raise ValueError(f"invariant factors {torsion} violate divisibility")
            prev = t
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

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
        """Normalize arbitrary cyclic orders into an invariant-factor chain:
        each order 0 is a free summand, and the others are merged by
        `_merge`, which takes |m| for each order m."""
        orders = list(orders)
        return cls.from_invariant_factors(_merge([m for m in orders if m]),
                                          free_rank + orders.count(0))

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


class ChainComplex:
    """A complex of free abelian groups given by its differentials.

    With step -1 (chains) ds[n] is d_n: C_n -> C_{n-1}, and degree n is
    ker(ds[n])/im(ds[n+1]) for n = 0 .. len(ds) - 2; the caller supplies
    d_0.  With step +1 (cochains) ds[n] is delta_n: C^n -> C^{n+1}, and
    degree n is ker(ds[n])/im(ds[n-1]) for n = 0 .. len(ds) - 1, with a
    zero map into C^0.  An empty list has no degrees either way.  Shapes
    and d*d = 0 are checked once, here; a composite with no rows or no
    columns is zero by its shape, and a nonzero one raises
    CompositionNonzero naming its degree.

    The complex keeps no engine.  `presentations` factors each differential
    at most once per call: its column log (V) is kept where it leaves a
    degree 0 .. top, and its row log (U) where the differential above it
    is zero, since then V = I and it is the relation matrix of the degree
    above.  Each transform is a replay of one of those logs, so every
    presentation equals the one from engines of its own.
    """

    def __init__(self, ds: Sequence[IntMatrix], step: int):
        if step not in (-1, 1):
            raise ValueError(f"step must be -1 or +1, got {step}")
        self.step = step
        # read downwards either way: degree n is ker(_ds[i])/im(_ds[i+1])
        if step < 0 or not ds:
            self._ds = list(ds)
        else:
            self._ds = list(ds[::-1]) + [IntMatrix.zeros(ds[0].cols, 0)]
        self.top = len(self._ds) - 2  # degrees run 0 .. top
        for i, (d_out, d_in) in enumerate(zip(self._ds, self._ds[1:])):
            # the product raises DimensionMismatch on a shape mismatch; one
            # with no rows or no columns is zero by its shape
            if not (d_out.rows and d_in.cols):
                if d_out.cols != d_in.rows:
                    raise DimensionMismatch(f"mul {d_out.shape} by {d_in.shape}")
            elif not (d_out * d_in).is_zero():
                raise CompositionNonzero(i if step < 0 else self.top - i)

    def _at(self, n: int) -> int:
        if not 0 <= n <= self.top:
            raise IndexError(f"degree {n} outside 0 .. {self.top}")
        return n if self.step < 0 else self.top - n

    def d_out(self, n: int) -> IntMatrix:
        """The differential leaving degree n."""
        return self._ds[self._at(n)]

    def presentations(self) -> list:
        """The presentations of degrees 0 .. top, in one pass over the
        differentials.  Each d_out is factored once; a zero d_out's d_in
        too, which is both that degree's relation matrix and the next
        position's d_out.  Each engine is released before the next is built."""
        pres, carried = [], None
        for d_out, d_in in zip(self._ds, self._ds[1:]):
            eng_out = _Smith(d_out) if carried is None else carried
            carried = _Smith(d_in) if d_out.is_zero() else None
            pres.append(ChainHomologyPresentation(d_out, d_in, eng_out, carried))
            del eng_out
        return pres if self.step < 0 else pres[::-1]

    def groups(self) -> list:
        """The groups of degrees 0 .. top.

        The kernel lattice of d_out is saturated in the ambient Z^m, so the
        torsion of ker(d_out)/im(d_in) equals the torsion of Z^m/im(d_in);
        only the rank of d_out and the Smith diagonal of d_in are needed.
        Each differential is factored once, lowest degree first.  A unit
        pivot pairs a cell that a differential shares with the next one;
        eliminating it zeroes that cell's line of the next one by unimodular
        moves (d*d = 0; Kaczynski-Mrozek-Slusarek 1998), so the next unit
        phase skips those lines (the clearing of Chen-Kerber 2011) and reads
        the same factors.  What the unit phase leaves is split into blocks
        (`_block_factors`, with no second unit phase) and merged.
        """
        chains = self.step < 0
        ds = self._ds if chains else self._ds[::-1]  # lowest degree first
        facs, paired = [], set()
        for d in ds:
            if d.is_zero():
                facs.append([])
                paired = set()
                continue
            # rows meet the differential below, columns the next (cochains transposed)
            A = d if chains else d.transpose()
            rows = [{} if i in paired else row for i, row in enumerate(A._row_dicts)]
            units, rest = _strip_unit_pivots(IntMatrix._of_row_dicts(A.rows, A.cols, rows))
            facs.append([1] * len(units) + _merge(_block_factors(rest, units=False)))
            paired = {j for _, j in units}
        # d_in maps into degree n and its rows are the cells of degree n
        pairs = zip(facs, facs[1:], ds[1:]) if chains else zip(facs[1:], facs, ds)
        return [FgAbGroup.from_invariant_factors(f_in, free_rank=d_in.rows - len(f_out) - len(f_in))
                for f_out, f_in, d_in in pairs]


def homology_at(d_out: IntMatrix, d_in: IntMatrix) -> FgAbGroup:
    """ker(d_out)/im(d_in) for a composable pair with d_out*d_in = 0."""
    return ChainComplex([d_out, d_in], -1).groups()[0]


def coefficients_via_uct(h_n: FgAbGroup, h_nm1: FgAbGroup, m: int) -> FgAbGroup:
    """Homology with Z/m coefficients from two integral homology groups."""
    if m < 2:
        raise BadModulus(f"modulus must be >= 2, got {m}")
    return h_n.tensor_cyclic(m).direct_sum(h_nm1.tor_cyclic(m))


# -- presentations and induced maps -----------------------------------------


class ChainHomologyPresentation:
    """ker(d_out)/im(d_in) with explicit generators and coordinates.

    Heavier than homology_at: it factors the relation matrix, so homology
    classes of ambient vectors and induced maps of chain maps can be
    computed exactly.  The pair must be composable with d_out * d_in = 0;
    build it through ChainComplex.presentations, which has checked that
    and hands it the engines of d_out, and of d_in when d_out is zero
    (`eng_in` is None otherwise).  Only a nonzero d_out needs a relation
    matrix V[rank:] * d_in factored here.  Building it computes `group`
    and `orders` and nothing else, and it keeps two logs, not engines:
    d_out's column log (V) and the relation engine's row log (U).  Each
    transform read-out replays one of them on only the vectors it needs,
    on first read, and is kept: the coordinate rows, `generator_matrix`,
    `generators` and `cycle_basis`.
    """

    def __init__(self, d_out: IntMatrix, d_in: IntMatrix, eng_out: _Smith,
                 eng_in: Optional[_Smith]):
        self.ambient = d_out.cols
        r = self._out_rank = eng_out.rank
        self._v_log = eng_out.col_ops  # y = V x, this log replayed; kernel coords are y[rank:]
        k = self.ambient - r
        # relation matrix: kernel coordinates of the boundary columns, rows
        # rank.. of V * d_in.  Rows < rank vanish, so the columns of d_in are
        # cycles: d_out * d_in = U * S * (V * d_in) = 0, and the first rank
        # rows of S are d_i times unit rows.  A d_in with no columns gives
        # it with no replay; a zero d_out leaves V = I and the relation
        # matrix d_in itself, factored by `eng_in`.
        if r:
            rel = (IntMatrix._of_row_dicts(k, d_in.cols, eng_out.v_times(d_in)._row_dicts[r:])
                   if d_in.cols else IntMatrix(k, 0))
            eng_rel = _Smith(rel)
        else:
            eng_rel = eng_in
        self._u_log = eng_rel.row_ops
        diag = eng_rel.diagonal()
        # free generators first, then the torsion ones
        self._canon = list(range(len(diag), k)) + [i for i, d in enumerate(diag) if d >= 2]
        self.orders = [0] * (k - len(diag)) + [d for d in diag if d >= 2]
        self.group = FgAbGroup.from_invariant_factors(diag, free_rank=k - len(diag))

    @cached_property
    def _coord_rows(self) -> IntMatrix:
        """Rows canon of the relation engine's U^-1: canonical coordinates of
        kernel coordinates z are these rows times z."""
        return _uinv_rows(self._u_log, self.ambient - self._out_rank, self._canon)

    @cached_property
    def generator_matrix(self) -> IntMatrix:
        """The generators, ambient cycles realizing the canonical
        generators, as the columns of an ambient x n_generators matrix:
        column t is V^-1 (0_rank + U e_c) for c = canon[t].  U e_c is the
        row log replayed last first, each add negated, on those unit
        vectors only."""
        r, canon = self._out_rank, self._canon
        u = _replay(reversed(self._u_log), _unit_vectors(self.ambient - r, canon), sign=-1)
        return _vinv_times(self._v_log, [{} for _ in range(r)] + u, len(canon))

    @cached_property
    def generators(self) -> list:
        """The columns of `generator_matrix`, as lists."""
        return self.generator_matrix.column_list()

    @cached_property
    def cycle_basis(self) -> IntMatrix:
        """A basis of the saturated lattice ker(d_out): V^-1[:, rank:]."""
        r = self._out_rank
        return _vinv_times(self._v_log, _unit_vectors(self.ambient, range(r, self.ambient)),
                           self.ambient - r)

    def coords_of(self, M: IntMatrix) -> IntMatrix:
        """Canonical coordinates of the homology classes of the columns of
        M, which must be ambient cycles, as the columns of the result."""
        if M.rows != self.ambient:
            raise DimensionMismatch(f"coordinates of {M.rows}-vectors in Z^{self.ambient}")
        y_rows = _replay(self._v_log, [dict(row) for row in M._row_dicts], True, -1)  # V * M
        r = self._out_rank
        if any(y_rows[:r]):
            raise LinAlgError("vector is not a cycle")
        z = IntMatrix._of_row_dicts(self.ambient - r, M.cols, y_rows[r:])
        out = []
        for row, d in zip((self._coord_rows * z)._row_dicts, self.orders):
            if d:
                row = {j: v % d for j, v in row.items() if v % d}
            out.append(row)
        return IntMatrix._of_row_dicts(len(out), M.cols, out)

    def coords(self, vec: Sequence[int]) -> list:
        """Canonical coordinates of the homology class of an ambient cycle."""
        return self.coords_of(IntMatrix.from_columns([vec], self.ambient)).col(0)

    @property
    def n_generators(self) -> int:
        return len(self.orders)


class InducedMap(Record):
    """A chain map and the map it induces on homology presentations, in
    degree `degree`: `chain_matrix` maps `source`'s ambient coordinates to
    `target`'s, and `matrix` (target canonical coordinates x source
    generators) is `induced_on_homology` of the three.  A contravariant
    map on cochains is the same record, with `source` the cohomology the
    map leaves."""

    __slots__ = ("degree", "chain_matrix", "source", "target", "matrix")

    @property
    def source_group(self) -> FgAbGroup:
        return self.source.group

    @property
    def target_group(self) -> FgAbGroup:
        return self.target.group

    def is_injective_at_chain_level(self) -> bool:
        return rank(self.chain_matrix) == self.chain_matrix.cols


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
    return target.coords_of(chain_map * source.generator_matrix)


def _with_order_columns(M: IntMatrix, orders: Sequence[int]) -> IntMatrix:
    """M followed by one column d * e_i for each nonzero d = orders[i]."""
    extra = [(i, d) for i, d in enumerate(orders) if d]
    return IntMatrix.from_entries(
        M.rows, M.cols + len(extra),
        chain(M.entries(), ((i, M.cols + c, v) for c, (i, v) in enumerate(extra))))


def quotient_group(target: ChainHomologyPresentation, map_matrix: IntMatrix) -> FgAbGroup:
    """target.group / (subgroup generated by the columns of map_matrix).

    Columns are in the target's canonical coordinates.
    """
    if map_matrix.rows != target.n_generators:
        raise DimensionMismatch("quotient: coordinate mismatch")
    facs = invariant_factors(_with_order_columns(map_matrix, target.orders))
    return FgAbGroup.from_invariant_factors(facs, free_rank=map_matrix.rows - len(facs))


def kernel_group(map_matrix: IntMatrix, source_orders: Sequence[int],
                 target_orders: Sequence[int]) -> FgAbGroup:
    """Kernel of a homomorphism f: A -> B between presented abelian groups.

    The map is given in canonical coordinates (order 0 means a free
    generator).  The presentations 0 -> Z^s' -> Z^ks -> A and
    0 -> Z^t' -> Z^kt -> B, s' and t' the nonzero orders, are free
    resolutions, f lifts to a chain map between them, and ker f is H_1 of
    its mapping cone (Weibel 1.5): d_1 is the map followed by the nonzero
    target orders, and d_2 stacks -diag(s') over the lift map * s_j / t_i.
    So two rank-only factorizations give the group.  A map that does not
    lift sends a source relation outside the target relations, is not
    well defined on the quotient, and raises LinAlgError.
    """
    ks, kt = len(source_orders), len(target_orders)
    if map_matrix.shape != (kt, ks):
        raise DimensionMismatch("kernel: coordinate mismatch")
    lift_row = {i: ks + r for r, i in enumerate(i for i, t in enumerate(target_orders) if t)}
    lift_col = {j: c for c, j in enumerate(j for j, s in enumerate(source_orders) if s)}
    entries = [(j, c, -source_orders[j]) for j, c in lift_col.items()]
    for i, j, v in map_matrix.entries():
        if j in lift_col:
            image, t = v * source_orders[j], target_orders[i]
            if not t or image % t:
                raise LinAlgError("induced map is not well defined on the quotient")
            entries.append((lift_row[i], lift_col[j], image // t))
    return homology_at(_with_order_columns(map_matrix, target_orders),
                       IntMatrix.from_entries(ks + len(lift_row), len(lift_col), entries))
