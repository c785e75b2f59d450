"""Independent verification routes used only by the tests.

Nothing here calls the package's normal-form engine: ranks come from
Fraction-based Gaussian elimination over Q and from elimination mod p,
the group (co)homology complexes are rebuilt from scratch with plain
itertools tuple enumeration, and a module is checked on every composable
pair of its groupoid.  `full_scan_unit_pivots` and `full_scan_pivot`
are the engine's two pivot rules by plain scans, to check the pivots the
engine picks (they read its state, or a copy of it), `recording_engine` only
records which transform read-outs run on each engine, and
`engine_factors` assembles U, S, V and their inverses from an engine's
read-outs, for the tests of those read-outs.  The exceptions run the
engine's transform read-outs: `image_basis` reads a basis of the image
lattice off U and the Smith diagonal, `lattice_kernel_group` is a second
route to kernel groups, by lattices, against which the mapping cone is
checked, and `truncated_threads` builds the bases of a tower's truncated
threads whose ranks `limits.limit_and_lim1` reads off `rank` alone.
`theta_rho_by_products` states the comparison identities of
`theta_rho_check` as plain matrix products of selection matrices, and
`homology_face` computes a face as a string, against which the index
arithmetic of `groupoids.face_table` is checked, and `group_groupoid_of_table`
builds a group's one-unit groupoid straight from its Cayley table, against
which `models.group_groupoid`, an action on one point, is checked.

The functions at the end of the file are references and fixtures that
no command uses: `induced_cohomology_map` is the map a functor induces
on cocycle cohomology, on the package's presentations of the two
cocycle complexes; `cocycle_potential` recovers the potential of an
integer cocycle, and `cocycle_from_potential` builds the cocycle of a
potential; `permutation_module` is Z^X over a group acting on X by
permutations.
"""

from fractions import Fraction
from itertools import product

from groupoidal import zlinalg
from groupoidal.cohomology import (_coboundary, cochain_pullback_matrix, cochain_space,
                                   pullback_module)
from groupoidal.groupoids import (FiniteGroupoid, GModule, GroupoidError, isotropy_inclusion,
                                  require_valid_functor)
from groupoidal.models import group_groupoid
from groupoidal.skew import ZCocycle
from groupoidal.zlinalg import (ChainComplex, FgAbGroup, InducedMap, IntMatrix, LinAlgError,
                                LinearSystem, induced_on_homology, invariant_factors,
                                kernel_basis)


def rational_rank(rows):
    """Rank over Q by straightforward Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
    return rank


def modp_rank(rows, p):
    """Rank over the field with p elements (p prime)."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
    return rank


def det(rows):
    """Determinant of a square list-of-rows matrix by fraction-free
    (Bareiss) elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
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


def lattice_index(outer, inner):
    """Index [L(outer) : L(inner)] of the lattices spanned by two lattice
    bases, each a list of integer columns of one length; None unless
    L(inner) lies in L(outer) with equal rank.

    The solve route: outer * X = inner is solved over Q by Gauss-Jordan
    elimination, and the index is |det X| when X is integral and
    nonsingular.  No Smith form is involved.
    """
    r = len(outer)
    if len(inner) != r:
        return None
    if r == 0:
        return 1
    n = len(outer[0])
    m = [[Fraction(c[i]) for c in outer] + [Fraction(c[i]) for c in inner]
         for i in range(n)]
    for col in range(r):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise ValueError("the columns of outer are not independent")
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    if any(v for row in m[r:] for v in row[r:]):
        return None  # some column of inner is outside the span of outer
    x = [row[r:] for row in m[:r]]
    if any(v.denominator != 1 for row in x for v in row):
        return None
    return abs(det([[int(v) for v in row] for row in x])) or None


def _factorint(n):
    """Prime factorization {p: e} of n >= 1 by trial division."""
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


def orders_normal_form(orders, free_rank=0):
    """(free rank, invariant factors) of Z^free_rank plus Z/m for each m in
    orders, an order 0 counting as Z: split every order into prime powers,
    then the k-th largest factor multiplies the k-th largest power of each
    prime."""
    by_prime = {}
    rank = free_rank
    for m in orders:
        m = abs(m)
        if m == 0:
            rank += 1
        elif m > 1:
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
    return rank, tuple(sorted(factors))


def group_bar_boundaries(table, n_max):
    """Boundary matrices of the standard bar complex of a finite group
    with trivial integer coefficients, degrees 1..n_max+1.

    Tuples are enumerated with itertools.product, independent of the
    package's nerve machinery.
    """
    k = len(table)
    tuples = {0: [()]}
    for n in range(1, n_max + 2):
        tuples[n] = sorted(product(range(k), repeat=n))
    index = {n: {t: i for i, t in enumerate(ts)} for n, ts in tuples.items()}
    mats = {}
    for n in range(1, n_max + 2):
        rows = len(tuples[n - 1])
        mat = [[0] * len(tuples[n]) for _ in range(rows)]
        for j, t in enumerate(tuples[n]):
            faces = [t[1:]]
            for i in range(1, n):
                faces.append(t[:i - 1] + (table[t[i - 1]][t[i]],) + t[i + 1:])
            faces.append(t[:-1])
            sign = 1
            for f in faces:
                mat[index[n - 1][f]][j] += sign
                sign = -sign
        mats[n] = mat
    return mats


def group_cochain_deltas(table, n_max):
    """Coboundary matrices of classical group cohomology with trivial
    integer coefficients, degrees 0..n_max."""
    k = len(table)
    tuples = {0: [()]}
    for n in range(1, n_max + 2):
        tuples[n] = sorted(product(range(k), repeat=n))
    index = {n: {t: i for i, t in enumerate(ts)} for n, ts in tuples.items()}
    deltas = {}
    for n in range(n_max + 1):
        rows = len(tuples[n + 1])
        mat = [[0] * len(tuples[n]) for _ in range(rows)]
        for r, t in enumerate(tuples[n + 1]):
            # trivial action: first face is just the tail
            mat[r][index[n][t[1:]]] += 1
            sign = -1
            for i in range(1, n + 1):
                face = t[:i - 1] + (table[t[i - 1]][t[i]],) + t[i + 1:]
                mat[r][index[n][face]] += sign
                sign = -sign
            mat[r][index[n][t[:-1]]] += sign
        deltas[n] = mat
    return deltas


def betti_over_field(groups, p):
    """Predicted dimension over F_p of (H tensor F_p) + Tor(H_below, F_p)
    for the homology of a complex of free groups, in degree order."""
    out = []
    for n, g in enumerate(groups):
        dim = g.free_rank + sum(1 for t in g.torsion if t % p == 0)
        if n > 0:
            dim += sum(1 for t in groups[n - 1].torsion if t % p == 0)
        out.append(dim)
    return out


def betti_over_field_cochain(groups, p):
    """Same for the cohomology of a cochain complex of free groups, where
    the Tor correction comes from one degree above; the last degree needs
    the group above it, so only len(groups) - 1 entries are predicted."""
    out = []
    for n in range(len(groups) - 1):
        g = groups[n]
        dim = g.free_rank + sum(1 for t in g.torsion if t % p == 0)
        dim += sum(1 for t in groups[n + 1].torsion if t % p == 0)
        out.append(dim)
    return out


def complex_betti(mats_out, mats_in, dims, field_rank):
    """Homology dimensions of a complex from rank computations alone.

    mats_out[n], mats_in[n] are the outgoing/incoming matrices at degree
    n (either may be None for zero), dims[n] the chain dimension.
    """
    out = []
    for n, dim in enumerate(dims):
        r_out = field_rank(mats_out[n]) if mats_out[n] is not None else 0
        r_in = field_rank(mats_in[n]) if mats_in[n] is not None else 0
        out.append(dim - r_out - r_in)
    return out


def group_groupoid_of_table(table):
    """The one-unit groupoid of a Cayley table, built directly: the
    composition is the table, every arrow has the identity as source and
    range, and inverses are found by search."""
    k = len(table)
    e = next(e for e in range(k) if all(table[e][x] == x == table[x][e] for x in range(k)))
    inv = [next(h for h in range(k) if table[g][h] == e == table[h][g]) for g in range(k)]
    comp = {(g, h): table[g][h] for g in range(k) for h in range(k)}
    return FiniteGroupoid([e] * k, [e] * k, comp, inv, [e])


def orbit_count(G):
    """Connected components of the unit space, by naive union-find."""
    parent = {u: u for u in G.units}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in range(G.n_arrows):
        a, b = find(G.src[g]), find(G.rng[g])
        if a != b:
            parent[a] = b
    return len({find(u) for u in G.units})


def full_scan_unit_pivots(rows):
    """The unit phase of the elimination engine by a scan of every row.

    rows holds one {column: value} dict per row and is not modified.
    Returns the (row, column) pivots, in order, of repeatedly taking the
    shortest live row that holds a +-1 entry, ties to the lower index, and
    in it the +-1 entry whose column has the fewest nonzeros in the live
    rows, ties to the lower column; the pivot row is subtracted from the
    other rows to clear its column, and is then no longer live.
    """
    rows = [dict(row) for row in rows]
    live = list(range(len(rows)))
    pivots = []
    while True:
        unit_rows = [i for i in live if any(v in (1, -1) for v in rows[i].values())]
        if not unit_rows:
            return pivots
        p = min(unit_rows, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        j = min((c for c, v in prow.items() if v in (1, -1)),
                key=lambda c: (sum(c in rows[i] for i in live), c))
        live.remove(p)
        for i in live:
            q = rows[i].get(j, 0) * prow[j]
            for c, v in prow.items():
                new = rows[i].get(c, 0) - q * v
                if new:
                    rows[i][c] = new
                else:
                    rows[i].pop(c, None)
        pivots.append((p, j))


def full_scan_pivot(eng, t):
    """The elimination engine's exact-order rule by a scan of every nonzero.

    Returns the (row, column) minimising (|v|, (len(row) - 1) * (len(col) - 1),
    row, column) over the active block rows, columns >= t of a `_Smith`
    engine, or None when that block is zero.  The engine applies this rule
    once the unit pivots are at the front, so from t = their number on.
    This is the engine's original selector, kept as the reference its
    incremental queue must agree with.
    """
    best = None
    best_key = None
    for j in range(t, eng.n):
        cidx = eng.colidx[j]
        if not cidx:
            continue
        clen = len(cidx)
        for i in cidx:
            if i < t:
                continue
            v = eng.rows[i][j]
            key = (abs(v), (len(eng.rows[i]) - 1) * (clen - 1), i, j)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, j)
    return best


# the engine's transform read-outs; every read of U, U^-1, V or V^-1 runs one
TRANSFORM_READOUTS = ("u_cols", "vinv_cols", "v_times", "uinv_times", "kernel_matrix")


def engine_factors(eng):
    """The factorization A = U * S * V of a `_Smith` engine, as an
    `SnfDecomposition`, each factor built from the engine's read-outs."""
    def from_cols(rows, cols):
        return IntMatrix.from_entries(rows, len(cols), ((i, j, v) for j, col in enumerate(cols)
                                                        for i, v in col.items()))
    m, n = eng.m, eng.n
    return zlinalg.SnfDecomposition(
        from_cols(m, eng.u_cols()),
        IntMatrix.from_entries(m, n, ((i, i, d) for i, d in enumerate(eng.diagonal()))),
        eng.v_times(IntMatrix.identity(n)), eng.uinv_times(IntMatrix.identity(m)),
        from_cols(n, eng.vinv_cols()))


def recording_engine(built):
    """A subclass of the elimination engine that appends each engine it
    builds to `built` and adds, to the engine's set `reads`, the name of
    every transform read-out run on it."""

    class Recording(zlinalg._Smith):
        def __init__(self, A):
            self.reads = set()
            built.append(self)
            super().__init__(A)

    for name in TRANSFORM_READOUTS:
        def read(self, *args, _name=name, _read=getattr(zlinalg._Smith, name)):
            self.reads.add(_name)
            return _read(self, *args)
        setattr(Recording, name, read)
    return Recording


def validate_module_on_all_pairs(G, M):
    """The module check run over every composable pair of G: fiber ranks,
    action shapes, unit actions, square actions with determinant +-1 on the
    non-units, M(g) M(h) = M(gh) on every pair and M(g) M(g^-1) = I.
    Returns (ok, axiom, witness) for the first failure."""
    for u in G.units:
        if u not in M.fiber_rank or M.fiber_rank[u] < 0:
            return False, "fiber-rank", (u,)
    for g in range(G.n_arrows):
        if g not in M.action:
            return False, "action-missing", (g,)
        a = M.action[g]
        if a.shape != (M.fiber_rank[G.rng[g]], M.fiber_rank[G.src[g]]):
            return False, "action-shape", (g,)
    for u in G.units:
        if M.action[u] != IntMatrix.identity(M.fiber_rank[u]):
            return False, "unit-action", (u,)
    for g in range(G.n_arrows):
        a = M.action[g]
        if not G.is_unit(g) and (a.rows != a.cols or abs(det(a.data)) != 1):
            return False, "unimodular", (g,)
    for (g, h), gh in G.comp.items():
        if M.action[g] * M.action[h] != M.action[gh]:
            return False, "action-functorial", (g, h)
    for g in range(G.n_arrows):
        if M.action[g] * M.action[G.inv[g]] != IntMatrix.identity(M.fiber_rank[G.rng[g]]):
            return False, "action-inverse", (g,)
    return True, None, None


def image_basis(A):
    """Basis of the image lattice of A (not saturated), as matrix columns.

    With A = U*S*V the image is spanned by the columns U[:, j] * d_j for
    j < rank, read off the factorization: these are the first rank
    columns of snf(A).U * snf(A).S.
    """
    eng = zlinalg._Smith(A)
    return IntMatrix._of_col_dicts(
        eng.m, [{i: d * v for i, v in col.items()}
                for col, d in zip(eng.u_cols(), eng.diagonal())])


def _with_orders(M, orders, sign):
    """M followed by one column sign * d * e_i for each nonzero d = orders[i]."""
    extra = [[sign * d if k == i else 0 for k in range(M.rows)]
             for i, d in enumerate(orders) if d]
    return IntMatrix.from_columns(M.column_list() + extra, M.rows)


def lattice_kernel_group(map_matrix, source_orders, target_orders):
    """Kernel of a map between presented groups by lattices: the preimage
    of the target relations is the projection of an integer kernel,
    reduced to a basis, and the source relations are solved in that basis.
    A map with a zero preimage lattice gives the trivial group unchecked."""
    ks = len(source_orders)
    pre = kernel_basis(_with_orders(map_matrix, target_orders, -1))
    basis = image_basis(IntMatrix.from_columns([c[:ks] for c in pre.column_list()], ks))
    if basis.cols == 0:
        return FgAbGroup.trivial()
    rel = LinearSystem(basis).solve_columns(_with_orders(IntMatrix.zeros(ks, 0), source_orders, 1))
    if rel is None:
        raise LinAlgError("induced map is not well defined on the quotient")
    facs = invariant_factors(rel)
    return FgAbGroup.from_invariant_factors(facs, free_rank=basis.cols - len(facs))


def truncated_threads(T, N):
    """The truncated threads of the inverse tower T to depth N, the kernel
    of the block matrix (x_n - A_n x_{n+1})_{n<N}, as a kernel basis whose
    columns stack the stage coordinates, and an image basis of their
    stage-0 coordinates."""
    offsets = [0]
    for n_stage in range(N + 1):
        offsets.append(offsets[-1] + T.rank_at(n_stage))
    # stage n's rows start at offsets[n], the column offset of x_n
    entries = []
    for n_stage in range(N):
        row0 = offsets[n_stage]
        entries.extend((row0 + i, row0 + i, 1) for i in range(T.rank_at(n_stage)))
        entries.extend((row0 + i, offsets[n_stage + 1] + j, -v)
                       for i, j, v in T.map_at(n_stage).entries())
    threads = kernel_basis(IntMatrix.from_entries(offsets[N], offsets[-1], entries))
    rank0 = T.rank_at(0)
    lim0 = image_basis(IntMatrix.from_columns(
        [col[:rank0] for col in threads.column_list()], rank0))
    return threads, lim0


def selection_matrix(coords, cols):
    """The len(coords) x cols matrix whose row i holds one 1, in column
    coords[i]."""
    return IntMatrix.from_entries(len(coords), cols, ((i, j, 1) for i, j in enumerate(coords)))


def theta_rho_by_products(thetas, rhos, cocycle_ds, hom_ds):
    """The failures of rho*theta = id and theta*rho = id in every degree of
    `thetas` and `rhos` (matrices), and of delta_c o theta = theta o delta
    in the degrees of the deltas, by matrix products, in the order
    `theta_rho_check` reports them."""
    failures = []
    for n, (theta, rho) in enumerate(zip(thetas, rhos)):
        if rho * theta != IntMatrix.identity(theta.cols):
            failures.append((n, "rho*theta != id"))
        if theta * rho != IntMatrix.identity(theta.rows):
            failures.append((n, "theta*rho != id"))
        if n < len(cocycle_ds) and cocycle_ds[n] * theta != thetas[n + 1] * hom_ds[n]:
            failures.append((n, "delta_c o theta != theta o delta"))
    return failures


def homology_face(G, t, i):
    """Face i of a composable n-string t, 0 <= i <= n, in every degree n >= 1:
    face 0 drops the first arrow, face n the last, and face i composes
    g_{i-1} g_i.  A 0-string is a unit, so the faces of (g,) are (src g,)
    and (rng g,)."""
    n = len(t)
    if n == 1:
        return ((G.src, G.rng)[i][t[0]],)
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[:i - 1] + (G.comp[(t[i - 1], t[i])],) + t[i + 1:]


def _cocycle_presentation(G, M, n):
    """H^n of the cocycle complex, the one degree of the two-term complex
    of delta_n and delta_{n-1} (a zero map into C^0 when n = 0)."""
    spaces = [cochain_space(G, M, k) for k in range(max(n - 1, 0), n + 2)]
    d_in = (_coboundary(G, M, n - 1, *spaces[:2]) if n
            else IntMatrix.zeros(spaces[0].total, 0))
    return ChainComplex([_coboundary(G, M, n, *spaces[-2:]), d_in], -1).presentations()[0]


def induced_cohomology_map(phi, M, n):
    """Contravariant induced map on degree-n cohomology presentations: its
    `source` is the target groupoid's cohomology, its `target` the source
    groupoid's, and its chain matrix maps target cochains to source cochains."""
    require_valid_functor(phi)
    chain = cochain_pullback_matrix(phi, M, n)
    src = _cocycle_presentation(phi.target, M, n)
    dst = _cocycle_presentation(phi.source, pullback_module(phi, M), n)
    return InducedMap(n, chain, src, dst, induced_on_homology(chain, src, dst))


def cocycle_from_potential(G, f):
    """The cocycle c(g) = f(r(g)) - f(s(g)) of a potential f on the units."""
    return ZCocycle(tuple(f[G.rng[g]] - f[G.src[g]] for g in range(G.n_arrows)))


def cocycle_potential(G, c):
    """A potential f on units with c(g) = f(r(g)) - f(s(g)).

    On a finite groupoid every integer cocycle is of this form (finite
    isotropy groups admit no nonzero homomorphism to Z).  It is read off
    the base arrows k_y: x -> y of `isotropy_inclusion`, f(y) = c(k_y), so
    it is 0 at the least unit x of each orbit.
    """
    f = {y: c(k) for y, k in isotropy_inclusion(G)[1].items()}
    for g in range(G.n_arrows):
        if c(g) != f[G.rng[g]] - f[G.src[g]]:
            raise GroupoidError("not a cocycle: no potential exists")
    return f


def permutation_module(cayley, perms, group=None):
    """Module over the group groupoid whose fiber is Z^X with g acting by
    its permutation matrix.  Coefficients of this kind turn groupoid
    cohomology of the transformation groupoid into group cohomology."""
    G = group if group is not None else group_groupoid(cayley)
    npts = len(perms[0])
    action = {g: IntMatrix.from_entries(npts, npts, ((perms[g][x], x, 1) for x in range(npts)))
              for g in range(G.n_arrows)}
    return GModule(G, {G.units[0]: npts}, action)
