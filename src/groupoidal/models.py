"""Constructors for the groupoids, modules, and dynamical data used in
computations and tests.

Arrow id layouts are fixed per constructor (documented on each) so that
every downstream matrix is reproducible bit for bit.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from .groupoids import (DegreeTooLarge, FiniteGroupoid, GModule, GroupoidError,
                        GroupoidFunctor, power_exceeds_cap, tuple_cap)
from .zlinalg import IntMatrix, LinearSystem


class NotAGroup(GroupoidError):
    pass


class NotSurjective(GroupoidError):
    pass


class NotAnAction(GroupoidError):
    pass


class MalformedDiagram(GroupoidError):
    pass


class DepthTooLarge(GroupoidError):
    pass


def space_groupoid(k: int) -> FiniteGroupoid:
    """k points with trivial multiplication; arrow i is the unit at point i."""
    if k < 1:
        raise ValueError("need at least one point")
    ids = list(range(k))
    comp = {(i, i): i for i in ids}
    return FiniteGroupoid(ids, ids, comp, ids, ids)


def group_groupoid(cayley: Sequence[Sequence[int]]) -> FiniteGroupoid:
    """One-unit groupoid from a k x k Cayley table; arrow i is element i.

    The identity element may sit anywhere in the table; it becomes the
    single unit.  The k^3 associativity checks are charged against the cap
    first.
    """
    k = len(cayley)
    if k < 1 or any(len(row) != k for row in cayley):
        raise NotAGroup("table is not square")
    if power_exceeds_cap(k, 3):
        raise DegreeTooLarge(f"a {k}-element table needs {k}^3 associativity checks, "
                             "more than the cap")
    table = [[int(v) for v in row] for row in cayley]
    for row in table:
        for v in row:
            if not (0 <= v < k):
                raise NotAGroup("entry out of range")
    identity = None
    for e in range(k):
        if all(table[e][x] == x and table[x][e] == x for x in range(k)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inv = [None] * k
    for g in range(k):
        for h in range(k):
            if table[g][h] == identity and table[h][g] == identity:
                inv[g] = h
                break
        if inv[g] is None:
            raise NotAGroup(f"element {g} has no inverse")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup(f"associativity fails at {(a, b, c)}")
    comp = {(g, h): table[g][h] for g in range(k) for h in range(k)}
    src = [identity] * k
    return FiniteGroupoid(src, src, comp, inv, [identity])


def cyclic_table(k: int) -> List[List[int]]:
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def require_pair_cap(fiber_sizes: Iterable[int]) -> None:
    """Raise GroupoidError when the pair groupoid on fibers of these sizes
    has more than tuple_cap() composable pairs (k^3 per fiber of size k).
    The sum stops once it passes the cap, and the message names the fibers,
    not the sum, which can have too many digits to print."""
    limit = tuple_cap()
    composable = 0
    for x, k in enumerate(fiber_sizes):
        composable += k ** 3
        if composable > limit:
            raise GroupoidError(f"pair fibers 0..{x} have more than {limit} composable pairs "
                                "(the cap)")


def pair_groupoid_from_map(psi: Sequence[int]) -> FiniteGroupoid:
    """Equivalence-relation groupoid of a surjection psi: Y -> X.

    psi is given by its list of values on Y = {0..len-1}; X is the set of
    values, which must be exactly {0..max}.  Arrows are the pairs (y1, y2)
    with psi(y1) = psi(y2), ordered lexicographically; (y1,y2)(y2,y3) =
    (y1,y3).  Unit at y is the pair (y, y).  The sum over the fibers of
    k_x^3 composable pairs is checked against tuple_cap() before anything
    is built (`require_pair_cap`).
    """
    yy = len(psi)
    if yy == 0:
        raise NotSurjective("empty domain")
    values = sorted(set(psi))
    if values != list(range(len(values))):
        raise NotSurjective(f"values {values} are not an initial segment")
    fibers = [[] for _ in values]
    for y, x in enumerate(psi):
        fibers[x].append(y)
    require_pair_cap(map(len, fibers))
    pairs = [(y1, y2) for y1 in range(yy) for y2 in fibers[psi[y1]]]
    index = {p: i for i, p in enumerate(pairs)}
    units = [index[(y, y)] for y in range(yy)]
    src = [index[(y2, y2)] for (_, y2) in pairs]
    rng = [index[(y1, y1)] for (y1, _) in pairs]
    inv = [index[(y2, y1)] for (y1, y2) in pairs]
    comp = {(i, index[(b, d)]): index[(a, d)]
            for i, (a, b) in enumerate(pairs) for d in fibers[psi[b]]}
    return FiniteGroupoid(src, rng, comp, inv, units)


def full_pair_groupoid(k: int) -> FiniteGroupoid:
    """Pair groupoid on k points: R of the constant map."""
    return pair_groupoid_from_map([0] * k)


def action_groupoid(cayley: Sequence[Sequence[int]],
                    perms: Sequence[Sequence[int]]) -> FiniteGroupoid:
    """Transformation groupoid of a finite group action on a finite set.

    perms[g] is the permutation of X given by element g of the Cayley
    table.  Arrow id is g*|X| + x for the arrow (g, x): src = x,
    rng = g.x, and (g1, g2.x)(g2, x) = (g1 g2, x).  Units are (e, x).  The
    k^2 |X| checks of the action law are charged against the cap first.
    """
    group = group_groupoid(cayley)
    k = len(cayley)
    if len(perms) != k:
        raise NotAnAction("one permutation per group element required")
    npts = len(perms[0]) if perms else 0
    if npts == 0:
        raise NotAnAction("empty set")
    if k * k * npts > tuple_cap():
        raise DegreeTooLarge(f"{k} elements on {npts} points need {k}^2 * {npts} action "
                             "checks, more than the cap")
    for p in perms:
        if sorted(p) != list(range(npts)):
            raise NotAnAction(f"{p} is not a permutation")
    e = group.units[0]
    if list(perms[e]) != list(range(npts)):
        raise NotAnAction("identity must act trivially")
    for g1 in range(k):
        for g2 in range(k):
            g12 = cayley[g1][g2]
            for x in range(npts):
                if perms[g1][perms[g2][x]] != perms[g12][x]:
                    raise NotAnAction(f"action fails at {(g1, g2, x)}")
    n = k * npts
    aid = lambda g, x: g * npts + x
    src = [0] * n
    rng = [0] * n
    inv = [0] * n
    for g in range(k):
        for x in range(npts):
            i = aid(g, x)
            src[i] = aid(e, x)
            rng[i] = aid(e, perms[g][x])
            ginv = next(h for h in range(k) if cayley[h][g] == e)
            inv[i] = aid(ginv, perms[g][x])
    comp = {}
    for g1 in range(k):
        for g2 in range(k):
            g12 = cayley[g1][g2]
            for x in range(npts):
                comp[(aid(g1, perms[g2][x]), aid(g2, x))] = aid(g12, x)
    units = [aid(e, x) for x in range(npts)]
    return FiniteGroupoid(src, rng, comp, inv, units)


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Block union; arrows of G2 are shifted by G1.n_arrows."""
    off = G1.n_arrows
    src = list(G1.src) + [s + off for s in G2.src]
    rng = list(G1.rng) + [r + off for r in G2.rng]
    inv = list(G1.inv) + [i + off for i in G2.inv]
    comp = dict(G1.comp)
    for (g, h), gh in G2.comp.items():
        comp[(g + off, h + off)] = gh + off
    units = list(G1.units) + [u + off for u in G2.units]
    return FiniteGroupoid(src, rng, comp, inv, units)


def inclusion_functor_left(G1: FiniteGroupoid, union: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(G1, union, list(range(G1.n_arrows)))


def constant_functor(G: FiniteGroupoid, point: FiniteGroupoid) -> GroupoidFunctor:
    """Collapse everything to the unique unit of a one-point groupoid."""
    if point.n_arrows != 1:
        raise GroupoidError("target must be a single point")
    return GroupoidFunctor(G, point, [0] * G.n_arrows)


# -- modules ----------------------------------------------------------------


def constant_module(G: FiniteGroupoid, rank: int = 1) -> GModule:
    """Constant coefficients: every fiber Z^rank, every action the identity."""
    ident = IntMatrix.identity(rank)
    return GModule(G, {u: rank for u in G.units},
                   {g: ident for g in range(G.n_arrows)})


def sign_module(G: FiniteGroupoid) -> GModule:
    """Rank-1 module where every non-unit arrow acts by -1.

    Only multiplicative when composing two non-units always lands on a
    unit (order-2 behaviour); raises ValueError otherwise.
    """
    for (g, h), gh in G.comp.items():
        sg = -1 if not G.is_unit(g) else 1
        sh = -1 if not G.is_unit(h) else 1
        sgh = -1 if not G.is_unit(gh) else 1
        if sg * sh != sgh:
            raise ValueError("sign character is not multiplicative here")
    return GModule(G, {u: 1 for u in G.units},
                   {g: IntMatrix.from_rows([[-1]]) if not G.is_unit(g)
                    else IntMatrix.identity(1) for g in range(G.n_arrows)})


def permutation_module(cayley: Sequence[Sequence[int]],
                       perms: Sequence[Sequence[int]],
                       group: Optional[FiniteGroupoid] = None) -> GModule:
    """Module over the group groupoid whose fiber is Z^X with g acting by
    its permutation matrix.  Coefficients of this kind turn groupoid
    cohomology of the transformation groupoid into group cohomology."""
    G = group if group is not None else group_groupoid(cayley)
    npts = len(perms[0])
    action = {g: IntMatrix.from_entries(npts, npts, ((perms[g][x], x, 1) for x in range(npts)))
              for g in range(G.n_arrows)}
    return GModule(G, {G.units[0]: npts}, action)


# -- Bratteli diagrams -------------------------------------------------------


class BratteliDiagram:
    """Vertex counts per level and edge multiplicity matrices between them.

    matrices[l] has shape (counts[l+1], counts[l]): entry (w, v) is the
    number of edges from vertex v at level l to vertex w at level l+1.
    """

    def __init__(self, vertex_counts: Sequence[int],
                 matrices: Sequence[IntMatrix], stationary: bool = False):
        self.vertex_counts = tuple(int(c) for c in vertex_counts)
        self.matrices = tuple(matrices)
        self.stationary = stationary
        if len(self.matrices) != len(self.vertex_counts) - 1:
            raise MalformedDiagram("level/matrix count mismatch")
        for c in self.vertex_counts:
            if c < 1:
                raise MalformedDiagram("empty level")
        for l, m in enumerate(self.matrices):
            if m.shape != (self.vertex_counts[l + 1], self.vertex_counts[l]):
                raise MalformedDiagram(f"matrix {l} has shape {m.shape}")
            nonzeros = list(m.entries())
            if any(v < 0 for _, _, v in nonzeros):
                raise MalformedDiagram("negative multiplicity")
            reached = {i for i, _, _ in nonzeros}
            for i in range(m.rows):
                if i not in reached:
                    raise MalformedDiagram(f"vertex {i} at level {l+1} unreached")
            parents = {j for _, j, _ in nonzeros}
            for j in range(m.cols):
                if j not in parents:
                    raise MalformedDiagram(f"vertex {j} at level {l} childless")

    @property
    def levels(self) -> int:
        return len(self.vertex_counts)


def bratteli_stationary(multiplicity, levels: int) -> BratteliDiagram:
    """Stationary diagram: an integer p means one vertex with p edges per
    level; a square matrix is repeated at every level."""
    if levels < 1:
        raise MalformedDiagram("need at least one level of edges")
    if isinstance(multiplicity, int):
        m = IntMatrix.from_rows([[multiplicity]])
    else:
        m = multiplicity if isinstance(multiplicity, IntMatrix) \
            else IntMatrix.from_rows(multiplicity)
        if m.rows != m.cols:
            raise MalformedDiagram("stationary matrix must be square")
    if (levels + 1) * m.rows > tuple_cap():
        raise DepthTooLarge(f"{levels + 1} vertex levels x {m.rows} vertices exceeds cap")
    counts = [m.rows] * (levels + 1)
    return BratteliDiagram(counts, [m] * levels, stationary=True)


# -- odometers ---------------------------------------------------------------


# Work units per cylinder point of an odometer tower.  Factoring, presenting
# and refining a depth costs about 45-50 us and 3 KiB per point (p from 2 to
# 30000, one 2-vCPU x86 box), the time of about 16 units of nerve work;
# counting 50 keeps the largest tower the default cap admits, about 40,000
# points, near 2 s and 130 MiB.
ODOMETER_POINT_WORK = 50


def odometer_system(p: int, depth: int) -> "OdometerSystem":
    """Coherent add-one-with-carry permutations on p^d cylinders.

    Cylinder index at depth d encodes digits least-significant first:
    index = a_1 + a_2 p + ... + a_d p^(d-1), so adding one with carry is
    index + 1 mod p^d.  Refinement appends one digit: cylinder i at depth
    d refines to {i + a p^d : a < p} at depth d+1.

    Every depth's id - P gets factored, so the cap counts the points of
    all depths, p + p^2 + ... + p^depth, at ODOMETER_POINT_WORK each.  The
    sum stops once it passes the cap, so p^depth is never built.
    """
    if p < 2:
        raise ValueError("base must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    limit = tuple_cap()
    points, size = 0, 1
    for _ in range(depth):
        size *= p
        points += size
        if points * ODOMETER_POINT_WORK > limit:
            raise DepthTooLarge(f"the odometer for p = {p} to depth {depth} has more than "
                                f"{limit // ODOMETER_POINT_WORK} points (the cap)")
    return OdometerSystem(p, depth)


class OdometerSystem:
    def __init__(self, p: int, depth: int):
        self.p = p
        self.depth = depth

    def permutation(self, d: int) -> List[int]:
        n = self.p ** d
        return [(i + 1) % n for i in range(n)]

    def refinement(self, d: int) -> IntMatrix:
        """Inclusion of depth-d cylinders as sums of depth-(d+1) cylinders."""
        n = self.p ** d
        return IntMatrix.from_entries(self.p * n, n,
                                      ((i + a * n, i, 1) for i in range(n) for a in range(self.p)))

    def truncation(self, d: int) -> List[int]:
        """Depth-(d+1) cylinder index -> its depth-d cylinder."""
        n = self.p ** d
        return [j % n for j in range(self.p * n)]


# -- randomized valid instances ----------------------------------------------


def _random_unimodular(rng: random.Random, r: int, steps: int = 4) -> IntMatrix:
    m = [[int(a == b) for b in range(r)] for a in range(r)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if r == 1:
            if kind == 0:
                m[0][0] *= -1
            continue
        i, j = rng.sample(range(r), 2)
        if kind == 0:
            c = rng.choice([-1, 1])
            for k in range(r):
                m[i][k] += c * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-v for v in m[i]]
    return IntMatrix.from_rows(m)


def random_groupoid(rng: random.Random, max_arrows: int = 20) -> FiniteGroupoid:
    """Rejection-sampled disjoint union of small valid building blocks."""
    while True:
        k = rng.randint(1, 3)
        parts = []
        for _ in range(k):
            kind = rng.randrange(5)
            if kind == 0:
                parts.append(space_groupoid(rng.randint(1, 3)))
            elif kind == 1:
                parts.append(group_groupoid(cyclic_table(rng.randint(2, 4))))
            elif kind == 2:
                parts.append(full_pair_groupoid(rng.randint(2, 3)))
            elif kind == 3:
                parts.append(action_groupoid(cyclic_table(2), [[0, 1], [1, 0]]))
            else:
                parts.append(action_groupoid(cyclic_table(3),
                                             [[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
        g = parts[0]
        for part in parts[1:]:
            g = disjoint_union(g, part)
        if g.n_arrows <= max_arrows:
            return g


def random_module(G: FiniteGroupoid, rng: random.Random, max_rank: int = 2) -> GModule:
    """Random valid module: per-orbit rank, conjugated-constant actions,
    optionally twisted by the sign character when it is multiplicative."""
    try:
        sign = sign_module(G)
        use_sign = rng.random() < 0.5
    except ValueError:
        sign = None
        use_sign = False
    ranks = {}
    for orbit in G.orbits():
        r = rng.randint(1, max_rank)
        for u in orbit:
            ranks[u] = r
    conj = {u: _random_unimodular(rng, ranks[u], steps=rng.randint(2, 5))
            for u in G.units}
    conj_solve = {u: _inverse_unimodular(conj[u]) for u in G.units}
    action = {}
    for g in range(G.n_arrows):
        m = conj[G.rng[g]] * conj_solve[G.src[g]]
        if use_sign and sign is not None and not G.is_unit(g):
            m = m.scaled(-1)
        action[g] = m
    return GModule(G, ranks, action)


def _inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    inv = LinearSystem(m).solve_columns(IntMatrix.identity(m.rows))
    if inv is None:
        raise ValueError("matrix is not unimodular")
    return inv
