"""Constructors for the groupoids, modules, and dynamical data used in
computations and tests.

Arrow id layouts are fixed per constructor (documented on each) so that
every downstream matrix is reproducible bit for bit.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from .groupoids import Budget, FiniteGroupoid, GModule, GroupoidError, GroupoidFunctor
from .zlinalg import IntMatrix


class NotAGroup(GroupoidError):
    pass


class NotSurjective(GroupoidError):
    pass


class NotAnAction(GroupoidError):
    pass


class MalformedDiagram(GroupoidError):
    pass


def space_groupoid(k: int) -> FiniteGroupoid:
    """k points with trivial multiplication, the pair groupoid of the
    identity map of k points; arrow i is the unit at point i."""
    if k < 1:
        raise ValueError("need at least one point")
    return pair_groupoid_from_map(range(k))


def group_groupoid(cayley: Sequence[Sequence[int]]) -> FiniteGroupoid:
    """One-unit groupoid from a k x k Cayley table, the action groupoid of
    the group on one point; arrow i is element i, and the identity element,
    wherever it sits in the table, is the single unit."""
    return action_groupoid(cayley, [[0]] * len(cayley))


def cyclic_table(k: int) -> List[List[int]]:
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def pair_groupoid_from_map(psi: Iterable[int]) -> FiniteGroupoid:
    """Equivalence-relation groupoid of a surjection psi: Y -> X.

    psi is given by its values on Y = {0..len-1}, in order; X is the set of
    values, which must be exactly {0..max}.  Arrows are the pairs (y1, y2)
    with psi(y1) = psi(y2), ordered lexicographically; (y1,y2)(y2,y3) =
    (y1,y3).  Unit at y is the pair (y, y).  The values are read one at a
    time, and a point joining a fiber of k points is charged the
    (k + 1)^3 - k^3 composable pairs it adds, so the fibers' k_x^3 pairs
    are charged to a `Budget` before anything is built, and psi given as
    an iterator is never listed past the cap.
    """
    budget = Budget("the composable pairs of the pair fibers")
    points, by_value = [], {}
    for y, x in enumerate(psi):
        fiber = by_value.setdefault(x, [])
        k = len(fiber)
        budget.charge(3 * k * k + 3 * k + 1)
        fiber.append(y)
        points.append(x)
    psi, yy = points, len(points)
    if yy == 0:
        raise NotSurjective("empty domain")
    values = sorted(by_value)
    if values != list(range(len(values))):
        raise NotSurjective(f"values {values} are not an initial segment")
    fibers = [by_value[x] for x in values]
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

    perms[g] is the permutation of X given by element g of the k x k
    Cayley table, whose identity element may sit anywhere.  Arrow id is
    g*|X| + x for the arrow (g, x): src = x, rng = g.x, and
    (g1, g2.x)(g2, x) = (g1 g2, x).  Units are (e, x).  The table's k^3
    associativity checks, then the k^2 |X| checks of the action law, are
    each charged to a `Budget` before they run, and each arrow's inverse
    is read off the table's inverses.
    """
    k = len(cayley)
    if k < 1 or any(len(row) != k for row in cayley):
        raise NotAGroup("table is not square")
    Budget(f"the associativity checks of a {k}-element table").charge(k ** 3)
    table = [[int(v) for v in row] for row in cayley]
    for row in table:
        for v in row:
            if not (0 <= v < k):
                raise NotAGroup("entry out of range")
    e = next((e for e in range(k)
              if all(table[e][x] == x and table[x][e] == x for x in range(k))), None)
    if e is None:
        raise NotAGroup("no identity element")
    ginv = [None] * k
    for g in range(k):
        ginv[g] = next((h for h in range(k) if table[g][h] == e and table[h][g] == e), None)
        if ginv[g] is None:
            raise NotAGroup(f"element {g} has no inverse")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup(f"associativity fails at {(a, b, c)}")
    if len(perms) != k:
        raise NotAnAction("one permutation per group element required")
    npts = len(perms[0])
    if npts == 0:
        raise NotAnAction("empty set")
    Budget(f"the action checks of {k} elements on {npts} points").charge(k * k * npts)
    for p in perms:
        if sorted(p) != list(range(npts)):
            raise NotAnAction(f"{p} is not a permutation")
    if list(perms[e]) != list(range(npts)):
        raise NotAnAction("identity must act trivially")
    for g1 in range(k):
        for g2 in range(k):
            g12 = table[g1][g2]
            for x in range(npts):
                if perms[g1][perms[g2][x]] != perms[g12][x]:
                    raise NotAnAction(f"action fails at {(g1, g2, x)}")
    aid = lambda g, x: g * npts + x
    src = [aid(e, x) for g in range(k) for x in range(npts)]
    rng = [aid(e, perms[g][x]) for g in range(k) for x in range(npts)]
    inv = [aid(ginv[g], perms[g][x]) for g in range(k) for x in range(npts)]
    comp = {(aid(g1, perms[g2][x]), aid(g2, x)): aid(table[g1][g2], x)
            for g1 in range(k) for g2 in range(k) for x in range(npts)}
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
    Budget(f"{levels + 1} vertex levels of {m.rows} vertices").charge((levels + 1) * m.rows)
    counts = [m.rows] * (levels + 1)
    return BratteliDiagram(counts, [m] * levels, stationary=True)


# -- odometers ---------------------------------------------------------------


# Work units per cylinder point of an odometer tower.  Factoring, presenting
# and refining a depth costs about 10-12 us and 1.5-2.2 KiB per point
# (whole process at p = 2, 34, 199 and 30000, one 2-vCPU x86 box); counting
# 50 keeps the largest tower the default cap admits, about 40,000 points
# (`odometer --p 199 --max-depth 2`), near 0.6 s and 105 MiB.
ODOMETER_POINT_WORK = 50


def odometer_system(p: int, depth: int) -> "OdometerSystem":
    """Coherent add-one-with-carry permutations on p^d cylinders.

    Cylinder index at depth d encodes digits least-significant first:
    index = a_1 + a_2 p + ... + a_d p^(d-1), so adding one with carry is
    index + 1 mod p^d.  Refinement appends one digit: cylinder i at depth
    d refines to {i + a p^d : a < p} at depth d+1.

    Every depth's id - P gets factored, so the points of all depths,
    p + p^2 + ... + p^depth, are charged at ODOMETER_POINT_WORK each.  The
    charge stops once it passes the cap, so p^depth is never built.
    """
    if p < 2:
        raise ValueError("base must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # terse, so the error line stays under 300 characters with 100-digit flags
    budget = Budget(f"odometer depths 1..{depth}, p = {p}")
    size = 1
    for _ in range(depth):
        size *= p
        budget.charge(size * ODOMETER_POINT_WORK)
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


def _random_unimodular(rng: random.Random, r: int,
                       steps: int) -> Tuple[IntMatrix, IntMatrix]:
    """A random unimodular r x r matrix, `steps` elementary row operations
    applied to the identity, and its inverse, the inverse of each operation
    applied to the columns of the identity in the same order."""
    m = [[int(a == b) for b in range(r)] for a in range(r)]
    inv = [[int(a == b) for b in range(r)] for a in range(r)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if r == 1:
            if kind == 0:
                m[0][0] *= -1
                inv[0][0] *= -1
            continue
        i, j = rng.sample(range(r), 2)
        if kind == 0:
            c = rng.choice([-1, 1])
            for k in range(r):
                m[i][k] += c * m[j][k]
                inv[k][j] -= c * inv[k][i]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            m[i] = [-v for v in m[i]]
            for row in inv:
                row[i] = -row[i]
    return IntMatrix.from_rows(m), IntMatrix.from_rows(inv)


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
    action = {}
    for g in range(G.n_arrows):
        m = conj[G.rng[g]][0] * conj[G.src[g]][1]
        if use_sign and sign is not None and not G.is_unit(g):
            m = m.scaled(-1)
        action[g] = m
    return GModule(G, ranks, action)

