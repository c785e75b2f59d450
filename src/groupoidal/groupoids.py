"""Finite groupoids, modules over them, nerves, and boundary matrices.

A finite groupoid is stored as explicit tables: arrows are the integers
0..n-1, some of which are units; src/rng map arrows to units; comp is the
partial composition table, defined exactly when src(g) = rng(h) (so gh
means "g after h").  All boundary and bar-resolution matrices are written
in the lexicographic nerve bases, which makes every matrix reproducible
bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .zlinalg import IntMatrix, invariant_factors

DEFAULT_CAP = 2_000_000


class GroupoidError(Exception):
    pass


class DegreeTooLarge(GroupoidError):
    """A nerve enumeration would exceed the configured tuple cap."""


class InvalidFunctor(GroupoidError):
    pass


def tuple_cap() -> int:
    """The work cap: GROUPOIDAL_CAP if set, else DEFAULT_CAP.  Every size
    check reads it here; a value that is not a positive integer is refused."""
    env = os.environ.get("GROUPOIDAL_CAP")
    try:
        cap = int(env) if env else DEFAULT_CAP
    except ValueError:  # not an integer, or too many digits to convert
        cap = 0
    if cap < 1:
        raise GroupoidError(f"GROUPOIDAL_CAP must be a positive integer, got {env!r}")
    return cap


def power_exceeds_cap(base: int, exponent: int) -> bool:
    """Whether base**exponent, for base >= 2, passes tuple_cap(): found by a
    product that stops once it passes the cap, so the power is never built."""
    limit = tuple_cap()
    size = 1
    for _ in range(exponent):
        size *= base
        if size > limit:
            return True
    return False


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok

    def message(self) -> str:
        if self.ok:
            return "ok"
        return f"violated {self.axiom} at {self.witness}"


class FiniteGroupoid:
    """Explicit arrows/units/source/range/composition/inverse tables."""

    def __init__(self, src: Sequence[int], rng: Sequence[int],
                 comp: Dict[Tuple[int, int], int], inv: Sequence[int],
                 units: Iterable[int]):
        self.src = tuple(src)
        self.rng = tuple(rng)
        self.comp = dict(comp)
        self.inv = tuple(inv)
        self.units = tuple(sorted(units))
        self.n_arrows = len(self.src)
        self._unit_pos = {u: i for i, u in enumerate(self.units)}
        self._is_unit = [False] * self.n_arrows
        for u in self.units:
            self._is_unit[u] = True
        by_rng: Dict[int, List[int]] = {u: [] for u in self.units}
        by_src: Dict[int, List[int]] = {u: [] for u in self.units}
        for g in range(self.n_arrows):
            by_rng[self.rng[g]].append(g)
            by_src[self.src[g]].append(g)
        self.arrows_by_rng = {u: tuple(v) for u, v in by_rng.items()}
        self.arrows_by_src = {u: tuple(v) for u, v in by_src.items()}
        self._nerves: Dict[int, "Nerve"] = {}

    @property
    def n_units(self) -> int:
        return len(self.units)

    def is_unit(self, g: int) -> bool:
        return self._is_unit[g]

    def orbits(self) -> List[tuple]:
        """Partition of the units into connected components."""
        parent = {u: u for u in self.units}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in range(self.n_arrows):
            a, b = find(self.src[g]), find(self.rng[g])
            if a != b:
                parent[a] = b
        groups: Dict[int, List[int]] = {}
        for u in self.units:
            groups.setdefault(find(u), []).append(u)
        return [tuple(sorted(v)) for _, v in sorted(groups.items())]

    def __repr__(self):
        return f"FiniteGroupoid({self.n_arrows} arrows, {self.n_units} units)"


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom; report the first violation with witnesses.
    The composable triples, whose associativity is checked, are counted
    first, and DegreeTooLarge is raised if they pass the cap."""
    n = G.n_arrows
    for u in G.units:
        if not (0 <= u < n):
            return ValidationReport(False, "unit-range", (u,))
        if G.src[u] != u or G.rng[u] != u:
            return ValidationReport(False, "unit-endpoints", (u,))
    for g in range(n):
        if G.src[g] not in G._unit_pos or G.rng[g] not in G._unit_pos:
            return ValidationReport(False, "endpoints-are-units", (g,))
    # composition defined exactly on matching pairs, with matching endpoints
    for (g, h), gh in G.comp.items():
        if G.src[g] != G.rng[h]:
            return ValidationReport(False, "composable-domain", (g, h))
        if not (0 <= gh < n):
            return ValidationReport(False, "composition-range", (g, h))
        if G.src[gh] != G.src[h] or G.rng[gh] != G.rng[g]:
            return ValidationReport(False, "composition-endpoints", (g, h))
    for g in range(n):
        for h in G.arrows_by_rng[G.src[g]]:
            if (g, h) not in G.comp:
                return ValidationReport(False, "composition-totality", (g, h))
    for g in range(n):
        if G.comp[(G.rng[g], g)] != g:
            return ValidationReport(False, "left-identity", (g,))
        if G.comp[(g, G.src[g])] != g:
            return ValidationReport(False, "right-identity", (g,))
    for g in range(n):
        gi = G.inv[g]
        if not (0 <= gi < n):
            return ValidationReport(False, "inverse-range", (g,))
        if G.src[gi] != G.rng[g] or G.rng[gi] != G.src[g]:
            return ValidationReport(False, "inverse-endpoints", (g,))
        if G.comp[(g, gi)] != G.rng[g] or G.comp[(gi, g)] != G.src[g]:
            return ValidationReport(False, "inverse-law", (g,))
    # pairs[u]: the composable pairs (h, k) with rng(h) = u, not built
    pairs = {u: sum(len(G.arrows_by_rng[G.src[h]]) for h in hs)
             for u, hs in G.arrows_by_rng.items()}
    if sum(pairs[G.src[g]] for g in range(n)) > tuple_cap():
        raise DegreeTooLarge(f"{n} arrows have more composable triples than the cap")
    for g in range(n):
        for h in G.arrows_by_rng[G.src[g]]:
            gh = G.comp[(g, h)]
            for k in G.arrows_by_rng[G.src[h]]:
                if G.comp[(gh, k)] != G.comp[(g, G.comp[(h, k)])]:
                    return ValidationReport(False, "associativity", (g, h, k))
    return ValidationReport(True)


@dataclass(frozen=True)
class Nerve:
    """Complete enumeration of the composable n-strings, in lex order."""

    degree: int
    tuples: tuple
    index: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.tuples)


def nerve(G: FiniteGroupoid, n: int) -> Nerve:
    """The composable n-strings: every unit in degree 0, and above it the
    strings (g_1, ..., g_n) with src(g_i) = rng(g_{i+1})."""
    if n < 0:
        raise ValueError("nerve degree must be >= 0")
    limit = tuple_cap()
    if n in G._nerves:
        cached = G._nerves[n]
        if len(cached) > limit:
            raise DegreeTooLarge(f"nerve degree {n} exceeds cap {limit}")
        return cached
    if n == 0:
        tuples = tuple((u,) for u in G.units)
    elif n == 1:
        tuples = tuple((g,) for g in range(G.n_arrows))
    else:
        prev = nerve(G, n - 1).tuples
        out = []
        count = 0
        for t in prev:
            # arrows h with rng(h) = src(last) extend the string on the right
            tail = G.arrows_by_rng[G.src[t[-1]]]
            count += len(tail)
            if count > limit:
                raise DegreeTooLarge(
                    f"nerve degree {n} exceeds cap {limit}")
            for h in tail:
                out.append(t + (h,))
        tuples = tuple(out)
    if len(tuples) > limit:
        raise DegreeTooLarge(f"nerve degree {n} exceeds cap {limit}")
    nv = Nerve(n, tuples, {t: i for i, t in enumerate(tuples)})
    G._nerves[n] = nv
    return nv


def require_nerve_work(G: FiniteGroupoid, top: int, ranks: Optional[Dict[int, int]] = None,
                       copies: int = 1) -> int:
    """The work of degrees 0..top; raise DegreeTooLarge if it passes the cap.

    An n-string has n + 1 faces of about n entries each, so degree n costs
    about (n + 1)^2 per string, plus with module `ranks` the rank of its
    cochain block, at the range of its first arrow.  The string counts come
    from the number of n-strings ending at each unit u (whose last arrow
    starts at u; the 0-string (u,) ends at u), updated one degree at a time
    over the arrows; reversing a string shows as many start at u.  Each
    degree costs at least one string's (n + 1)^2, even with no string, so
    a huge degree is refused whatever the groupoid.  Each string counts
    `copies` times.  No string is built, and the count stops once the total
    passes the cap.
    """
    limit = tuple_cap()
    ends = dict.fromkeys(G.units, 1)
    total = 0
    for n in range(top + 1):
        if n:
            # h extends the strings ending at rng(h) to strings ending at src(h)
            ends = {u: sum(ends[G.rng[h]] for h in G.arrows_by_src[u]) for u in G.units}
        total += copies * max((n + 1) ** 2,
                              sum(k * ((n + 1) ** 2 + (ranks[u] if ranks else 0))
                                  for u, k in ends.items()))
        if total > limit:
            raise DegreeTooLarge(
                f"nerve degrees 0..{top} need more than {limit} entries of work (the cap)")
    return total


def require_module_work(G: FiniteGroupoid, ranks: Dict[int, int]) -> int:
    """The work of `validate_module` on a module with fiber `ranks`: one
    product of up to rank^3 entries for every arrow of G and every
    composable pair of its isotropy groups; raise DegreeTooLarge if it
    passes the cap."""
    i, _ = isotropy_inclusion(G)
    H = i.source
    total = (sum(1 + ranks[G.rng[g]] ** 3 for g in range(G.n_arrows))
             + sum(len(H.arrows_by_src[x]) ** 2 * (1 + ranks[i(x)] ** 3) for x in H.units))
    limit = tuple_cap()
    if total > limit:
        raise DegreeTooLarge(f"validating the module needs more than {limit} entries "
                             "of work (the cap)")
    return total


def homology_face(G: FiniteGroupoid, t: tuple, i: int) -> tuple:
    """Face i of a composable n-string t, 0 <= i <= n, in every degree n >= 1.

    Face 0 drops the first arrow, face n the last, and face i composes
    g_{i-1} g_i.  A 0-string is a unit, so the faces of (g,) are (src g,)
    and (rng g,).
    """
    n = len(t)
    if n == 1:
        return ((G.src, G.rng)[i][t[0]],)
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[:i - 1] + (G.comp[(t[i - 1], t[i])],) + t[i + 1:]


def boundary_matrix_d(G: FiniteGroupoid, n: int) -> IntMatrix:
    """Matrix of d_n from degree-n chains to degree-(n-1) chains: the
    alternating sum of pushforwards along the faces, so d_1 is pushforward
    along the source minus pushforward along the range."""
    if n < 1:
        raise ValueError("boundary degree must be >= 1")
    nv_to = nerve(G, n - 1)
    nv_from = nerve(G, n)
    index = nv_to.index
    return IntMatrix.from_entries(
        len(nv_to), len(nv_from),
        ((index[homology_face(G, t, i)], j, -1 if i % 2 else 1)
         for j, t in enumerate(nv_from.tuples) for i in range(n + 1)))


def bar_boundary_matrix_b(G: FiniteGroupoid, n: int) -> IntMatrix:
    """Matrix of b_n from degree-(n+1) strings to degree-n strings.

    b_n is the alternating sum of faces 1..n+1 of the (n+1)-string, which
    compose an adjacent pair or drop the last entry, never touching the
    leading arrow's range.  So b_0 is pushforward along the range: that is
    the unique augmentation with b_0 * b_1 = 0, and the resulting complex
    is exact, split by the contraction
    (g_0,...,g_{n-1}) -> (r(g_0), g_0, ..., g_{n-1}).
    """
    if n < 0:
        raise ValueError("bar degree must be >= 0")
    nv_from = nerve(G, n + 1)
    nv_to = nerve(G, n)
    index = nv_to.index
    return IntMatrix.from_entries(
        len(nv_to), len(nv_from),
        ((index[homology_face(G, t, i)], j, 1 if i % 2 else -1)
         for j, t in enumerate(nv_from.tuples) for i in range(1, n + 2)))


def coinvariants_collapse(G: FiniteGroupoid, n: int) -> IntMatrix:
    """Matrix of the coinvariants identification of (n+1)-strings with n-strings.

    Sends a string to its face 0: its tail, or for a single arrow its
    source unit.  It intertwines the bar differentials with the homology
    differentials.
    """
    if n < 0:
        raise ValueError("collapse degree must be >= 0")
    nv_from = nerve(G, n + 1)
    nv_to = nerve(G, n)
    index = nv_to.index
    return IntMatrix.from_entries(
        len(nv_to), len(nv_from),
        ((index[homology_face(G, t, 0)], j, 1) for j, t in enumerate(nv_from.tuples)))


class GModule:
    """Fiberwise free abelian coefficients with unimodular arrow actions.

    fiber_rank maps each unit to the rank of its fiber; action maps each
    arrow g to a matrix from the fiber at src(g) to the fiber at rng(g).
    """

    def __init__(self, G: FiniteGroupoid, fiber_rank: Dict[int, int],
                 action: Dict[int, IntMatrix]):
        self.groupoid = G
        self.fiber_rank = {u: int(fiber_rank[u]) for u in G.units}
        self.action = dict(action)

    def rank_at(self, u: int) -> int:
        return self.fiber_rank[u]

    def act(self, g: int) -> IntMatrix:
        return self.action[g]

    def __repr__(self):
        return f"GModule(ranks={sorted(self.fiber_rank.items())})"


def validate_module(G: FiniteGroupoid, M: GModule) -> ValidationReport:
    """Functoriality and invertibility of the arrow action, checked through
    the isotropy reduction (`isotropy_inclusion`).

    M is a functor on G exactly when its restriction to the isotropy groups
    H is one, every base arrow k_y acts invertibly, M(k_y^-1) M(k_y) = I,
    and every arrow g: a -> b acts as M(k_b) M(ir(g)) M(k_a^-1), where
    ir(g) = k_b^-1 g k_a: then M(g) M(h) = M(k_c) M(ir(g) ir(h)) M(k_a^-1)
    = M(gh).  So the check multiplies over the arrows and H's composable
    pairs, not over G's pairs.  The actions are then invertible, hence
    unimodular; a base arrow whose inverse check fails is named as not
    unimodular when its action or its inverse's is not.
    """
    for u in G.units:
        if u not in M.fiber_rank or M.fiber_rank[u] < 0:
            return ValidationReport(False, "fiber-rank", (u,))
    for g in range(G.n_arrows):
        if g not in M.action:
            return ValidationReport(False, "action-missing", (g,))
        if M.action[g].shape != (M.fiber_rank[G.rng[g]], M.fiber_rank[G.src[g]]):
            return ValidationReport(False, "action-shape", (g,))
    for u in G.units:
        if M.action[u] != IntMatrix.identity(M.fiber_rank[u]):
            return ValidationReport(False, "unit-action", (u,))
    for g in range(G.n_arrows):
        if M.fiber_rank[G.rng[g]] != M.fiber_rank[G.src[g]]:
            return ValidationReport(False, "unimodular", (g,))
    i, k = isotropy_inclusion(G)
    act = [M.action[g] for g in i.arrow_map]
    for (g, h), gh in i.source.comp.items():
        if act[g] * act[h] != act[gh]:
            return ValidationReport(False, "action-functorial", (i(g), i(h)))
    back = {y: M.action[G.inv[k[y]]] for y in G.units}
    for y in G.units:
        if back[y] * M.action[k[y]] != IntMatrix.identity(M.fiber_rank[y]):
            for g in (k[y], G.inv[k[y]]):
                if invariant_factors(M.action[g]) != [1] * M.fiber_rank[y]:
                    return ValidationReport(False, "unimodular", (g,))
            return ValidationReport(False, "action-inverse", (k[y],))
    for g in range(G.n_arrows):
        a, b = G.src[g], G.rng[g]
        ir = G.comp[G.comp[G.inv[k[b]], g], k[a]]
        if M.action[k[b]] * M.action[ir] * back[a] != M.action[g]:
            return ValidationReport(False, "action-functorial", (g,))
    return ValidationReport(True)


class GroupoidFunctor:
    """Arrow map between finite groupoids preserving all structure."""

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 arrow_map: Sequence[int]):
        self.source = source
        self.target = target
        self.arrow_map = tuple(arrow_map)

    def __call__(self, g: int) -> int:
        return self.arrow_map[g]

    def map_tuple(self, t: tuple) -> tuple:
        amap = self.arrow_map
        return tuple(amap[g] for g in t)

    def compose_with(self, other: "GroupoidFunctor") -> "GroupoidFunctor":
        """self after other (other.target must be self.source)."""
        if other.target is not self.source:
            raise InvalidFunctor("functor composition mismatch")
        amap = [self.arrow_map[other.arrow_map[g]] for g in range(other.source.n_arrows)]
        return GroupoidFunctor(other.source, self.target, amap)

    @classmethod
    def identity(cls, G: FiniteGroupoid) -> "GroupoidFunctor":
        return cls(G, G, list(range(G.n_arrows)))


def validate_functor(phi: GroupoidFunctor) -> ValidationReport:
    G1, G2 = phi.source, phi.target
    if len(phi.arrow_map) != G1.n_arrows:
        return ValidationReport(False, "functor-domain", ())
    for g in range(G1.n_arrows):
        if not (0 <= phi.arrow_map[g] < G2.n_arrows):
            return ValidationReport(False, "functor-range", (g,))
    for u in G1.units:
        if not G2.is_unit(phi.arrow_map[u]):
            return ValidationReport(False, "functor-units", (u,))
    for g in range(G1.n_arrows):
        if G2.src[phi.arrow_map[g]] != phi.arrow_map[G1.src[g]]:
            return ValidationReport(False, "functor-src", (g,))
        if G2.rng[phi.arrow_map[g]] != phi.arrow_map[G1.rng[g]]:
            return ValidationReport(False, "functor-rng", (g,))
    for (g, h), gh in G1.comp.items():
        if G2.comp[(phi.arrow_map[g], phi.arrow_map[h])] != phi.arrow_map[gh]:
            return ValidationReport(False, "functor-composition", (g, h))
    return ValidationReport(True)


def require_valid_functor(phi: GroupoidFunctor) -> None:
    rep = validate_functor(phi)
    if not rep.ok:
        raise InvalidFunctor(rep.message())


def isotropy_inclusion(G: FiniteGroupoid) -> Tuple[GroupoidFunctor, Dict[int, int]]:
    """The inclusion i: H -> G of the isotropy groups at the least unit x of
    each orbit, and for every unit y the least arrow k_y: x -> y (k_x = x).

    H is Morita equivalent to G: r(g) = k_{r(g)}^-1 g k_{s(g)} retracts G
    onto H, and k is a natural transformation from i r to the identity, so
    H has G's homology and, with a module pulled back along i, its
    cohomology (Crainic-Moerdijk).  If every orbit is one unit, i = id_G.
    """
    base: Dict[int, int] = {}
    for x in G.units:
        if x not in base:  # the least unit of a new orbit
            base[x] = x
            for g in G.arrows_by_src[x]:
                base.setdefault(G.rng[g], g)
    bases = [x for x in G.units if base[x] == x]
    if len(bases) == G.n_units:
        return GroupoidFunctor.identity(G), base
    arrows = [g for x in bases for g in G.arrows_by_src[x] if G.rng[g] == x]
    pos = {g: j for j, g in enumerate(arrows)}
    H = FiniteGroupoid([pos[G.src[g]] for g in arrows], [pos[G.rng[g]] for g in arrows],
                       {(pos[g], pos[h]): pos[G.comp[g, h]]
                        for g in arrows for h in G.arrows_by_rng[G.src[g]] if h in pos},
                       [pos[G.inv[g]] for g in arrows],
                       [pos[x] for x in bases])
    return GroupoidFunctor(H, G, arrows), base
