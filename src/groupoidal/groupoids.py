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


def tuple_cap(cap: Optional[int] = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("GROUPOIDAL_CAP")
    return int(env) if env else DEFAULT_CAP


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

    def compose(self, g: int, h: int) -> int:
        return self.comp[(g, h)]

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
    """Check every groupoid axiom; report the first violation with witnesses."""
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


def nerve(G: FiniteGroupoid, n: int, cap: Optional[int] = None) -> Nerve:
    if n < 0:
        raise ValueError("nerve degree must be >= 0")
    limit = tuple_cap(cap)
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
        prev = nerve(G, n - 1, cap).tuples
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


def homology_face(G: FiniteGroupoid, t: tuple, i: int) -> tuple:
    """Face i of a composable n-string for the homology complex, n >= 2."""
    n = len(t)
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[:i - 1] + (G.comp[(t[i - 1], t[i])],) + t[i + 1:]


def boundary_matrix_d(G: FiniteGroupoid, n: int, cap: Optional[int] = None) -> IntMatrix:
    """Matrix of d_n from degree-n chains to degree-(n-1) chains.

    d_1 is pushforward along the source minus pushforward along the range;
    for n >= 2 it is the alternating sum of pushforwards along the faces.
    """
    if n < 1:
        raise ValueError("boundary degree must be >= 1")
    nv_to = nerve(G, n - 1, cap)
    nv_from = nerve(G, n, cap)
    index = nv_to.index
    if n == 1:
        entries = ((index[(ends[g],)], j, sign) for j, (g,) in enumerate(nv_from.tuples)
                   for ends, sign in ((G.src, 1), (G.rng, -1)))
    else:
        entries = ((index[homology_face(G, t, i)], j, -1 if i % 2 else 1)
                   for j, t in enumerate(nv_from.tuples) for i in range(n + 1))
    return IntMatrix.from_entries(len(nv_to), len(nv_from), entries)


def bar_face(G: FiniteGroupoid, t: tuple, i: int) -> tuple:
    """Face i of an (n+1)-string for the bar resolution, 0 <= i <= n."""
    n = len(t) - 1
    if i == n:
        return t[:-1]
    return t[:i] + (G.comp[(t[i], t[i + 1])],) + t[i + 2:]


def bar_boundary_matrix_b(G: FiniteGroupoid, n: int, cap: Optional[int] = None) -> IntMatrix:
    """Matrix of b_n from degree-(n+1) strings to degree-n strings.

    Higher b_n compose an adjacent pair or drop the last entry, never
    touching the leading arrow's range.  b_0 is pushforward along the
    range: that is the unique augmentation with b_0 * b_1 = 0, and the
    resulting complex is exact, split by the contraction
    (g_0,...,g_{n-1}) -> (r(g_0), g_0, ..., g_{n-1}).
    """
    if n < 0:
        raise ValueError("bar degree must be >= 0")
    nv_from = nerve(G, n + 1, cap)
    nv_to = nerve(G, n, cap)
    index = nv_to.index
    if n == 0:
        entries = ((index[(G.rng[g],)], j, 1) for j, (g,) in enumerate(nv_from.tuples))
    else:
        entries = ((index[bar_face(G, t, i)], j, -1 if i % 2 else 1)
                   for j, t in enumerate(nv_from.tuples) for i in range(n + 1))
    return IntMatrix.from_entries(len(nv_to), len(nv_from), entries)


def coinvariants_collapse(G: FiniteGroupoid, n: int, cap: Optional[int] = None) -> IntMatrix:
    """Matrix of the coinvariants identification of (n+1)-strings with n-strings.

    Sends a string to its tail, and a single arrow to its source unit; it
    intertwines the bar differentials with the homology differentials.
    """
    if n < 0:
        raise ValueError("collapse degree must be >= 0")
    nv_from = nerve(G, n + 1, cap)
    nv_to = nerve(G, n, cap)
    index = nv_to.index
    return IntMatrix.from_entries(
        len(nv_to), len(nv_from),
        ((index[(G.src[t[0]],) if n == 0 else t[1:]], j, 1)
         for j, t in enumerate(nv_from.tuples)))


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
    """Functoriality and unimodularity of the arrow action."""
    for u in G.units:
        if u not in M.fiber_rank or M.fiber_rank[u] < 0:
            return ValidationReport(False, "fiber-rank", (u,))
    for g in range(G.n_arrows):
        if g not in M.action:
            return ValidationReport(False, "action-missing", (g,))
        a = M.action[g]
        if a.shape != (M.fiber_rank[G.rng[g]], M.fiber_rank[G.src[g]]):
            return ValidationReport(False, "action-shape", (g,))
    for u in G.units:
        if M.action[u] != IntMatrix.identity(M.fiber_rank[u]):
            return ValidationReport(False, "unit-action", (u,))
    for g in range(G.n_arrows):
        a = M.action[g]
        if a.rows != a.cols or invariant_factors(a) != [1] * a.rows:
            return ValidationReport(False, "unimodular", (g,))
    for (g, h), gh in G.comp.items():
        if M.action[g] * M.action[h] != M.action[gh]:
            return ValidationReport(False, "action-functorial", (g, h))
    for g in range(G.n_arrows):
        if M.action[g] * M.action[G.inv[g]] != IntMatrix.identity(M.fiber_rank[G.rng[g]]):
            return ValidationReport(False, "action-inverse", (g,))
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
