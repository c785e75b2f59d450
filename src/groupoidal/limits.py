"""Towers of finitely generated free abelian groups.

Direct towers carry colimit (dimension-group) queries: equality and
divisibility of classes, decided exactly for stationary towers and
otherwise answered up to a stage bound, never silently.  Inverse towers
carry truncated limit / derived-limit reports: image chains with
Mittag-Leffler stabilization certificates or strictly-decreasing
evidence, and the rank of the thread lattice within the truncation, all
read off `rank` and `invariant_factors`, so no basis is built.  The
derived limit is never presented as a group, only as a certificate or as
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd, prod
from typing import List, Optional, Sequence

from .groupoids import Budget
from .models import BratteliDiagram, MalformedDiagram, OdometerSystem
from .zlinalg import FgAbGroup, IntMatrix, invariant_factors, rank


class StageBoundExceeded(Exception):
    """An element lives beyond the allowed stage bound (not a NotEqual)."""


class Tower:
    """Sequence of free groups Z^k_n with maps between consecutive stages.

    direction "direct": maps[n] has shape (ranks[n+1], ranks[n]).
    direction "inverse": maps[n] has shape (ranks[n], ranks[n+1]).
    A stationary tower repeats one matrix; stage access then works for
    arbitrary indices.
    """

    def __init__(self, direction: str, ranks: Sequence[int],
                 maps: Sequence[IntMatrix], stationary: bool = False):
        if direction not in ("direct", "inverse"):
            raise ValueError("direction must be 'direct' or 'inverse'")
        self.direction = direction
        self.ranks = list(int(r) for r in ranks)
        self.maps = list(maps)
        self.stationary = stationary
        if not stationary and len(self.maps) != len(self.ranks) - 1:
            raise ValueError("need one map per consecutive pair of stages")
        for n, m in enumerate(self.maps):
            want = ((self.rank_at(n + 1), self.rank_at(n)) if direction == "direct"
                    else (self.rank_at(n), self.rank_at(n + 1)))
            if m.shape != want:
                raise ValueError(f"map {n} has shape {m.shape}, want {want}")

    @classmethod
    def stationary_tower(cls, direction: str, matrix: IntMatrix) -> "Tower":
        if matrix.rows != matrix.cols:
            raise ValueError("stationary tower needs a square matrix")
        return cls(direction, [matrix.rows], [matrix], stationary=True)

    def rank_at(self, n: int) -> int:
        return self._at(self.ranks, n)

    def map_at(self, n: int) -> IntMatrix:
        return self._at(self.maps, n)

    def _at(self, items: list, n: int):
        if self.stationary:
            return items[0]
        if not 0 <= n < len(items):
            raise StageBoundExceeded(f"stage {n} is beyond a tower of "
                                     f"{len(self.ranks)} stages")
        return items[n]

    @property
    def n_stages(self) -> Optional[int]:
        return None if self.stationary else len(self.ranks)


@dataclass(frozen=True)
class ColimitElement:
    stage: int
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(int(v) for v in self.vector))


class ColimitGroup:
    """Colimit of a direct tower; elements are (stage, vector) pairs
    identified along pushforward.  Every query on it charges its scan to
    one budget, so the queries of one command share the cap."""

    def __init__(self, tower: Tower):
        if tower.direction != "direct":
            raise ValueError("colimits are taken over direct towers")
        self.tower = tower
        self.budget = Budget("the stages the queries scan")

    def element(self, stage: int, vector: Sequence[int]) -> ColimitElement:
        if len(vector) != self.tower.rank_at(stage):
            raise ValueError(f"vector length {len(vector)} at stage {stage}")
        return ColimitElement(stage, tuple(vector))

    def pushes(self, elem: ColimitElement, start: int, stop: int):
        """(n, elem's vector at stage n) for n = start..stop, start >=
        elem.stage, pushed one map at a time.  Each push is charged to the
        group's budget before it runs: the map's rows x cols products, each
        counted in 64-bit words of the vector's and the map's largest
        entries, so entries that grow cost more as they grow."""
        v = elem.vector
        for n in range(elem.stage, stop + 1):
            if n >= start:
                yield n, v
            if n < stop:
                m = self.tower.map_at(n)
                self.budget.charge(m.rows * m.cols * _words(v)
                                   * _words(w for _, _, w in m.entries()))
                v = tuple(m.apply(v))


def _words(values) -> int:
    """64-bit words of the largest of these integers, at least one."""
    return 1 + max(map(abs, values), default=0).bit_length() // 64


@dataclass(frozen=True)
class EqualityResult:
    kind: str  # "equal" | "not_equal" | "not_equal_up_to"
    stage: Optional[int] = None
    exact: bool = True


def colimit_equal(C: ColimitGroup, a: ColimitElement, b: ColimitElement,
                  stage_bound: int) -> EqualityResult:
    """Push both classes to common stages up to the bound.

    For a stationary tower with injective map, disagreement at the first
    common stage is a proof of inequality; otherwise a negative answer is
    only valid up to the bound.
    """
    if a.stage > stage_bound or b.stage > stage_bound:
        raise StageBoundExceeded(f"element stages exceed bound {stage_bound}")
    start = max(a.stage, b.stage)
    injective_stationary = (C.tower.stationary
                            and rank(C.tower.map_at(0)) == C.tower.map_at(0).cols)
    for (s, u), (_, v) in zip(C.pushes(a, start, stage_bound),
                              C.pushes(b, start, stage_bound)):
        if u == v:
            return EqualityResult("equal", s)
        if injective_stationary:
            return EqualityResult("not_equal", s, exact=True)
    return EqualityResult("not_equal_up_to", stage_bound, exact=False)


@dataclass(frozen=True)
class DivisibilityResult:
    kind: str  # "witness" | "no" | "no_witness_up_to"
    stage: Optional[int] = None
    vector: Optional[tuple] = None
    exact: bool = True


def _coprime_part(q: int, p: int) -> int:
    while (g := gcd(q, p)) > 1:
        q //= g
    return q


def colimit_divisible(C: ColimitGroup, a: ColimitElement, q: int,
                      stage_bound: int) -> DivisibilityResult:
    """Search for x with q*x ~ a; exact decisions on stationary (Z, xp).

    q*x = v is solvable at a stage iff q divides the pushed vector
    entrywise, so scanning stages is complete within the bound.  On a
    stationary rank-1 tower with map [p] the answer is decided exactly:
    divisibility holds iff the p-coprime part of q divides the coefficient.
    """
    if q < 1:
        raise ValueError("divisor must be >= 1")
    if a.stage > stage_bound:
        raise StageBoundExceeded(f"element stage exceeds bound {stage_bound}")
    if q == 1:
        return DivisibilityResult("witness", a.stage, a.vector)
    tower = C.tower
    stationary_rank1 = tower.stationary and tower.rank_at(0) == 1
    if stationary_rank1:
        p = tower.map_at(0).col(0)[0]
        v = a.vector[0]
        if v == 0:
            return DivisibilityResult("witness", a.stage, (0,))
        if p == 0:
            pass  # degenerate; fall through to the scan
        elif _coprime_part(q, p) and v % _coprime_part(q, p) == 0:
            j = 0
            val = v
            while val % q:
                val *= p
                j += 1
            return DivisibilityResult("witness", a.stage + j, (val // q,))
        else:
            return DivisibilityResult("no", None, None, exact=True)
    for s, v in C.pushes(a, a.stage, stage_bound):
        if all(x % q == 0 for x in v):
            return DivisibilityResult("witness", s, tuple(x // q for x in v))
    return DivisibilityResult("no_witness_up_to", stage_bound, None, exact=False)


# -- Bratteli diagrams and AF invariants --------------------------------------


def dimension_group(B: BratteliDiagram, levels: Optional[int] = None) -> ColimitGroup:
    """Direct tower with the edge multiplicity matrices as pushforwards.

    A stationary diagram yields a stationary tower (stages unbounded, so
    exact colimit decisions apply); otherwise `levels` edge levels of the
    diagram are materialized.
    """
    if B.stationary:
        return ColimitGroup(Tower.stationary_tower("direct", B.matrices[0]))
    n_levels = B.levels if levels is None else levels + 1
    if n_levels < 1:
        raise MalformedDiagram("need at least one level")
    if n_levels > B.levels:
        raise MalformedDiagram("diagram has fewer levels than requested")
    return ColimitGroup(Tower("direct", list(B.vertex_counts[:n_levels]),
                              list(B.matrices[:n_levels - 1])))


@dataclass
class AfHomology:
    degree: int
    group: Optional[FgAbGroup]
    colimit: Optional[ColimitGroup]


def af_homology(B: BratteliDiagram, n: int) -> AfHomology:
    """Degree 0 is the dimension group; every higher degree vanishes."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return AfHomology(0, None, dimension_group(B))
    return AfHomology(n, FgAbGroup.trivial(), None)


# -- truncated inverse limits and lim^1 ---------------------------------------


@dataclass
class StageChain:
    """Image chain at one stage of an inverse tower."""

    stage: int
    ranks: List[int]
    indices: List[Optional[int]]  # index of each step inside the previous
    stabilized_at: Optional[int]  # smallest m with I_{n,m} = ... = I_{n,N}


@dataclass
class Lim1Report:
    depth: int
    chains: List[StageChain]
    ml_certificate: bool
    nonml_stages: List[int]
    thread_rank: int  # rank of the lattice of truncated threads


def _image_chain(T: Tower, n: int, N: int) -> StageChain:
    """The image chain I_{n,m} = im(A_n ... A_{m-1}), m = n+1 .. N, of
    stage n, read off the invariant factors of the composites."""
    composite = None
    factors = []
    for m in range(n + 1, N + 1):
        step = T.map_at(m - 1)
        composite = step if composite is None else composite * step
        factors.append(invariant_factors(composite))
    ranks = [len(f) for f in factors]
    # the images are nested, im(C * S) in im(C); at equal rank both have
    # the same saturation L, and [L : im A] is the product of A's
    # invariant factors, so the step's index is the ratio of products
    indices: List[Optional[int]] = [None]
    indices += [prod(cur) // prod(prev) if len(cur) == len(prev) else None
                for prev, cur in zip(factors, factors[1:])]
    # images[start] equals every later image exactly when each later
    # step has index 1
    start = len(factors) - 1
    while start > 0 and indices[start] == 1:
        start -= 1
    stabilized = n + 1 + start
    # the trailing image alone stabilizes vacuously; demand at least
    # one observed repeat before certifying
    if start == len(factors) - 1 and len(factors) >= 2:
        stabilized = None
    return StageChain(n, ranks, indices, stabilized)


def _thread_rank(T: Tower, N: int) -> int:
    """Rank of the truncated threads, the kernel of the block matrix
    (x_n - A_n x_{n+1})_{n<N}: its number of columns minus its rank."""
    offsets = list(accumulate((T.rank_at(n) for n in range(N + 1)), initial=0))
    # stage n's rows start at offsets[n], the column offset of x_n
    entries = []
    for n in range(N):
        row0 = offsets[n]
        entries.extend((row0 + i, row0 + i, 1) for i in range(T.rank_at(n)))
        entries.extend((row0 + i, offsets[n + 1] + j, -v)
                       for i, j, v in T.map_at(n).entries())
    return offsets[-1] - rank(IntMatrix.from_entries(offsets[N], offsets[-1], entries))


def limit_and_lim1(T: Tower, N: int) -> Lim1Report:
    """Image chains to depth N with stabilization certificates, plus the
    rank of the lattice of truncated threads, all read off `rank` and
    `invariant_factors`.

    A Mittag-Leffler certificate means every stage's image chain became
    stationary within the truncation; it is evidence about the truncated
    data, re-checkable from the stored matrices.  Without stabilization
    the strictly decreasing ranks/indices are reported instead, and no
    group is ever claimed for the derived limit.
    """
    if T.direction != "inverse":
        raise ValueError("limits are taken over inverse towers")
    if N < 2:
        raise ValueError("need at least two stages")
    if not T.stationary and N > len(T.ranks) - 1:
        raise ValueError("tower too short for requested depth")
    chains = [_image_chain(T, n, N) for n in range(N)]
    nonml = [c.stage for c in chains if c.stabilized_at is None]
    return Lim1Report(N, chains, ml_certificate=not nonml, nonml_stages=nonml,
                      thread_rank=_thread_rank(T, N))


# -- AF cohomology tower (stationary full shifts) ------------------------------


@dataclass
class AfCohomologyReport:
    p: int
    stages: int
    depth: int
    h0_lattice_rank: int
    h0_constants_only: bool
    h0_truncated_thread_rank: int
    h1_image_ranks: List[int]
    h1_nonml_evidence: bool


def _shift_pullback(p: int, depth: int) -> IntMatrix:
    """Digit-shift pullback from depth-`depth` functions to depth+1:
    (f o shift)(a_1 ... a_{depth+1}) = f(a_2 ... a_{depth+1})."""
    n = p ** depth
    return IntMatrix.from_entries(p * n, n, ((w, w // p, 1) for w in range(p * n)))


def af_cohomology_tower(B: BratteliDiagram, N: int, D: int) -> AfCohomologyReport:
    """Degree-0/1 cohomology evidence for a stationary one-vertex diagram.

    Words of length d index depth-d cylinders least-significant digit
    first, w = a_1 + a_2 p + ... + a_d p^(d-1), as in
    `models.odometer_system`: w // p drops the first digit (the shift,
    `_shift_pullback`) and w % p^d the last (the truncation, whose
    pullback is `OdometerSystem.refinement`).

    Degree 0: the stationary-thread lattice {f : f = f o shift} inside
    depth-D functions; for the full shift this is a faithful model of the
    projective limit, and the certificate reports whether it is exactly
    the constants.  Degree 1: image chains of the N-stage pullback tower,
    which strictly decrease, so only non-Mittag-Leffler evidence is ever
    reported, never a presentation.
    """
    if not (B.stationary and B.vertex_counts[0] == 1):
        raise MalformedDiagram("cohomology tower needs a stationary one-vertex diagram")
    p = B.matrices[0].col(0)[0]
    if p < 2:
        raise MalformedDiagram("need at least two edges")
    if N < 1 or D < 1:
        raise ValueError("need N >= 1 and D >= 1")
    # p^(D+N) is charged as p^k grows, so it is never built past the cap
    budget = Budget(f"the p^(D+N) cylinders for p = {p}, depth D = {D} and levels N = {N}")
    budget.charge(1)
    for _ in range(D + N):
        budget.charge(budget.used * (p - 1))  # brings the total to p times itself
    # stationary threads: iota(f) = sigma^*(f) in depth D+1
    A = OdometerSystem(p, D).refinement(D) - _shift_pullback(p, D)
    fixed_rank = A.cols - rank(A)
    # the kernel is saturated and (1, ..., 1) is primitive, so the kernel
    # is exactly the constants when it has rank 1 and holds (1, ..., 1)
    constants_only = fixed_rank == 1 and not any(A.apply([1] * A.cols))
    # exact truncated tower: stage n holds depth D+N-n functions
    ranks = [p ** (D + N - n) for n in range(N + 1)]
    maps = [_shift_pullback(p, D + N - n - 1) for n in range(N)]
    tower = Tower("inverse", ranks, maps)
    if N >= 2:
        chain = _image_chain(tower, 0, N)
        image_ranks, nonml = chain.ranks, chain.stabilized_at is None
    else:
        image_ranks = [rank(maps[0])]
        nonml = image_ranks[0] < ranks[0]
    return AfCohomologyReport(p, N, D, fixed_rank, constants_only,
                              _thread_rank(tower, N), image_ranks, nonml)
