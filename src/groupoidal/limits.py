"""Towers of finitely generated free abelian groups.

Direct towers carry colimit (dimension-group) queries: equality and
divisibility of classes, decided exactly for stationary towers and
otherwise answered up to a stage bound, never silently.  Inverse towers
carry truncated limit / derived-limit reports: image chains with
Mittag-Leffler stabilization certificates or strictly-decreasing
evidence, read off `invariant_factors` so no basis is built, and the
rank of the thread lattice within the truncation, which is the rank of
the last stage.  The derived limit is never presented as a group, only
as a certificate or as evidence.  The full-shift cohomology tower builds
each stage-0 composite once, as one k-fold shift pullback.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import gcd, prod
from operator import mul
from typing import Iterable, List, Optional, Sequence

from .groupoids import Budget
from .models import BratteliDiagram, MalformedDiagram, OdometerSystem
from .records import FrozenRecord, Record
from .zlinalg import IntMatrix, invariant_factors, rank


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


class ColimitElement(FrozenRecord):
    __slots__ = ("stage", "vector")

    def __init__(self, stage: int, vector: tuple):
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "vector", tuple(int(v) for v in vector))


class ColimitGroup:
    """Colimit of a direct tower; elements are (stage, vector) pairs
    identified along pushforward.  Every query on it charges its scan to
    one budget, so the queries of one command share the cap."""

    def __init__(self, tower: Tower):
        if tower.direction != "direct":
            raise ValueError("colimits are taken over direct towers")
        self.tower = tower
        self.budget = Budget("the stages the queries scan")

    @cached_property
    def injective_stationary(self) -> bool:
        """Whether the tower is stationary with an injective map, which
        makes a disagreement at one stage final; decided on first use."""
        return self.tower.stationary and rank(self.tower.map_at(0)) == self.tower.rank_at(0)

    def element(self, stage: int, vector: Sequence[int]) -> ColimitElement:
        if stage < 0:
            raise StageBoundExceeded(f"stage {stage} is below 0")
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


class EqualityResult(FrozenRecord):
    """`kind` is "equal", "not_equal" or "not_equal_up_to"."""

    __slots__ = ("kind", "stage", "exact")
    defaults = {"stage": None, "exact": True}


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
    for (s, u), (_, v) in zip(C.pushes(a, start, stage_bound),
                              C.pushes(b, start, stage_bound)):
        if u == v:
            return EqualityResult("equal", s)
        if C.injective_stationary:
            return EqualityResult("not_equal", s, exact=True)
    return EqualityResult("not_equal_up_to", stage_bound, exact=False)


class DivisibilityResult(FrozenRecord):
    """`kind` is "witness", "no" or "no_witness_up_to"."""

    __slots__ = ("kind", "stage", "vector", "exact")
    defaults = {"stage": None, "vector": None, "exact": True}


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


# -- truncated inverse limits and lim^1 ---------------------------------------


class StageChain(Record):
    """Image chain at one stage of an inverse tower: `indices` holds the
    index of each step inside the previous, and `stabilized_at` the
    smallest m with I_{n,m} = ... = I_{n,N}."""

    __slots__ = ("stage", "ranks", "indices", "stabilized_at")


class Lim1Report(Record):
    """`thread_rank` is the rank of the lattice of truncated threads
    (x_n = A_n x_{n+1}, n < N): each thread is fixed by its free last
    coordinate x_N, so it is rank_N."""

    __slots__ = ("depth", "chains", "ml_certificate", "nonml_stages", "thread_rank")


def _image_chain(n: int, composites: Iterable[IntMatrix]) -> StageChain:
    """The image chain I_{n,m} = im(A_n ... A_{m-1}), m = n+1 .. N, of
    stage n, read off the invariant factors of the composites, one at a
    time.  A composite with one entry per row, such as a product of shift
    pullbacks, is the direct sum of its columns, so its factors are its
    column gcds and no pivot is taken."""
    factors = list(map(invariant_factors, composites))
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


def limit_and_lim1(T: Tower, N: int) -> Lim1Report:
    """Image chains to depth N with stabilization certificates, read off
    `invariant_factors`, plus the rank of the lattice of truncated
    threads, the rank of stage N, since a thread is fixed by its last
    coordinate.

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
    chains = [_image_chain(n, accumulate(map(T.map_at, range(n, N)), mul))
              for n in range(N)]
    nonml = [c.stage for c in chains if c.stabilized_at is None]
    return Lim1Report(N, chains, ml_certificate=not nonml, nonml_stages=nonml,
                      thread_rank=T.rank_at(N))


# -- AF cohomology tower (stationary full shifts) ------------------------------


class AfCohomologyReport(Record):
    __slots__ = ("p", "stages", "depth", "h0_lattice_rank", "h0_constants_only",
                 "h0_truncated_thread_rank", "h1_image_ranks", "h1_nonml_evidence")


def _shift_pullback(p: int, depth: int, k: int = 1) -> IntMatrix:
    """k-fold digit-shift pullback from depth-`depth` functions to depth
    depth+k: (f o shift^k)(a_1 ... a_{depth+k}) = f(a_{k+1} ... a_{depth+k}),
    the product of the k one-fold pullbacks from depth+k-1 down to depth.
    Row w is row w // p^k of the identity, which it shares."""
    n, q = p ** depth, p ** k
    return IntMatrix.identity(n).rows_at([c for c in range(n) for _ in range(q)])


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
    the constants.  Degree 1: the image chain of stage 0 of the N-stage
    pullback tower, each composite a k-fold shift pullback built when it
    is factored; it strictly decreases, so only non-Mittag-Leffler
    evidence is ever reported, never a presentation.
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
    del A  # released before the first composite is built
    chain = _image_chain(0, (_shift_pullback(p, D + N - k, k) for k in range(1, N + 1)))
    # non-ML evidence is no observed repeat; at N = 1 the one image is only vacuously stable
    return AfCohomologyReport(p, N, D, fixed_rank, constants_only, p ** D, chain.ranks,
                              chain.stabilized_at in (None, N))
