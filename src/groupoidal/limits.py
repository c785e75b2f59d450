"""Towers of finitely generated free abelian groups.

Direct towers carry colimit (dimension-group) queries: equality and
divisibility of classes, decided exactly for stationary towers and
otherwise answered up to a stage bound, never silently.  Inverse towers
carry truncated limit / derived-limit reports: image chains with
Mittag-Leffler stabilization certificates or strictly-decreasing
evidence, and thread lattices within the truncation.  The derived limit
is never presented as a group, only as a certificate or as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence

from .groupoids import power_exceeds_cap, tuple_cap
from .models import BratteliDiagram, DepthTooLarge, MalformedDiagram
from .zlinalg import (FgAbGroup, IntMatrix, LinearSystem, image_basis,
                      invariant_factors, kernel_basis)


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
    identified along pushforward."""

    def __init__(self, tower: Tower):
        if tower.direction != "direct":
            raise ValueError("colimits are taken over direct towers")
        self.tower = tower

    def element(self, stage: int, vector: Sequence[int]) -> ColimitElement:
        if len(vector) != self.tower.rank_at(stage):
            raise ValueError(f"vector length {len(vector)} at stage {stage}")
        return ColimitElement(stage, tuple(vector))

    def push(self, elem: ColimitElement, to_stage: int) -> ColimitElement:
        if to_stage < elem.stage:
            raise ValueError("cannot push backwards")
        v = list(elem.vector)
        for n in range(elem.stage, to_stage):
            v = self.tower.map_at(n).apply(v)
        return ColimitElement(to_stage, tuple(v))


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
                            and kernel_basis(C.tower.map_at(0)).cols == 0)
    for s in range(start, stage_bound + 1):
        if C.push(a, s).vector == C.push(b, s).vector:
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
    for s in range(a.stage, stage_bound + 1):
        v = C.push(a, s).vector
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


def _lattice_index(outer: IntMatrix, inner: IntMatrix) -> Optional[int]:
    """Index [outer : inner] when both have equal rank, else None."""
    coords = LinearSystem(outer).solve_columns(inner)
    if coords is None:
        return None
    facs = invariant_factors(coords)
    if len(facs) != outer.cols:
        return None
    out = 1
    for f in facs:
        out *= f
    return out


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
    thread_basis: IntMatrix  # columns = threads, stacked stage coordinates
    stage_offsets: List[int]
    lim_stage0_basis: IntMatrix

    def thread_rank(self) -> int:
        return self.thread_basis.cols


def limit_and_lim1(T: Tower, N: int) -> Lim1Report:
    """Image chains to depth N with stabilization certificates, plus the
    lattice of truncated threads.

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
    chains: List[StageChain] = []
    nonml = []
    for n_stage in range(N):
        composite = None
        images = []
        for m in range(n_stage + 1, N + 1):
            step = T.map_at(m - 1)
            composite = step if composite is None else composite * step
            images.append(image_basis(composite))
        ranks = [b.cols for b in images]
        indices: List[Optional[int]] = [None]
        for prev, cur in zip(images, images[1:]):
            indices.append(_lattice_index(prev, cur))
        # the images are nested, im(C * S) in im(C), so images[start]
        # equals every later image exactly when each later step has index 1
        start = len(images) - 1
        while start > 0 and indices[start] == 1:
            start -= 1
        stabilized = n_stage + 1 + start
        # the trailing image alone stabilizes vacuously; demand at least
        # one observed repeat before certifying
        if start == len(images) - 1 and len(images) >= 2:
            stabilized = None
        if stabilized is None:
            nonml.append(n_stage)
        chains.append(StageChain(n_stage, ranks, indices, stabilized))
    # threads: block kernel of (x_n - A_n x_{n+1})_n
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
    return Lim1Report(N, chains, ml_certificate=not nonml, nonml_stages=nonml,
                      thread_basis=threads, stage_offsets=offsets,
                      lim_stage0_basis=lim0)


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


def _depth_inclusion(p: int, depth: int) -> IntMatrix:
    """Depth-`depth` functions seen at depth+1 (value of the truncation)."""
    n = p ** depth
    return IntMatrix.from_entries(p * n, n, ((w, w % n, 1) for w in range(p * n)))


def af_cohomology_tower(B: BratteliDiagram, N: int, D: int) -> AfCohomologyReport:
    """Degree-0/1 cohomology evidence for a stationary one-vertex diagram.

    Words of length d index depth-d cylinders with the first digit most
    significant here (w // p drops the last digit, w % p^d the first),
    which matches the two matrix constructions above.

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
    if power_exceeds_cap(p, D + N):
        raise DepthTooLarge(f"p^(D+N) for p = {p}, depth D = {D} and levels N = {N} "
                            f"exceeds cap {tuple_cap()}")
    # stationary threads: iota(f) = sigma^*(f) in depth D+1
    fixed = kernel_basis(_depth_inclusion(p, D) - _shift_pullback(p, D))
    constants_only = (fixed.cols == 1 and len(set(fixed.col(0))) == 1
                      and fixed.col(0)[0] != 0)
    # exact truncated tower: stage n holds depth D+N-n functions
    ranks = [p ** (D + N - n) for n in range(N + 1)]
    maps = [_shift_pullback(p, D + N - n - 1) for n in range(N)]
    tower = Tower("inverse", ranks, maps)
    if N >= 2:
        report = limit_and_lim1(tower, N)
        image_ranks = report.chains[0].ranks
        nonml = 0 in report.nonml_stages
        truncated_rank = report.thread_rank()
    else:
        img = image_basis(maps[0])
        image_ranks = [img.cols]
        nonml = img.cols < ranks[0]
        truncated_rank = ranks[1]
    return AfCohomologyReport(p, N, D, fixed.cols, constants_only,
                              truncated_rank, image_ranks, nonml)
