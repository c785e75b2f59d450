"""Cohomology of finite groupoids with module coefficients.

Two cochain models are built side by side: the cocycle complex, whose
degree-n cochains assign to each composable n-string a value in the
fiber at the range of its first arrow, and the equivariant Hom complex
on the bar resolution, realized on orbit representatives (strings whose
first entry is a unit).  The comparison maps between them are assembled
as explicit matrices and checked to be mutually inverse chain maps,
exhibiting the isomorphism between the two models on any finite instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .groupoids import (FiniteGroupoid, GModule, GroupoidFunctor,
                        nerve, require_valid_functor)
from .zlinalg import (ChainComplex, ChainHomologyPresentation, FgAbGroup, IntMatrix,
                      induced_on_homology, kernel_basis)


class _BlockSpace:
    """Indexed family of free fibers with offsets into one coordinate space."""

    def __init__(self, keys: List[tuple], ranks: List[int]):
        self.keys = keys
        self.ranks = ranks
        self.offsets = []
        total = 0
        for r in ranks:
            self.offsets.append(total)
            total += r
        self.total = total
        self.position = {k: i for i, k in enumerate(keys)}

    def offset_of(self, key: tuple) -> int:
        return self.offsets[self.position[key]]


@dataclass
class CochainSpace:
    """Degree-n cocycle cochains: one fiber copy per n-string (per unit in
    degree 0), valued in the fiber at the range of the first arrow."""

    degree: int
    space: _BlockSpace = field(repr=False)

    @property
    def total_rank(self) -> int:
        return self.space.total


@dataclass
class HomSpace:
    """Equivariant homs out of the degree-(n+1) bar term, coordinatized by
    orbit representatives: strings with a unit first entry, which biject
    with the n-strings."""

    degree: int
    space: _BlockSpace = field(repr=False)
    rep_of_tuple: dict = field(repr=False)

    @property
    def total_rank(self) -> int:
        return self.space.total


def cochain_space(G: FiniteGroupoid, M: GModule, n: int, cap=None) -> CochainSpace:
    if n == 0:
        keys = [(u,) for u in G.units]
        ranks = [M.rank_at(u) for u in G.units]
    else:
        keys = list(nerve(G, n, cap).tuples)
        ranks = [M.rank_at(G.rng[t[0]]) for t in keys]
    return CochainSpace(n, _BlockSpace(keys, ranks))


def hom_space(G: FiniteGroupoid, M: GModule, n: int, cap=None) -> HomSpace:
    if n == 0:
        reps = [(u,) for u in G.units]
        tails = list(reps)
    else:
        tails = list(nerve(G, n, cap).tuples)
        reps = [(G.rng[t[0]],) + t for t in tails]
    order = sorted(range(len(reps)), key=lambda i: reps[i])
    keys = [reps[i] for i in order]
    ranks = [M.rank_at(k[0]) for k in keys]
    rep_of_tuple = {tails[i]: reps[i] for i in range(len(reps))}
    return HomSpace(n, _BlockSpace(keys, ranks), rep_of_tuple)


def _block(row_off: int, col_off: int, block: IntMatrix, sign: int):
    """Entries of sign * block placed at (row_off, col_off)."""
    return ((row_off + i, col_off + j, sign * v) for i, j, v in block.entries())


def _identity(row_off: int, col_off: int, size: int, sign: int):
    """Entries of sign * id_size placed at (row_off, col_off)."""
    return ((row_off + i, col_off + i, sign) for i in range(size))


def cocycle_coboundary_matrix(G: FiniteGroupoid, M: GModule, n: int,
                              cap=None) -> IntMatrix:
    """Matrix of the degree-n cocycle differential.

    Row block at an (n+1)-string (g_0,...,g_n): the action of g_0 applied
    to the value at the tail, alternating identity blocks at the strings
    with one adjacent pair composed, and the last entry dropped with sign
    (-1)^(n+1).  Degree 0 sends a section m to g_0.m(s(g_0)) - m(r(g_0)).
    """
    dom = cochain_space(G, M, n, cap)
    cod = cochain_space(G, M, n + 1, cap)
    entries = []
    if n == 0:
        for t in cod.space.keys:
            (g0,) = t
            row = cod.space.offset_of(t)
            entries.extend(_block(row, dom.space.offset_of((G.src[g0],)), M.act(g0), 1))
            entries.extend(_identity(row, dom.space.offset_of((G.rng[g0],)),
                                     M.rank_at(G.rng[g0]), -1))
        return IntMatrix.from_entries(cod.total_rank, dom.total_rank, entries)
    for t in cod.space.keys:
        row = cod.space.offset_of(t)
        g0 = t[0]
        entries.extend(_block(row, dom.space.offset_of(t[1:]), M.act(g0), 1))
        sign = -1
        for i in range(1, n + 1):
            face = t[:i - 1] + (G.comp[(t[i - 1], t[i])],) + t[i + 1:]
            entries.extend(_identity(row, dom.space.offset_of(face),
                                     M.rank_at(G.rng[g0]), sign))
            sign = -sign
        entries.extend(_identity(row, dom.space.offset_of(t[:-1]),
                                 M.rank_at(G.rng[g0]), sign))
    return IntMatrix.from_entries(cod.total_rank, dom.total_rank, entries)


def hom_coboundary_matrix(G: FiniteGroupoid, M: GModule, n: int,
                          cap=None) -> IntMatrix:
    """Degree-n differential of the Hom complex: precompose with the next
    bar boundary, rewriting each face through its orbit representative,
    which twists the face that absorbs the leading unit by the action."""
    dom = hom_space(G, M, n, cap)
    cod = hom_space(G, M, n + 1, cap)
    entries = []
    for rep in cod.space.keys:
        row = cod.space.offset_of(rep)
        t = rep[1:]  # (g_0, ..., g_n)
        g0 = t[0]
        if n == 0:
            tail_rep = (G.src[g0],)
        else:
            tail_rep = dom.rep_of_tuple[t[1:]]
        entries.extend(_block(row, dom.space.offset_of(tail_rep), M.act(g0), 1))
        sign = -1
        for i in range(1, n + 1):
            face = t[:i - 1] + (G.comp[(t[i - 1], t[i])],) + t[i + 1:]
            entries.extend(_identity(row, dom.space.offset_of(dom.rep_of_tuple[face]),
                                     M.rank_at(rep[0]), sign))
            sign = -sign
        # dropping the last entry leaves (unit, g_0, ..., g_{n-1}); in
        # degree 0 that is the unit representative itself
        last_rep = (rep[0],) if n == 0 else dom.rep_of_tuple[t[:-1]]
        entries.extend(_identity(row, dom.space.offset_of(last_rep),
                                 M.rank_at(rep[0]), sign))
    return IntMatrix.from_entries(cod.total_rank, dom.total_rank, entries)


def theta_matrix(G: FiniteGroupoid, M: GModule, n: int, cap=None) -> IntMatrix:
    """Evaluation of an equivariant hom at the unit-first representative of
    each n-string: a basis relabeling from the Hom model to the cocycle
    model (the representative's leading unit acts trivially)."""
    dom = hom_space(G, M, n, cap)
    cod = cochain_space(G, M, n, cap)
    return IntMatrix.from_entries(
        cod.total_rank, dom.total_rank,
        (e for tail, rep in dom.rep_of_tuple.items()
         for e in _identity(cod.space.offset_of(tail), dom.space.offset_of(rep),
                            M.rank_at(rep[0]), 1)))


def rho_matrix(G: FiniteGroupoid, M: GModule, n: int, cap=None) -> IntMatrix:
    """Inverse relabeling, reading a cochain as values on representatives."""
    dom = cochain_space(G, M, n, cap)
    cod = hom_space(G, M, n, cap)
    return IntMatrix.from_entries(
        cod.total_rank, dom.total_rank,
        (e for tail, rep in cod.rep_of_tuple.items()
         for e in _identity(cod.space.offset_of(rep), dom.space.offset_of(tail),
                            M.rank_at(rep[0]), 1)))


def cocycle_cohomology(G: FiniteGroupoid, M: GModule, n_max: int,
                       cap=None) -> List[FgAbGroup]:
    """H^0 .. H^{n_max} of the cocycle complex."""
    deltas = [cocycle_coboundary_matrix(G, M, n, cap) for n in range(n_max + 1)]
    return ChainComplex(deltas, 1).groups()


def hom_side_cohomology(G: FiniteGroupoid, M: GModule, n_max: int,
                        cap=None) -> List[FgAbGroup]:
    """H^0 .. H^{n_max} of the equivariant Hom complex."""
    deltas = [hom_coboundary_matrix(G, M, n, cap) for n in range(n_max + 1)]
    return ChainComplex(deltas, 1).groups()


@dataclass
class ThetaRhoReport:
    """Exact matrix verification that the two cochain models agree."""

    n_max: int
    ok: bool
    failures: List[tuple]
    cocycle_groups: List[FgAbGroup]
    hom_groups: List[FgAbGroup]

    def message(self) -> str:
        if self.ok:
            return f"all comparison identities hold up to degree {self.n_max}"
        return f"failures: {self.failures}"


def theta_rho_check(G: FiniteGroupoid, M: GModule, n_max: int,
                    cap=None) -> ThetaRhoReport:
    """Verify rho*theta = id, theta*rho = id, the chain-map identity
    delta_c o theta = theta o delta, and degreewise agreement of the two
    cohomologies, all as exact matrix statements."""
    failures = []
    degrees = range(n_max + 1)
    thetas = [theta_matrix(G, M, n, cap) for n in range(n_max + 2)]
    rhos = [rho_matrix(G, M, n, cap) for n in degrees]
    c_deltas = [cocycle_coboundary_matrix(G, M, n, cap) for n in degrees]
    h_deltas = [hom_coboundary_matrix(G, M, n, cap) for n in degrees]
    for n in degrees:
        # theta_n maps the Hom model (columns) to the cocycle model (rows)
        if rhos[n] * thetas[n] != IntMatrix.identity(thetas[n].cols):
            failures.append((n, "rho*theta != id"))
        if thetas[n] * rhos[n] != IntMatrix.identity(thetas[n].rows):
            failures.append((n, "theta*rho != id"))
        if c_deltas[n] * thetas[n] != thetas[n + 1] * h_deltas[n]:
            failures.append((n, "delta_c o theta != theta o delta"))
    cg = ChainComplex(c_deltas, 1).groups()
    hg = ChainComplex(h_deltas, 1).groups()
    for n, (a, b) in enumerate(zip(cg, hg)):
        if a != b:
            failures.append((n, f"cohomology mismatch {a} vs {b}"))
    return ThetaRhoReport(n_max, not failures, failures, cg, hg)


# -- functoriality -------------------------------------------------------------


def pullback_module(phi: GroupoidFunctor, M: GModule) -> GModule:
    """Module over the source whose fiber at x is the fiber at phi(x) and
    whose arrow action is the action of the image arrow."""
    require_valid_functor(phi)
    G1 = phi.source
    fibers = {u: M.rank_at(phi(u)) for u in G1.units}
    action = {g: M.act(phi(g)) for g in range(G1.n_arrows)}
    return GModule(G1, fibers, action)


def cochain_pullback_matrix(phi: GroupoidFunctor, M: GModule, n: int,
                            cap=None) -> IntMatrix:
    """Precomposition with the tuple map, fiberwise the identity; maps
    target cochains to source cochains with pullback coefficients."""
    G1, G2 = phi.source, phi.target
    Mpull = pullback_module(phi, M)
    dom = cochain_space(G2, M, n, cap)
    cod = cochain_space(G1, Mpull, n, cap)
    return IntMatrix.from_entries(
        cod.total_rank, dom.total_rank,
        (e for t in cod.space.keys
         for e in _identity(cod.space.offset_of(t), dom.space.offset_of(phi.map_tuple(t)),
                            Mpull.rank_at(G1.rng[t[0]]) if n else Mpull.rank_at(t[0]), 1)))


@dataclass
class InducedCohomologyMap:
    degree: int
    chain_matrix: IntMatrix  # source cochains <- target cochains
    source: ChainHomologyPresentation  # cohomology of the target groupoid
    target: ChainHomologyPresentation  # cohomology of the source groupoid
    matrix: IntMatrix

    def is_injective_at_chain_level(self) -> bool:
        return kernel_basis(self.chain_matrix).cols == 0


def _cocycle_presentation(G: FiniteGroupoid, M: GModule, n: int,
                          cap=None) -> ChainHomologyPresentation:
    """H^n of the cocycle complex, from delta_{n-1} and delta_n alone."""
    deltas = [cocycle_coboundary_matrix(G, M, k, cap) for k in range(max(n - 1, 0), n + 1)]
    return ChainComplex(deltas, 1).presentation(len(deltas) - 1)


def induced_cohomology_map(phi: GroupoidFunctor, M: GModule, n: int,
                           cap=None) -> InducedCohomologyMap:
    """Contravariant induced map on degree-n cohomology presentations."""
    require_valid_functor(phi)
    chain = cochain_pullback_matrix(phi, M, n, cap)
    src = _cocycle_presentation(phi.target, M, n, cap)
    dst = _cocycle_presentation(phi.source, pullback_module(phi, M), n, cap)
    return InducedCohomologyMap(n, chain, src, dst,
                                induced_on_homology(chain, src, dst))
