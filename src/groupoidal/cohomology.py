"""Cohomology of finite groupoids with module coefficients.

Two cochain models are built side by side: the cocycle complex, whose
degree-n cochains assign to each composable n-string a value in the
fiber at the range of its first arrow, and the equivariant Hom complex
on the bar resolution, realized on orbit representatives (strings whose
first entry is a unit).  The comparison maps between them are assembled
as explicit matrices and checked to be mutually inverse chain maps,
exhibiting the isomorphism between the two models on any finite instance.

`cocycle_cohomology` and `hom_side_cohomology` work on the isotropy
groups of one unit per orbit, with the module pulled back to them (a
Morita equivalence, `groupoids.isotropy_inclusion`), on the normalized
cochains, those that vanish on degenerate strings (strings with a unit
entry): extension by zero includes them into the full cochains as a
subcomplex with the same cohomology (Eilenberg-Mac Lane; Mac Lane,
Homology, ch. VIII).  The basis alone decides which: a space is keyed on
the strings of `nerve(G, n, normalized)`, and the coboundary skips every
face that has no key in its domain, where a normalized cochain is zero.
The comparison check, the skew LES and the induced maps stay on the full
cochains, because the statements they check are about those complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from .groupoids import (FiniteGroupoid, GModule, GroupoidFunctor,
                        homology_face, isotropy_inclusion, nerve,
                        require_nerve_work, require_valid_functor)
from .zlinalg import (ChainComplex, ChainHomologyPresentation, FgAbGroup, IntMatrix,
                      induced_on_homology, rank)


class BlockSpace:
    """Free fibers laid end to end in one coordinate space: one block of
    rank ranks[k] per key, in the order of `keys`.  `key_of` maps an
    n-string to the key of the block that holds its value, and `string_of`
    maps a key back to its n-string."""

    def __init__(self, keys: List[tuple], ranks: List[int], key_of: Callable, string_of: Callable):
        self.keys = keys
        self.ranks = ranks
        self.key_of = key_of
        self.string_of = string_of
        self.offset = {}
        total = 0
        for k, r in zip(keys, ranks):
            self.offset[k] = total
            total += r
        self.total = total


def cochain_space(G: FiniteGroupoid, M: GModule, n: int,
                  normalized: bool = False) -> BlockSpace:
    """Degree-n cocycle cochains: one copy per n-string (nondegenerate, if
    `normalized`) of the fiber at the range of its first arrow (per unit in
    degree 0); each string is its own key."""
    keys = list(nerve(G, n, normalized).tuples)
    return BlockSpace(keys, [M.rank_at(G.rng[t[0]]) for t in keys], lambda t: t, lambda t: t)


def hom_space(G: FiniteGroupoid, M: GModule, n: int, normalized: bool = False) -> BlockSpace:
    """Equivariant homs out of the degree-(n+1) bar term, coordinatized by
    orbit representatives: an n-string t (nondegenerate, if `normalized`) is
    keyed by (r(g_0),) + t, whose first entry is a unit, and in degree 0 a
    unit by itself."""
    def key_of(t):
        return t if n == 0 else (G.rng[t[0]],) + t

    def string_of(k):
        return k if n == 0 else k[1:]
    keys = sorted(map(key_of, nerve(G, n, normalized).tuples))
    return BlockSpace(keys, [M.rank_at(k[0]) for k in keys], key_of, string_of)


def relabel_matrix(cod: BlockSpace, dom: BlockSpace, key_map: Callable) -> IntMatrix:
    """Identity blocks from dom's block key_map(k) to cod's block k, for
    every key k of cod."""
    return IntMatrix.from_entries(
        cod.total, dom.total,
        (e for k, r in zip(cod.keys, cod.ranks)
         for e in _identity(cod.offset[k], dom.offset[key_map(k)], r, 1)))


def _block(row_off: int, col_off: int, block: IntMatrix):
    """Entries of block placed at (row_off, col_off)."""
    return ((row_off + i, col_off + j, v) for i, j, v in block.entries())


def _identity(row_off: int, col_off: int, size: int, sign: int):
    """Entries of sign * id_size placed at (row_off, col_off)."""
    return ((row_off + i, col_off + i, sign) for i in range(size))


def cocycle_coboundary_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Matrix of the degree-n cocycle differential.

    Row block at an (n+1)-string t = (g_0,...,g_n): the action of g_0
    applied to the value at face 0 of t, then (-1)^i times the value at
    face i for i = 1..n+1 (`homology_face`).  So degree 0 sends a section
    m to g_0.m(s(g_0)) - m(r(g_0)).
    """
    return _coboundary(G, M, n, cochain_space(G, M, n), cochain_space(G, M, n + 1))


def hom_coboundary_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Degree-n differential of the Hom complex: precompose with the next
    bar boundary, rewriting each face through its orbit representative,
    which twists the face that absorbs the leading unit by the action."""
    return _coboundary(G, M, n, hom_space(G, M, n), hom_space(G, M, n + 1))


def _coboundary(G: FiniteGroupoid, M: GModule, n: int,
                dom: BlockSpace, cod: BlockSpace) -> IntMatrix:
    """delta_n between two spaces of one model, each face of an
    (n+1)-string found through dom's key of it.  A face with no key in dom
    is skipped: on normalized spaces a cochain vanishes there."""
    entries = []
    for key, r in zip(cod.keys, cod.ranks):
        row = cod.offset[key]
        t = cod.string_of(key)  # (g_0, ..., g_n)
        for i in range(n + 2):
            col = dom.offset.get(dom.key_of(homology_face(G, t, i)))
            if col is not None:
                entries.extend(_identity(row, col, r, -1 if i % 2 else 1) if i
                               else _block(row, col, M.act(t[0])))
    return IntMatrix.from_entries(cod.total, dom.total, entries)


def theta_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Evaluation of an equivariant hom at the unit-first representative of
    each n-string: a basis relabeling from the Hom model to the cocycle
    model (the representative's leading unit acts trivially)."""
    return _theta(cochain_space(G, M, n), hom_space(G, M, n))


def _theta(cochains: BlockSpace, homs: BlockSpace) -> IntMatrix:
    return relabel_matrix(cochains, homs, homs.key_of)


def rho_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Inverse relabeling, reading a cochain as values on representatives."""
    return _rho(hom_space(G, M, n), cochain_space(G, M, n))


def _rho(homs: BlockSpace, cochains: BlockSpace) -> IntMatrix:
    return relabel_matrix(homs, cochains, homs.string_of)


def cochain_complex(G: FiniteGroupoid, M: GModule, spaces: List[BlockSpace],
                    first: int = 0) -> ChainComplex:
    """The complex of delta_first, delta_first+1, ... between consecutive
    `spaces` (of degrees first, first + 1, ..., all of one model), so each
    space is built once and shared by the deltas into and out of it."""
    return ChainComplex([_coboundary(G, M, n, dom, cod) for n, (dom, cod)
                         in enumerate(zip(spaces, spaces[1:]), first)], 1)


def cocycle_cohomology(G: FiniteGroupoid, M: GModule, n_max: int) -> List[FgAbGroup]:
    """H^0 .. H^{n_max} of the cocycle complex."""
    return _isotropy_cohomology(G, M, n_max, cochain_space)


def hom_side_cohomology(G: FiniteGroupoid, M: GModule, n_max: int) -> List[FgAbGroup]:
    """H^0 .. H^{n_max} of the equivariant Hom complex."""
    return _isotropy_cohomology(G, M, n_max, hom_space)


def _isotropy_cohomology(G: FiniteGroupoid, M: GModule, n_max: int,
                         space: Callable) -> List[FgAbGroup]:
    """The groups of one model (`space` builds its cochains) on the
    normalized cochains of the isotropy groups H of G, with M pulled back
    to H along the inclusion, which is a Morita equivalence."""
    i, _ = isotropy_inclusion(G)
    H = i.source
    if H is not G:
        M = pullback_module(i, M)
    require_nerve_work(H, n_max + 1, M.fiber_rank, normalized=True)
    return cochain_complex(H, M, [space(H, M, n, normalized=True)
                                  for n in range(n_max + 2)]).groups()


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


def theta_rho_check(G: FiniteGroupoid, M: GModule, n_max: int) -> ThetaRhoReport:
    """Verify rho*theta = id, theta*rho = id, the chain-map identity
    delta_c o theta = theta o delta, and degreewise agreement of the two
    cohomologies, all as exact matrix statements."""
    require_nerve_work(G, n_max + 1, M.fiber_rank)
    failures = []
    degrees = range(n_max + 1)
    # each space is built once, for degrees 0 .. n_max + 1
    cs = [cochain_space(G, M, n) for n in range(n_max + 2)]
    hs = [hom_space(G, M, n) for n in range(n_max + 2)]
    thetas = [_theta(c, h) for c, h in zip(cs, hs)]
    rhos = [_rho(hs[n], cs[n]) for n in degrees]
    cc, hc = cochain_complex(G, M, cs), cochain_complex(G, M, hs)
    for n in degrees:
        # theta_n maps the Hom model (columns) to the cocycle model (rows)
        if rhos[n] * thetas[n] != IntMatrix.identity(thetas[n].cols):
            failures.append((n, "rho*theta != id"))
        if thetas[n] * rhos[n] != IntMatrix.identity(thetas[n].rows):
            failures.append((n, "theta*rho != id"))
        if cc.d_out(n) * thetas[n] != thetas[n + 1] * hc.d_out(n):
            failures.append((n, "delta_c o theta != theta o delta"))
    cg, hg = cc.groups(), hc.groups()
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


def cochain_pullback_matrix(phi: GroupoidFunctor, M: GModule, n: int) -> IntMatrix:
    """Precomposition with the tuple map, fiberwise the identity; maps
    target cochains to source cochains with pullback coefficients."""
    cod = cochain_space(phi.source, pullback_module(phi, M), n)
    return relabel_matrix(cod, cochain_space(phi.target, M, n), phi.map_tuple)


@dataclass
class InducedCohomologyMap:
    degree: int
    chain_matrix: IntMatrix  # source cochains <- target cochains
    source: ChainHomologyPresentation  # cohomology of the target groupoid
    target: ChainHomologyPresentation  # cohomology of the source groupoid
    matrix: IntMatrix

    def is_injective_at_chain_level(self) -> bool:
        return rank(self.chain_matrix) == self.chain_matrix.cols


def _cocycle_presentation(G: FiniteGroupoid, M: GModule, n: int) -> ChainHomologyPresentation:
    """H^n of the cocycle complex, from delta_{n-1} and delta_n alone."""
    first = max(n - 1, 0)
    spaces = [cochain_space(G, M, k) for k in range(first, n + 2)]
    return cochain_complex(G, M, spaces, first).presentation(n - first)


def induced_cohomology_map(phi: GroupoidFunctor, M: GModule, n: int) -> InducedCohomologyMap:
    """Contravariant induced map on degree-n cohomology presentations."""
    require_valid_functor(phi)
    chain = cochain_pullback_matrix(phi, M, n)
    src = _cocycle_presentation(phi.target, M, n)
    dst = _cocycle_presentation(phi.source, pullback_module(phi, M), n)
    return InducedCohomologyMap(n, chain, src, dst,
                                induced_on_homology(chain, src, dst))
