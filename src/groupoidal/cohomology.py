"""Cohomology of finite groupoids with module coefficients.

Two cochain models are built side by side: the cocycle complex, whose
degree-n cochains assign to each composable n-string a value in the
fiber at the range of its first arrow, and the equivariant Hom complex
on the bar resolution, realized on orbit representatives (strings whose
first entry is a unit).  The comparison maps between them are coordinate
maps, checked to be mutually inverse chain maps, exhibiting the
isomorphism between the two models on any finite instance.

`cocycle_cohomology` works on the isotropy groups H of one unit per
orbit, with the module pulled back to them (a Morita equivalence,
`groupoids.isotropy_inclusion`).  Both models compute the same groups, so
`hom_side_cohomology` is another name for it, and it reads them on
Hom_H(A_*, M) for the Morse resolution A_* of each group (`resolution`):
one block of the fiber per critical cell, 1, 2, 3, 5, 9, ... for S3 in
degrees 0, 1, 2, ..., where the cochains of G have a block per composable
string.  No nerve of G or H is built.  The comparison check, the skew LES
and the induced maps stay on the full cochains, because the statements
they check are about those complexes; the comparison factors only the
cocycle complex and checks its groups against the isotropy route's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional

from .groupoids import (FiniteGroupoid, GModule, GroupoidFunctor, face_table,
                        isotropy_inclusion, nerve, require_nerve_work,
                        require_valid_functor)
from .resolution import isotropy_cochains
from .zlinalg import (ChainComplex, ChainHomologyPresentation, DimensionMismatch, FgAbGroup,
                      IntMatrix, LinAlgError, induced_on_homology, rank)


class BlockSpace:
    """Free fibers laid end to end in one coordinate space: one block per
    n-string of `keys`, in that order, holding the value at that string,
    of rank ranks[i] for the i-th; `offset` and `rank` map a string to its
    block's first coordinate and rank."""

    def __init__(self, keys: List[tuple], ranks: List[int]):
        self.keys, self.ranks, self.rank = keys, ranks, dict(zip(keys, ranks))
        self.offset = dict(zip(keys, accumulate(ranks, initial=0)))
        self.total = sum(ranks)


def cochain_space(G: FiniteGroupoid, M: GModule, n: int) -> BlockSpace:
    """Degree-n cocycle cochains: one copy per n-string of the fiber at the
    range of its first arrow (per unit in degree 0), in lex order."""
    keys = list(nerve(G, n).tuples)
    return BlockSpace(keys, [M.rank_at(G.rng[t[0]]) for t in keys])


def hom_space(G: FiniteGroupoid, M: GModule, n: int) -> BlockSpace:
    """Equivariant homs out of the degree-(n+1) bar term, coordinatized by
    orbit representatives: the n-string t stands for (r(g_0),) + t, whose
    first entry is a unit, and the strings are ordered by it."""
    keys = sorted(nerve(G, n).tuples, key=lambda t: (G.rng[t[0]],) + t)
    return BlockSpace(keys, [M.rank_at(G.rng[t[0]]) for t in keys])


def relabel_coords(cod: BlockSpace, dom: BlockSpace,
                   key_map: Optional[Callable] = None) -> List[int]:
    """For each coordinate of cod, the coordinate of dom it copies: block k
    copies dom's block key_map(k) (or k), which must be of the same rank."""
    keys = cod.keys if key_map is None else list(map(key_map, cod.keys))
    if list(map(dom.rank.__getitem__, keys)) != list(cod.ranks):
        raise DimensionMismatch("a block of cod copies a block of dom of another rank")
    return [o + a for o, r in zip(map(dom.offset.__getitem__, keys), cod.ranks) for a in range(r)]


def relabel_matrix(cod: BlockSpace, dom: BlockSpace,
                   key_map: Optional[Callable] = None) -> IntMatrix:
    """The selection matrix of `relabel_coords`: identity blocks from dom's
    block key_map(k) (or k) to cod's block k, for every string k of cod."""
    return IntMatrix.identity(dom.total).rows_at(relabel_coords(cod, dom, key_map))


def cocycle_coboundary_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Matrix of the degree-n cocycle differential.

    Row block at an (n+1)-string t = (g_0,...,g_n): the action of g_0
    applied to the value at face 0 of t, then (-1)^i times the value at
    face i for i = 1..n+1 (`face_table`).  So degree 0 sends a section
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
    """delta_n between two spaces of one model, one row block per string
    of cod: the action block at face 0, then +-1 on the diagonal at faces
    1..n+1, each face read off `face_table` and found in `dom.offset`.  A
    face with no block in dom is skipped, so a space may leave out strings
    on which its cochains vanish."""
    at, faces = nerve(G, n + 1).index, face_table(G, n + 1)
    cols = [dom.offset.get(s) for s in nerve(G, n).tuples]  # per n-string, or None
    signed = [(i, -1 if i % 2 else 1) for i in range(1, n + 2)]
    acts, rows = {}, []  # acts: each arrow's action entries, read once
    for t, r, f in zip(cod.keys, cod.ranks, [faces[at[t]] for t in cod.keys]):
        block = [{} for _ in range(r)]
        col = cols[f[0]]
        if col is not None:
            if t[0] not in acts:
                acts[t[0]] = tuple(M.act(t[0]).entries())
            for a, j, v in acts[t[0]]:
                block[a][col + j] = v
        for i, sign in signed:
            col = cols[f[i]]
            if col is not None:
                for a, row in enumerate(block, col):  # row a - col, column a
                    row[a] = row.get(a, 0) + sign
        rows.extend(block)
    return IntMatrix.from_row_dicts(dom.total, rows)


def theta_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Evaluation of an equivariant hom at the unit-first representative of
    each n-string: a basis relabeling from the Hom model to the cocycle
    model (the representative's leading unit acts trivially)."""
    return relabel_matrix(cochain_space(G, M, n), hom_space(G, M, n))


def rho_matrix(G: FiniteGroupoid, M: GModule, n: int) -> IntMatrix:
    """Inverse relabeling, reading a cochain as values on representatives."""
    return relabel_matrix(hom_space(G, M, n), cochain_space(G, M, n))


def cochain_complex(G: FiniteGroupoid, M: GModule, spaces: List[BlockSpace],
                    first: int = 0) -> ChainComplex:
    """The complex of delta_first, delta_first+1, ... between consecutive
    `spaces` (of degrees first, first + 1, ..., all of one model), so each
    space is built once and shared by the deltas into and out of it.  Its
    degree k is cochain degree first + k, but with first > 0 its lowest
    degree is ker(delta_first), not H^first: no delta maps into it."""
    return ChainComplex([_coboundary(G, M, n, dom, cod) for n, (dom, cod)
                         in enumerate(zip(spaces, spaces[1:]), first)], 1)


def cocycle_cohomology(G: FiniteGroupoid, M: GModule, n_max: int) -> List[FgAbGroup]:
    """H^0 .. H^{n_max} of either model, read on Hom_H(A_*, M) for the
    isotropy groups H of G, with M pulled back to H along the inclusion,
    which is a Morita equivalence."""
    i, _ = isotropy_inclusion(G)
    H = i.source
    if H is not G:
        M = pullback_module(i, M)
    return isotropy_cochains(H, M, n_max).groups()


# the Hom model has the cocycle model's groups (`theta_rho_check`)
hom_side_cohomology = cocycle_cohomology


@dataclass
class ThetaRhoReport:
    """Exact matrix verification that the two cochain models agree:
    `cocycle_groups` are the full cocycle complex's, `hom_groups` the Hom
    model's on the isotropy resolutions (`hom_side_cohomology`)."""

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
    """Verify, as exact matrix statements, rho*theta = id and theta*rho = id
    in degrees 0..n_max + 1, delta_c o theta = theta o delta in degrees
    0..n_max, d o d = 0 on both full complexes, and the cocycle complex's
    groups against the isotropy route's.  theta is then a chain
    isomorphism, so the full Hom complex has the same groups, and only the
    cocycle complex is factored.  A complex that fails d o d is reported at
    the degree where it fails; the checks that need it are skipped, and
    without the cocycle complex `cocycle_groups` is empty.  theta and rho
    are coordinate maps (`relabel_coords`), so a product of them is their
    composite, delta_c theta a column sum and theta delta a row pick."""
    require_nerve_work(G, n_max + 1, M.fiber_rank)
    failures = []
    # each space is built once, for degrees 0 .. n_max + 1
    cs = [cochain_space(G, M, n) for n in range(n_max + 2)]
    hs = [hom_space(G, M, n) for n in range(n_max + 2)]
    # theta_n maps the Hom model (columns) to the cocycle model (rows)
    thetas = [relabel_coords(c, h) for c, h in zip(cs, hs)]
    rhos = [relabel_coords(h, c) for c, h in zip(cs, hs)]
    full = {}
    for model, spaces in (("cocycle", cs), ("Hom", hs)):
        try:
            full[model] = cochain_complex(G, M, spaces)
        except LinAlgError as e:  # d o d != 0 at e.degree
            if e.degree is None:
                raise
            failures.append((e.degree, f"d o d != 0 in the {model} complex"))
    cc, hc = full.get("cocycle"), full.get("Hom")
    for n, (theta, rho, c, h) in enumerate(zip(thetas, rhos, cs, hs)):
        if [theta[i] for i in rho] != list(range(h.total)):
            failures.append((n, "rho*theta != id"))
        if [rho[i] for i in theta] != list(range(c.total)):
            failures.append((n, "theta*rho != id"))
        if (n <= n_max and cc is not None and hc is not None
                and cc.d_out(n).sum_columns(theta, h.total)
                != hc.d_out(n).rows_at(thetas[n + 1])):
            failures.append((n, "delta_c o theta != theta o delta"))
    cg = [] if cc is None else cc.groups()
    hg = cocycle_cohomology(G, M, n_max)
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
    """H^n of the cocycle complex, the one degree of the two-term complex
    of delta_n and delta_{n-1} (a zero map into C^0 when n = 0)."""
    spaces = [cochain_space(G, M, k) for k in range(max(n - 1, 0), n + 2)]
    d_in = (_coboundary(G, M, n - 1, *spaces[:2]) if n
            else IntMatrix.zeros(spaces[0].total, 0))
    return ChainComplex([_coboundary(G, M, n, *spaces[-2:]), d_in], -1).presentations()[0]


def induced_cohomology_map(phi: GroupoidFunctor, M: GModule, n: int) -> InducedCohomologyMap:
    """Contravariant induced map on degree-n cohomology presentations."""
    require_valid_functor(phi)
    chain = cochain_pullback_matrix(phi, M, n)
    src = _cocycle_presentation(phi.target, M, n)
    dst = _cocycle_presentation(phi.source, pullback_module(phi, M), n)
    return InducedCohomologyMap(n, chain, src, dst,
                                induced_on_homology(chain, src, dst))
