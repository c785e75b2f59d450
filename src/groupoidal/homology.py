"""Homology of finite groupoids and of two-term models of Z-actions.

Degree-n homology is ker(d_n)/im(d_{n+1}) over the nerve bases.
`homology_groups` works on the isotropy groups H of one unit per orbit
(`groupoids.isotropy_inclusion`), Morita equivalent to G (Crainic-
Moerdijk), on A_* (x)_H Z for the Morse resolution A_* of each group
(`resolution`): S3 has 1, 2, 3, 5, 9, 17, ... cells in degrees 0, 1, 2,
..., where G's nerve has 6^n strings and the normalized bar complex 5^n,
and Z/n has one cell in every degree.  No nerve of G or H is built, so
at the default cap S3 answers to degree 8, A4 to 6 and Z/5 to 12; D4 to
6, 7 or 9, as the labelling of its Cayley table picks its generators.
Induced maps of groupoid homomorphisms are computed on explicit
presentations of the full complexes, as is the skew LES, because the
statements they check are about the full nerve bases.

The Z-action operations use the two-term complex id - P on functions,
which is the standard computation route for transformation groupoids at
this scale, and the odometer is modelled as the coherent family of
p^d-cycles on depth-d cylinders.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .groupoids import (FiniteGroupoid, GroupoidError, GroupoidFunctor,
                        boundary_matrix_d, isotropy_inclusion, nerve,
                        require_nerve_work, require_valid_functor)
from .limits import ColimitGroup, Tower
from .models import odometer_system
from .records import Record
from .resolution import isotropy_chains
from .zlinalg import (ChainComplex, ChainHomologyPresentation, FgAbGroup, InducedMap,
                      IntMatrix, coefficients_via_uct, induced_on_homology)


class NotAPermutation(GroupoidError):
    pass


def nerve_complex(G: FiniteGroupoid, n_max: int) -> ChainComplex:
    """The nerve chain complex d_0 .. d_{n_max+1}, with d_0 the zero map
    out of degree 0."""
    require_nerve_work(G, n_max + 1)
    return ChainComplex([boundary_matrix_d(G, n) if n else
                         IntMatrix.zeros(0, len(nerve(G, 0)))
                         for n in range(n_max + 2)], -1)


def homology_groups(G: FiniteGroupoid, n_max: int,
                    coefficients: Optional[int] = None) -> List[FgAbGroup]:
    """H_0 .. H_{n_max}, integrally or with Z/m coefficients.

    Z/m coefficients are derived from the integral groups by universal
    coefficients, so a single integer normal-form engine serves any m >= 2.
    """
    integral = isotropy_chains(isotropy_inclusion(G)[0].source, n_max).groups()
    if coefficients is None:
        return integral
    out = []
    below = FgAbGroup.trivial()
    for n, h in enumerate(integral):
        out.append(coefficients_via_uct(h, below, coefficients))
        below = h
    return out


def chain_pushforward(phi: GroupoidFunctor, n: int) -> IntMatrix:
    """Matrix of the degree-n chain map summing over tuple preimages."""
    nv1 = nerve(phi.source, n)
    nv2 = nerve(phi.target, n)
    return IntMatrix.from_entries(len(nv2), len(nv1),
                                  ((nv2.index[phi.map_tuple(t)], j, 1)
                                   for j, t in enumerate(nv1.tuples)))


def homology_presentation_of(G: FiniteGroupoid, n: int) -> ChainHomologyPresentation:
    """ker d_n / im d_{n+1} over the nerve bases."""
    require_nerve_work(G, n + 1)
    d_n = boundary_matrix_d(G, n) if n else IntMatrix.zeros(0, len(nerve(G, 0)))
    return ChainComplex([d_n, boundary_matrix_d(G, n + 1)], -1).presentations()[0]


def induced_homology_map(phi: GroupoidFunctor, n: int) -> InducedMap:
    """Covariant induced map on degree-n homology presentations."""
    require_valid_functor(phi)
    chain = chain_pushforward(phi, n)
    src = homology_presentation_of(phi.source, n)
    dst = homology_presentation_of(phi.target, n)
    return InducedMap(n, chain, src, dst, induced_on_homology(chain, src, dst))


# -- Z-actions on finite sets ------------------------------------------------


def permutation_pushforward(perm: Sequence[int]) -> IntMatrix:
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise NotAPermutation(f"{list(perm)} is not a permutation")
    return IntMatrix.from_entries(k, k, ((px, x, 1) for x, px in enumerate(perm)))


class ZActionHomology(Record):
    """Homology and cohomology of the two-term complex id - P of a
    Z-action generated by a permutation; higher degrees all vanish."""

    __slots__ = ("h0", "h1", "h0_dual", "h1_dual")


def z_action_homology(perm: Sequence[int]) -> ZActionHomology:
    k = len(perm)
    push = permutation_pushforward(perm)
    delta = IntMatrix.identity(k) - push
    # coker and ker of id - P_*; as id - P is square, ker (id - P)^* is free
    # of the rank of its kernel, and coker (id - P)^* has its Smith diagonal
    h0, h1 = ChainComplex([IntMatrix.zeros(0, k), delta, IntMatrix.zeros(k, 0)], -1).groups()
    return ZActionHomology(h0, h1, h1, h0)


# -- odometers ----------------------------------------------------------------


class OdometerDepth(Record):
    """The groups at one depth; the connecting maps are from the previous
    depth, None at the first."""

    __slots__ = ("depth", "h0", "h1", "h0_connecting", "h1_connecting")


class OdometerReport(Record):
    __slots__ = ("p", "per_depth", "h0_colimit", "stabilized_h1")


def odometer_homology(p: int, depth_max: int) -> OdometerReport:
    """Per-depth two-term homology of the p-odometer with the connecting
    maps induced by cylinder refinement, computed on presentations.

    The connecting maps on the depth-d cokernels come out as
    multiplication by p; the assembled direct tower is the dimension
    group colimit (Z, x p).  The kernels carry identity connecting maps,
    so the stabilized degree-1 group is Z.  Each depth's id - P is
    factored once: one `presentations` pass over its complex reads that
    engine in both degrees, as the relation matrix of degree 0 (whose
    d_out is zero) and as d_out of degree 1.
    """
    system = odometer_system(p, depth_max)
    pres = []  # (H_0, H_1) presentations by depth
    per_depth = []
    for d in range(1, depth_max + 1):
        n = p ** d
        delta = IntMatrix.identity(n) - permutation_pushforward(system.permutation(d))
        cx = ChainComplex([IntMatrix.zeros(0, n), delta, IntMatrix.zeros(n, 0)], -1)
        pres.append(tuple(cx.presentations()))
        conn = (None, None)
        if d > 1:
            refine = system.refinement(d - 1)
            conn = [induced_on_homology(refine, a, b) for a, b in zip(pres[-2], pres[-1])]
            # the degree-1 groups stabilize to a single copy of Z; any other
            # connecting map would mean the refinement model is broken
            if conn[1] != IntMatrix.identity(1):
                raise GroupoidError(f"degree-1 connecting map at depth {d} is "
                                    f"{conn[1].data}, not the identity")
        per_depth.append(OdometerDepth(d, pres[-1][0].group, pres[-1][1].group, *conn))
    tower = Tower("direct", [h0.n_generators for h0, _ in pres],
                  [e.h0_connecting for e in per_depth[1:]])
    return OdometerReport(p, per_depth, ColimitGroup(tower), FgAbGroup.free(1))
