"""Homology of finite groupoids and of two-term models of Z-actions.

Degree-n homology is ker(d_n)/im(d_{n+1}) over the nerve bases; induced
maps of groupoid homomorphisms are computed on explicit presentations.
The Z-action operations use the two-term complex id - P on functions,
which is the standard computation route for transformation groupoids at
this scale, and the odometer is modelled as the coherent family of
p^d-cycles on depth-d cylinders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .groupoids import (FiniteGroupoid, GroupoidError, GroupoidFunctor,
                        boundary_matrix_d, nerve, require_valid_functor)
from .limits import ColimitGroup, Tower
from .models import odometer_system
from .zlinalg import (ChainHomologyPresentation, FgAbGroup, IntMatrix,
                      coefficients_via_uct, complex_homology, homology_at,
                      homology_presentation, induced_on_homology,
                      kernel_basis, solve_in_image)


class NotAPermutation(GroupoidError):
    pass


def _differential(G: FiniteGroupoid, n: int, cap=None) -> IntMatrix:
    """d_n, with d_0 the zero map out of degree 0."""
    if n == 0:
        return IntMatrix.zeros(0, len(nerve(G, 0, cap)))
    return boundary_matrix_d(G, n, cap)


def _differentials(G: FiniteGroupoid, n_max: int, cap=None) -> List[IntMatrix]:
    """d_0, ..., d_{n_max+1}."""
    return [_differential(G, n, cap) for n in range(n_max + 2)]


def homology_groups(G: FiniteGroupoid, n_max: int,
                    coefficients: Optional[int] = None,
                    cap: Optional[int] = None) -> List[FgAbGroup]:
    """H_0 .. H_{n_max}, integrally or with Z/m coefficients.

    Z/m coefficients are derived from the integral groups by universal
    coefficients, so a single integer normal-form engine serves any m >= 2.
    """
    integral = complex_homology(_differentials(G, n_max, cap))
    if coefficients is None:
        return integral
    out = []
    below = FgAbGroup.trivial()
    for n, h in enumerate(integral):
        out.append(coefficients_via_uct(h, below, coefficients))
        below = h
    return out


def chain_pushforward(phi: GroupoidFunctor, n: int, cap: Optional[int] = None) -> IntMatrix:
    """Matrix of the degree-n chain map summing over tuple preimages."""
    nv1 = nerve(phi.source, n, cap)
    nv2 = nerve(phi.target, n, cap)
    return IntMatrix.from_entries(len(nv2), len(nv1),
                                  ((nv2.index[phi.map_tuple(t)], j, 1)
                                   for j, t in enumerate(nv1.tuples)))


@dataclass
class InducedMap:
    """Chain-level matrix plus the induced map on homology presentations."""

    degree: int
    chain_matrix: IntMatrix
    source: ChainHomologyPresentation
    target: ChainHomologyPresentation
    matrix: IntMatrix  # target canonical coords x source generators

    @property
    def source_group(self) -> FgAbGroup:
        return self.source.group

    @property
    def target_group(self) -> FgAbGroup:
        return self.target.group


def homology_presentation_of(G: FiniteGroupoid, n: int,
                             cap: Optional[int] = None) -> ChainHomologyPresentation:
    return homology_presentation(_differential(G, n, cap), _differential(G, n + 1, cap))


def induced_homology_map(phi: GroupoidFunctor, n: int,
                         cap: Optional[int] = None) -> InducedMap:
    require_valid_functor(phi)
    chain = chain_pushforward(phi, n, cap)
    src = homology_presentation_of(phi.source, n, cap)
    dst = homology_presentation_of(phi.target, n, cap)
    return InducedMap(n, chain, src, dst, induced_on_homology(chain, src, dst))


# -- Z-actions on finite sets ------------------------------------------------


def permutation_pushforward(perm: Sequence[int]) -> IntMatrix:
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise NotAPermutation(f"{list(perm)} is not a permutation")
    return IntMatrix.from_entries(k, k, ((px, x, 1) for x, px in enumerate(perm)))


@dataclass
class ZActionHomology:
    """Homology and cohomology of the two-term complex id - P of a
    Z-action generated by a permutation; higher degrees all vanish."""

    h0: FgAbGroup
    h1: FgAbGroup
    h0_dual: FgAbGroup
    h1_dual: FgAbGroup


def z_action_homology(perm: Sequence[int]) -> ZActionHomology:
    k = len(perm)
    push = permutation_pushforward(perm)
    delta = IntMatrix.identity(k) - push
    delta_dual = delta.transpose()
    h0 = homology_at(IntMatrix.zeros(0, k), delta)          # coker(id - P_*)
    h1 = FgAbGroup.free(kernel_basis(delta).cols)           # ker(id - P_*)
    h0_dual = FgAbGroup.free(kernel_basis(delta_dual).cols)  # ker(id - P^*)
    h1_dual = homology_at(IntMatrix.zeros(0, k), delta_dual)
    return ZActionHomology(h0, h1, h0_dual, h1_dual)


# -- odometers ----------------------------------------------------------------


@dataclass
class OdometerDepth:
    depth: int
    h0: FgAbGroup
    h1: FgAbGroup
    h0_connecting: Optional[IntMatrix]  # from previous depth, None at first
    h1_connecting: Optional[IntMatrix]


@dataclass
class OdometerReport:
    p: int
    per_depth: List[OdometerDepth]
    h0_colimit: ColimitGroup
    stabilized_h1: FgAbGroup


def odometer_homology(p: int, depth_max: int, cap: Optional[int] = None) -> OdometerReport:
    """Per-depth two-term homology of the p-odometer with the connecting
    maps induced by cylinder refinement, computed on presentations.

    The connecting maps on the depth-d cokernels come out as
    multiplication by p; the assembled direct tower is the dimension
    group colimit (Z, x p).  The kernels carry identity connecting maps,
    so the stabilized degree-1 group is Z.
    """
    system = odometer_system(p, depth_max, cap)
    pres = []
    kernels = []
    deltas = []
    for d in range(1, depth_max + 1):
        perm = system.permutation(d)
        delta = IntMatrix.identity(p ** d) - permutation_pushforward(perm)
        deltas.append(delta)
        pres.append(homology_presentation(IntMatrix.zeros(0, p ** d), delta))
        kernels.append(kernel_basis(delta))
    per_depth = []
    h0_maps = []
    for i, d in enumerate(range(1, depth_max + 1)):
        h0_conn = None
        h1_conn = None
        if i > 0:
            refine = system.refinement(d - 1)
            h0_conn = induced_on_homology(refine, pres[i - 1], pres[i])
            h0_maps.append(h0_conn)
            # kernel generators map by refinement as well
            cur_k = kernels[i]
            cols = [solve_in_image(cur_k, col)
                    for col in (refine * kernels[i - 1]).column_list()]
            if any(x is None for x in cols):
                raise GroupoidError("refinement does not preserve invariant chains")
            h1_conn = IntMatrix.from_columns(cols, cur_k.cols)
        per_depth.append(OdometerDepth(d, pres[i].group,
                                       FgAbGroup.free(kernels[i].cols),
                                       h0_conn, h1_conn))
    tower = Tower("direct", [p.n_generators for p in pres], h0_maps)
    colim = ColimitGroup(tower)
    # the computed connecting maps on the kernels are identities, so the
    # degree-1 groups stabilize to a single copy of Z; anything else
    # would mean the refinement model is broken
    for entry in per_depth[1:]:
        if entry.h1_connecting != IntMatrix.identity(1):
            raise GroupoidError(
                f"degree-1 connecting map at depth {entry.depth} is "
                f"{entry.h1_connecting.data}, not the identity")
    return OdometerReport(p, per_depth, colim, FgAbGroup.free(1))
