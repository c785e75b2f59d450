"""Windowed skew products by an integer cocycle and exact verification of
the induced long exact sequences.

The full skew product has unit space (units of G) x Z and a free level
shift; only a finite window of levels is ever materialized.  Exactness is
verified where truncation provably cannot interfere: on the inner window
of levels [-I, I] (I = K - guard) mapping into the outer window
[-I, I+1].  With that asymmetry the short exact sequence of chain (or
cochain) complexes

    inner --(id - shift)--> outer --(project levels)--> base

is exact on the nose in every verified degree: telescoping a difference
of two lifts only ever passes through inner levels.  The long exact
sequence bookkeeping (connecting maps by explicit zig-zag lifts, degree-0
rank accounting) is then reported from the verified sequence.
"""

from __future__ import annotations

from typing import Dict, Optional

from .cohomology import cochain_complex, hom_space, pullback_module, relabel_matrix
from .groupoids import (Budget, FiniteGroupoid, GModule, GroupoidError,
                        GroupoidFunctor, isotropy_inclusion, require_nerve_work)
from .homology import chain_pushforward, nerve_complex
from .models import constant_module
from .records import FrozenRecord, Record
from .zlinalg import (ChainComplex, IntMatrix, LinearSystem, induced_on_homology,
                      kernel_group, quotient_group)


class GuardTooSmall(GroupoidError):
    pass


class ZCocycle(FrozenRecord):
    """Arrow-indexed integer values, additive along composition."""

    __slots__ = ("values",)

    @classmethod
    def from_values(cls, values) -> "ZCocycle":
        return cls(tuple(int(v) for v in values))

    @classmethod
    def zero(cls, G: FiniteGroupoid) -> "ZCocycle":
        return cls((0,) * G.n_arrows)

    @classmethod
    def from_potential(cls, G: FiniteGroupoid, f: Dict[int, int]) -> "ZCocycle":
        """c(g) = f(r(g)) - f(s(g)); always a cocycle."""
        return cls(tuple(f[G.rng[g]] - f[G.src[g]] for g in range(G.n_arrows)))

    def __call__(self, g: int) -> int:
        return self.values[g]

    def max_step(self) -> int:
        return max((abs(v) for v in self.values), default=0)


def validate_cocycle(G: FiniteGroupoid, c: ZCocycle):
    from .groupoids import ValidationReport
    if len(c.values) != G.n_arrows:
        return ValidationReport(False, "cocycle-length", ())
    for u in G.units:
        if c(u) != 0:
            return ValidationReport(False, "cocycle-unit", (u,))
    for (g, h), gh in G.comp.items():
        if c(gh) != c(g) + c(h):
            return ValidationReport(False, "cocycle-additive", (g, h))
    return ValidationReport(True)


def cocycle_potential(G: FiniteGroupoid, c: ZCocycle) -> Dict[int, int]:
    """A potential f on units with c(g) = f(r(g)) - f(s(g)).

    On a finite groupoid every integer cocycle is of this form (finite
    isotropy groups admit no nonzero homomorphism to Z).  It is read off
    the base arrows k_y: x -> y of `isotropy_inclusion`, f(y) = c(k_y), so
    it is 0 at the least unit x of each orbit.
    """
    f = {y: c(k) for y, k in isotropy_inclusion(G)[1].items()}
    for g in range(G.n_arrows):
        if c(g) != f[G.rng[g]] - f[G.src[g]]:
            raise GroupoidError("not a cocycle: no potential exists")
    return f


class SkewWindow(Record):
    """Finite truncation of the skew product to levels lo..hi.

    Arrow (g, k) keeps the base range at level k and moves the source to
    level k + c(g); multiplication is (g,k)(h, k+c(g)) = (gh, k).  Arrow
    ids enumerate levels outermost, base arrows innermost.  The shift maps
    (g, k) to (g, k+1) where both stay inside the window.

    `labels` maps an arrow id to its (base arrow, level), and `index` maps
    back.
    """

    __slots__ = ("base", "cocycle", "lo", "hi", "groupoid", "labels", "index")
    repr_hidden = ("index",)

    def projection(self) -> GroupoidFunctor:
        return GroupoidFunctor(self.groupoid, self.base,
                               [g for (g, _) in self.labels])

    def inclusion_into(self, other: "SkewWindow") -> GroupoidFunctor:
        return GroupoidFunctor(self.groupoid, other.groupoid,
                               [other.index[lab] for lab in self.labels])

    def shift_into(self, other: "SkewWindow") -> GroupoidFunctor:
        return GroupoidFunctor(self.groupoid, other.groupoid,
                               [other.index[(g, k + 1)] for (g, k) in self.labels])


def _window(G: FiniteGroupoid, c: ZCocycle, lo: int, hi: int) -> SkewWindow:
    if hi < lo:
        raise GroupoidError("empty level range")
    n_levels = hi - lo + 1
    Budget(f"{n_levels} window levels of {G.n_arrows} arrows").charge(n_levels * G.n_arrows)
    labels = []
    for k in range(lo, hi + 1):
        for g in range(G.n_arrows):
            if lo <= k + c(g) <= hi:
                labels.append((g, k))
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    src = [0] * n
    rng_ = [0] * n
    inv = [0] * n
    units = []
    for i, (g, k) in enumerate(labels):
        src[i] = index[(G.src[g], k + c(g))]
        rng_[i] = index[(G.rng[g], k)]
        inv[i] = index[(G.inv[g], k + c(g))]
        if G.is_unit(g):
            units.append(i)
    comp = {}
    for b, (h, l) in enumerate(labels):
        for g in G.arrows_by_src[G.rng[h]]:
            k = l - c(g)
            a = index.get((g, k))
            if a is not None:
                comp[(a, b)] = index[(G.comp[(g, h)], k)]
    w = FiniteGroupoid(src, rng_, comp, inv, units)
    return SkewWindow(G, c, lo, hi, w, tuple(labels), index)


def skew_window(G: FiniteGroupoid, c: ZCocycle, K: int) -> SkewWindow:
    """Symmetric window of radius K around level 0."""
    rep = validate_cocycle(G, c)
    if not rep.ok:
        raise GroupoidError(rep.message())
    if K < 0:
        raise GroupoidError("negative radius")
    return _window(G, c, -K, K)


# -- long exact sequence verification -----------------------------------------


class DegreeChecks(Record):
    __slots__ = ("degree", "composite_zero", "exact_at_sub", "exact_at_mid", "exact_at_quot",
                 "commutes")

    @property
    def ok(self) -> bool:
        return (self.composite_zero and self.exact_at_sub
                and self.exact_at_mid and self.exact_at_quot and self.commutes)


class LesReport(Record):
    """`degreewise_groups` are the degreewise rank bookkeeping of id - shift
    on the window groups: cokernels in homology mode, kernels in cohomology
    mode.  `cocycle_is_coboundary` is always true: les_verify refuses a
    cocycle that does not validate, and on a finite groupoid every cocycle
    is the coboundary of its `cocycle_potential`, the zero cocycle of zero."""

    __slots__ = ("mode", "window", "guard", "interior", "n_max", "checks", "base_groups",
                 "inner_groups", "connecting", "connecting_ok", "degreewise_groups",
                 "degree0_group", "degree0_matches_base", "cocycle_is_coboundary", "note")

    @property
    def ok(self) -> bool:
        return all(ch.ok for ch in self.checks) and self.connecting_ok \
            and self.degree0_matches_base


def _verify_ses(sub: ChainComplex, mid: ChainComplex, quot: ChainComplex,
                f, g, n_max: int):
    """Verify 0 -> sub --f--> mid --g--> quot -> 0 in degrees 0..n_max.

    The three complexes have the same `step` (-1 for chains, +1 for
    cochains) and degrees 0..n_max.  f and g are the chain maps by degree;
    the squares at degree n are checked when f and g are also given in
    degree n + step.
    Returns the degree checks, the presentations of sub, mid and quot,
    the zig-zag connecting maps H_n(quot) -> H_{n+step}(sub) (lift
    through g, apply the differential, pull back through f) and whether
    every lift existed; a degree where some lift fails gets the zero map.
    One factorization of each f[n] and g[n] serves every check, lift and
    pull-back.
    """
    step = mid.step
    sys_f = [LinearSystem(f[n]) for n in range(n_max + 1)]
    sys_g = [LinearSystem(g[n]) for n in range(n_max + 1)]
    checks = []
    for n in range(n_max + 1):
        m = n + step
        commutes = not 0 <= m < len(f) or (
            f[m] * sub.d_out(n) == mid.d_out(n) * f[n]
            and g[m] * mid.d_out(n) == quot.d_out(n) * g[n])
        checks.append(DegreeChecks(
            n,
            (g[n] * f[n]).is_zero(),
            sys_f[n].rank == f[n].cols,
            sys_f[n].solve_columns(sys_g[n].kernel()) is not None,  # ker g in im f
            sys_g[n].rank == g[n].rows and all(d == 1 for d in sys_g[n].diagonal()),
            commutes))
    pres = tuple(cx.presentations() for cx in (sub, mid, quot))
    pres_sub, _, pres_quot = pres
    connecting = []
    connecting_ok = True
    for n in range(n_max + 1):
        m = n + step
        if not 0 <= m <= n_max:
            continue
        gens = pres_quot[n].generator_matrix
        lifted = sys_g[n].solve_columns(gens)
        a = None if lifted is None else sys_f[m].solve_columns(mid.d_out(n) * lifted)
        if a is None:
            connecting_ok = False
            connecting.append(IntMatrix.zeros(pres_sub[m].n_generators, gens.cols))
        else:
            connecting.append(pres_sub[m].coords_of(a))
    return checks, pres, connecting, connecting_ok


def les_verify(G: FiniteGroupoid, c: ZCocycle, K: int, guard: int, n_max: int,
               mode: str = "homology", M: Optional[GModule] = None) -> LesReport:
    """Build the three complexes and verify the short exact sequence of
    complexes degreewise, exactly; report groups, zig-zag connecting maps,
    and the degree-0 rank bookkeeping.  Chains run inner --(id - shift)-->
    outer --proj--> base; cochains run the dual sequence base --proj^*-->
    outer --(id - shift)^*--> inner.  Both go through `_verify_ses`.

    The guard must leave an interior wide enough that every composable
    string of length n_max+1 lifts into it: ceil((n_max+1)*max|c|/2)
    levels on each side.  Verification failures are reported, not raised;
    geometric infeasibility raises GuardTooSmall.
    """
    if mode not in ("homology", "cohomology"):
        raise ValueError("mode must be homology or cohomology")
    rep = validate_cocycle(G, c)
    if not rep.ok:
        raise GroupoidError(rep.message())
    maxc = c.max_step()
    interior = K - guard
    span = (n_max + 1) * maxc
    if guard < 1 or K <= guard:
        raise GuardTooSmall(f"need 1 <= guard < K, got guard={guard}, K={K}")
    if (span + 1) // 2 > interior:
        raise GuardTooSmall(
            f"degree {n_max} chains of cocycle step {maxc} need interior "
            f">= {(span + 1) // 2}, have {interior}")
    if mode == "cohomology" and M is None:
        M = constant_module(G, 1)
    # checked before either window is built: the outer window, which has the
    # most strings, holds at most one lift of each string of G per level
    require_nerve_work(G, n_max + 1, M.fiber_rank if mode == "cohomology" else None,
                       copies=2 * interior + 2)
    inner = _window(G, c, -interior, interior)
    outer = _window(G, c, -interior, interior + 1)
    incl = inner.inclusion_into(outer)
    shift = inner.shift_into(outer)
    proj = outer.projection()
    note = ("the cocycle is a coboundary (every integer cocycle on a finite "
            "groupoid is); windowed checks do not model essentially "
            "nontrivial cocycles" if any(c.values) else
            "zero cocycle: the window splits into level copies")
    A, B = inner.groupoid, outer.groupoid
    degrees = range(n_max + 1)
    if mode == "homology":
        f = [chain_pushforward(incl, n) - chain_pushforward(shift, n) for n in degrees]
        g = [chain_pushforward(proj, n) for n in degrees]
        checks, (pres_in, pres_out, pres_base), connecting, connecting_ok = \
            _verify_ses(*(nerve_complex(H, n_max) for H in (A, B, G)), f, g, n_max)
        # the cokernel of the induced id - shift surjects onto the image of
        # the window homology in the base; in degree 0 the comparison map
        # is onto, so the cokernel is the base group itself
        book = [quotient_group(pres_out[n],
                               induced_on_homology(f[n], pres_in[n], pres_out[n]))
                for n in degrees]
    else:
        MB = pullback_module(proj, M)
        MA = pullback_module(incl, MB)
        modules = ((G, M), (B, MB), (A, MA))
        sG, sB, sA = ([hom_space(H, MH, n) for n in range(n_max + 2)] for H, MH in modules)
        cochains = [cochain_complex(H, MH, s) for (H, MH), s in zip(modules, (sG, sB, sA))]
        # pullback of equivariant homs along a functor, on representatives
        f = [relabel_matrix(sB[n], sG[n], proj.map_tuple) for n in range(n_max + 2)]
        g = [relabel_matrix(sA[n], sB[n], incl.map_tuple)
             - relabel_matrix(sA[n], sB[n], shift.map_tuple) for n in range(n_max + 2)]
        checks, (pres_base, pres_out, pres_in), connecting, connecting_ok = \
            _verify_ses(*cochains, f, g, n_max)
        # the kernel of the induced id - shift on the outer window equals
        # the (injective) image of the base cohomology
        book = [kernel_group(induced_on_homology(g[n], pres_out[n], pres_in[n]),
                             pres_out[n].orders, pres_in[n].orders)
                for n in degrees]
    base_groups = [p.group for p in pres_base]
    return LesReport(mode, K, guard, interior, n_max, checks, base_groups,
                     [p.group for p in pres_in], connecting, connecting_ok,
                     book, book[0], book[0] == base_groups[0],
                     True, note)
