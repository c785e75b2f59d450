"""The normalized (Eilenberg-Mac Lane) complexes, as a reference route.

The normalized nerve keeps, above degree 0, only the strings with no unit
entry.  Its chains are the quotient of the full chains by the degenerate
strings, and its cochains are the cochains that vanish on them; both keep
the (co)homology (Mac Lane, Homology, ch. VIII).  The program computes
homology and cohomology on the Morse resolutions of the isotropy groups
instead, and the tests hold both routes to these complexes and to the
full ones.  Every builder here treats a face outside its codomain basis as
zero, which on the normalized nerve is the quotient by the degenerate
strings.
"""

import functools

from groupoidal.cohomology import BlockSpace, cochain_complex
from groupoidal.groupoids import Budget, Nerve, nerve
from groupoidal.zlinalg import ChainComplex, IntMatrix

from oracles import homology_face


@functools.lru_cache(maxsize=None)
def normalized_nerve(G, n: int) -> Nerve:
    """Every unit in degree 0, and above it the strings with no unit entry,
    in lex order."""
    if n == 0:
        return nerve(G, 0)
    tuples = tuple((g,) for g in range(G.n_arrows) if not G.is_unit(g))
    for _ in range(n - 1):
        tuples = tuple(t + (h,) for t in tuples for h in G.arrows_by_rng[G.src[t[-1]]]
                       if not G.is_unit(h))
    return Nerve(n, tuples, {t: i for i, t in enumerate(tuples)})


def require_normalized_work(G, top: int, ranks=None) -> int:
    """The work of normalized degrees 0..top, as `require_nerve_work`
    counts it on the full nerve: (n + 1)^2 per nondegenerate n-string, plus
    the rank at the range of its first arrow, and each degree at least
    (n + 1)^2, even with no string.  Raises DegreeTooLarge past the cap."""
    budget = Budget(f"normalized degrees 0..{top}")
    arrows = {u: tuple(h for h in hs if not G.is_unit(h)) for u, hs in G.arrows_by_src.items()}
    ends = dict.fromkeys(G.units, 1)
    for n in range(top + 1):
        if n:
            ends = {u: sum(ends[G.rng[h]] for h in arrows[u]) for u in G.units}
        budget.charge(max((n + 1) ** 2, sum(k * ((n + 1) ** 2 + (ranks[u] if ranks else 0))
                                            for u, k in ends.items())))
    return budget.used


def normalized_boundary(G, n: int) -> IntMatrix:
    """d_n on the normalized chains: a face with a unit entry is zero."""
    nv_to, nv_from = normalized_nerve(G, n - 1), normalized_nerve(G, n)
    index = nv_to.index
    return IntMatrix.from_entries(
        len(nv_to), len(nv_from),
        ((row, j, -1 if i % 2 else 1) for j, t in enumerate(nv_from.tuples) for i in range(n + 1)
         if (row := index.get(homology_face(G, t, i))) is not None))


def normalized_complex(G, n_max: int) -> ChainComplex:
    """The normalized chains d_0 .. d_{n_max+1}."""
    return ChainComplex([normalized_boundary(G, n) if n else
                         IntMatrix.zeros(0, len(nerve(G, 0)))
                         for n in range(n_max + 2)], -1)


def normalized_cochain_space(G, M, n: int) -> BlockSpace:
    """`cochain_space` on the nondegenerate strings."""
    keys = list(normalized_nerve(G, n).tuples)
    return BlockSpace(keys, [M.rank_at(G.rng[t[0]]) for t in keys])


def normalized_hom_space(G, M, n: int) -> BlockSpace:
    """`hom_space` on the nondegenerate strings."""
    keys = sorted(normalized_nerve(G, n).tuples, key=lambda t: (G.rng[t[0]],) + t)
    return BlockSpace(keys, [M.rank_at(G.rng[t[0]]) for t in keys])


def normalized_cochain_groups(G, M, n_max: int, space) -> list:
    """H^0 .. H^{n_max} of one model on the normalized cochains; `space` is
    `normalized_cochain_space` or `normalized_hom_space`."""
    return cochain_complex(G, M, [space(G, M, n) for n in range(n_max + 2)]).groups()
