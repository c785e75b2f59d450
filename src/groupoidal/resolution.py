"""Free resolutions of the isotropy groups by an algebraic Morse matching.

A groupoid has the homology and, with a module pulled back, the cohomology
of its isotropy groups H (`groupoids.isotropy_inclusion`), and for a finite
group these are read off any free resolution of Z over Z[H].  Here each
group's table alone gives the Morse complex A_* of its normalized bar
resolution, B_n free on the cells [h_1|...|h_n] with no h_i = 1, under the
matching of Joellenbeck-Welker (Mem. AMS 197, 2009, ch. 5; Skoeldberg,
Trans. AMS 358, 2006), which yields Anick's resolution:

* Each element is named by its shortlex normal form, the least word
  (shortest, then lexicographic) over a generating set with few tips (see
  `GroupResolution`), read off a breadth-first search.  The normal words
  are closed under taking subwords.
* Entry w_1 of a cell [w_1|...|w_n] is attached when it is a generator,
  and entry w_i, after an attached w_{i-1}, when it is the shortest normal
  word with w_{i-1} w_i reducible.  Fully attached cells are critical; they
  are the free Z[H]-basis of A_n.
* Every other cell is paired at its first entry w_i that is not attached.
  It is split upward, into [..|u|v|..] with uv = w_i, at the shortest
  prefix u of w_i that reduces against w_{i-1} (its first letter, when
  i = 1), or merged downward into [..|w_{i-1} w_i|..] when that product
  stays normal.  The two rules undo each other, and a pair is linked by an
  inner face, whose coefficient is +-1.
* d_M(c) = phi(d c) on a critical cell c, for the flow phi: B -> A of the
  matching: the identity on critical cells, zero on cells merged downward,
  and on a cell b split upward into b', -e phi(d b' - e b), with
  e = [d b' : b] = +-1.  phi is a chain map.  It is computed with an
  explicit stack and memoized per bar cell, so no bar matrix is built.

The differentials have entries in Z[H].  A_* (x)_H Z gives homology and
Hom_H(A_*, M) cohomology.  Z/n has one cell in every degree, S3 1, 2, 3,
5, 9, 17, ..., D4 1, 2, 3, 5, 8, 12, ... and A4 1, 2, 5, 10, 21, 42, ...,
where the normalized bar complex has (|H| - 1)^n cells.  Every degree is
charged (n + 1)^2 entries of work up front, and every face the flow
visits its length plus the size of its flow, to a `groupoids.Budget` as
the work is spent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .groupoids import Budget, FiniteGroupoid, GModule, GroupoidError
from .zlinalg import ChainComplex, IntMatrix


class _Shortlex:
    """Shortlex normal forms over the generators `gens` (local numbers),
    from a breadth-first search that tries the generators in order: the
    search reaches each element first along its least word, so its tree
    edges are the normal words' last letters, and `extends` tests in one
    step whether a normal word stays normal with one more letter."""

    def __init__(self, mul: list, inv: list, gens: list):
        size = len(mul)
        self.gens = gens
        # word[h]: h's normal form, as generator positions; prefixes[h]: the
        # elements of its nonempty prefixes, ending with h
        self.word = [()] + [None] * (size - 1)
        self.prefixes = [()] + [None] * (size - 1)
        self.parent = [-1] * size
        queue = [0]
        for h in queue:
            for i, g in enumerate(gens):
                k = mul[h][g]
                if self.word[k] is None:
                    self.word[k] = self.word[h] + (i,)
                    self.prefixes[k] = self.prefixes[h] + (k,)
                    self.parent[k] = h
                    queue.append(k)
        # the tips, the least reducible words: u x reducible, word(u)[1:] x normal
        self.tips = sum(1 for u in range(1, size) for i, g in enumerate(gens)
                        if not self.extends(u, i, mul[u][g])
                        and self.extends(s := mul[inv[gens[self.word[u][0]]]][u], i, mul[s][g]))

    def extends(self, e: int, letter: int, k: int) -> bool:
        """Whether word(e) + (letter,) is normal, k being its element."""
        return self.parent[k] == e and self.word[k][-1] == letter


class GroupResolution:
    """The Morse complex A_* of the isotropy group of H at the unit x.

    Elements are numbered locally, the unit first: `elements[h]` is the
    arrow of H numbered h.  A cell is a tuple of local numbers; a chain is
    a dict {(h, j): v} standing for the sum of v * h * c_j, c_j the j-th
    critical cell of its degree.

    The generators are chosen for a small resolution: starting from each
    of the first 32 elements in turn, the least elements outside the
    subgroup generated so far are added, and the set with the fewest
    generators, then the fewest tips, wins (the first among ties).  Two
    reflections generate S3 and D4, with three tips each.
    """

    def __init__(self, H: FiniteGroupoid, x: int, budget: Budget):
        self.unit = x
        self.elements = [x] + [g for g in H.arrows_by_src[x] if g != x]
        pos = {g: h for h, g in enumerate(self.elements)}
        self.mul = [[pos[H.comp[g, k]] for k in self.elements] for g in self.elements]
        self.inv = [pos[H.inv[g]] for g in self.elements]
        self._budget = budget
        self.forms = self._normal_forms()
        self._reducing: Dict[tuple, Optional[int]] = {}
        self._attached: Dict[int, list] = {}
        self._cells = [[()]]
        self._index = {(): 0}
        self._flows: Dict[tuple, dict] = {}
        self._differentials: Dict[int, list] = {}

    def _normal_forms(self) -> _Shortlex:
        mul, size = self.mul, len(self.mul)
        best = None
        for first in range(1, min(size, 33)):
            gens, reached = [], {0}
            for h in [first] + list(range(1, size)):
                if h not in reached:
                    gens.append(h)
                    queue = list(reached)
                    for a in queue:
                        for g in gens:
                            if (b := mul[a][g]) not in reached:
                                reached.add(b)
                                queue.append(b)
            self._budget.charge(2 * size * len(gens))
            forms = _Shortlex(mul, self.inv, gens)
            if best is None or (len(gens), forms.tips) < (len(best.gens), best.tips):
                best = forms
            if (len(gens), forms.tips) == (1, 1):  # a cyclic group: nothing is smaller
                break
        return best or _Shortlex(mul, self.inv, [])

    def _reducing_prefix(self, a: int, b: int):
        """The length of the shortest prefix u of b's word with word(a) u
        reducible, or None if word(a) word(b) is normal."""
        key = (a, b)
        if key not in self._reducing:
            forms, row, e, found = self.forms, self.mul[a], a, None
            for n, (letter, p) in enumerate(zip(forms.word[b], forms.prefixes[b]), 1):
                k = row[p]
                if not forms.extends(e, letter, k):
                    found = n
                    break
                e = k
            self._reducing[key] = found
        return self._reducing[key]

    def cells(self, n: int) -> list:
        """The critical cells of degree n: [x|w_2|...|w_n], x a generator
        and each w_{i+1} attached after w_i."""
        while len(self._cells) <= n:
            m = len(self._cells)
            if m == 1:
                new = [(g,) for g in self.forms.gens]
            else:
                new = [c + (b,) for c in self._cells[-1] for b in self._attached_after(c[-1])]
            self._budget.charge(len(new) * (m + 1))
            self._index.update((c, j) for j, c in enumerate(new))
            self._cells.append(new)
        return self._cells[n]

    def _attached_after(self, a: int) -> list:
        if a not in self._attached:
            self._budget.charge(len(self.elements))
            self._attached[a] = [b for b in range(1, len(self.elements))
                                 if self._reducing_prefix(a, b) == len(self.forms.word[b])]
        return self._attached[a]

    def partner(self, cell: tuple):
        """0 for a critical cell, -1 for a cell merged downward, else the
        cell one degree up that this one is split into."""
        prev = None
        for i, h in enumerate(cell):
            k = 1 if prev is None else self._reducing_prefix(prev, h)
            if k is None:
                return -1
            if k < len(self.forms.word[h]):
                u = self.forms.prefixes[h][k - 1]
                return cell[:i] + (u, self.mul[self.inv[u]][h]) + cell[i + 1:]
            prev = h
        return 0

    def _faces(self, cell: tuple) -> list:
        """(g, sign, face) for the bar boundary sum of sign * g * face: face 0
        drops h_1 and carries h_1, face i composes h_i h_{i+1} (zero if that
        is the unit), and the last drops h_n."""
        n, mul = len(cell), self.mul
        out = [(cell[0], 1, cell[1:])]
        for i in range(1, n):
            h = mul[cell[i - 1]][cell[i]]
            if h:
                out.append((0, -1 if i % 2 else 1, cell[:i - 1] + (h,) + cell[i + 1:]))
        out.append((0, -1 if n % 2 else 1, cell[:-1]))
        return out

    def _combine(self, terms: list, sign: int) -> dict:
        """The chain sum of sign * s * g * phi(face) over (g, s, face) in terms."""
        flows, mul, out = self._flows, self.mul, {}
        work = 0
        for g, s, face in terms:
            s *= sign
            row = mul[g]
            chain = flows[face]
            work += len(face) + len(chain)
            for (h, j), v in chain.items():
                key = (row[h], j)
                out[key] = out.get(key, 0) + s * v
        self._budget.charge(work)
        return {k: v for k, v in out.items() if v}

    def flow(self, cell: tuple) -> dict:
        """phi(cell), a chain of critical cells of the same degree."""
        flows, stack, pending = self._flows, [cell], {}
        while stack:
            c = stack[-1]
            if c in flows:
                stack.pop()
                continue
            if c not in pending:
                partner = self.partner(c)
                if partner == 0 or partner == -1:
                    flows[c] = {(0, self._index[c]): 1} if partner == 0 else {}
                    stack.pop()
                    continue
                faces = self._faces(partner)
                hits = [(g, s) for g, s, face in faces if face == c]
                if any(g for g, _ in hits) or sum(s for _, s in hits) not in (1, -1):
                    raise GroupoidError(f"the matching pairs the cell {c} by a "
                                        "coefficient other than +-1")
                rest = [t for t in faces if t[2] != c]
                pending[c] = (sum(s for _, s in hits), rest)
                missing = [face for _, _, face in rest if face not in flows]
                if any(face in pending for face in missing):
                    raise GroupoidError(f"the flow of the cell {c} runs into a cell "
                                        "whose flow is in progress")
                stack.extend(missing)
                continue
            e, rest = pending.pop(c)
            flows[c] = self._combine(rest, -e)
            stack.pop()
        return flows[cell]

    def differential(self, n: int) -> list:
        """d_M on each critical cell of degree n >= 1, as chains in degree n - 1."""
        if n not in self._differentials:
            self.cells(n - 1)
            out = []
            for c in self.cells(n):
                faces = self._faces(c)
                for _, _, face in faces:
                    self.flow(face)
                out.append(self._combine(faces, 1))
            self._differentials[n] = out
        return self._differentials[n]


def _resolutions(H: FiniteGroupoid, top: int) -> Tuple[List[GroupResolution], Budget]:
    """One resolution per unit of H, a disjoint union of groups, and the
    budget they charge; each degree up to top is charged (n + 1)^2 before
    any work."""
    budget = Budget(f"resolution degrees 0..{top}")
    for n in range(top + 1):
        budget.charge((n + 1) ** 2)
    return [GroupResolution(H, x, budget) for x in H.units], budget


def isotropy_chains(H: FiniteGroupoid, n_max: int) -> ChainComplex:
    """A_* (x)_H Z in degrees 0..n_max + 1: each Z[H] entry is replaced by
    the sum of its coefficients, the groups laid side by side."""
    res, _ = _resolutions(H, n_max + 1)
    ds = [IntMatrix.zeros(0, len(res))]
    for n in range(1, n_max + 2):
        entries, rows, cols = [], 0, 0
        for r in res:
            for col, chain in enumerate(r.differential(n), cols):
                entries.extend((rows + j, col, v) for (_, j), v in chain.items())
            rows += len(r.cells(n - 1))
            cols += len(r.cells(n))
        ds.append(IntMatrix.from_entries(rows, cols, entries))
    return ChainComplex(ds, -1)


def isotropy_cochains(H: FiniteGroupoid, M: GModule, n_max: int) -> ChainComplex:
    """Hom_H(A_*, M) in degrees 0..n_max, M a module over H: one block of
    the fiber per critical cell, and delta_n has at (c, c') the block
    sum_h a_{c',h} M(h), where d_M c = sum a_{c',h} h c'."""
    res, budget = _resolutions(H, n_max + 1)
    ds = []
    for n in range(n_max + 1):
        entries, rows, cols = [], 0, 0
        for r in res:
            rank = M.rank_at(r.unit)
            act = [M.act(g) for g in r.elements]
            for row, chain in enumerate(r.differential(n + 1)):
                budget.charge(len(chain) * (1 + rank * rank))
                entries.extend((rows + row * rank + a, cols + j * rank + b, v * w)
                               for (h, j), v in chain.items()
                               for a, b, w in act[h].entries())
            rows += rank * len(r.cells(n + 1))
            cols += rank * len(r.cells(n))
        ds.append(IntMatrix.from_entries(rows, cols, entries))
    return ChainComplex(ds, 1)
