"""Seeded inputs, job lists and engine-free answer checks for the benchmark.

Every workload is a list of `groupoidal` CLI jobs, sized so that one pass
(a round) takes about a second; the benchmark runs many rounds.
`make_jobs` writes the input files of one round into a directory and
returns its jobs; each job carries the answer it must produce, derived
here in closed form (group homology, Morita invariance, cycle counts,
Z[1/6] arithmetic), so no answer depends on the engine under test.  The
seed fixes the instances of a run; the round relabels them (Cayley table
elements, arrow ids, points), so every round does the same work on inputs
no earlier round used.  Jobs that take only numbers (UHF towers,
odometers) are the same in every round; each round is a fresh process.
"""

import json
import os
import random
from itertools import permutations
from math import gcd

WORKLOADS = {
    "nerve-homology": "sparse boundary matrices up to 1536 columns; rank-only "
                      "elimination dominates (nerve size, dense builders, double "
                      "factorization)",
    "skew-les": "about a hundred medium factorizations with transforms, solves, "
                "presentation coords and commutation products (both LES modes)",
    "af-towers": "full-transform snf with dense U*S read-out, lattice solves and "
                 "square id - P kernels, where pivot order drives fill and entry size",
    "theta-zoo": "100 tiny verify-theta jobs, so per-call CLI parse, validation, "
                 "small builders and engine set-up dominate",
}


# -- finitely generated abelian groups, without the engine -------------------


def _prime_powers(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def group(free_rank: int = 0, orders=()) -> dict:
    """Z^free_rank + sum of Z/o, in the CLI's invariant-factor form."""
    per_prime = {}
    for o in orders:
        for p, q in _prime_powers(o).items():
            per_prime.setdefault(p, []).append(q)
    for qs in per_prime.values():
        qs.sort(reverse=True)
    n = max((len(qs) for qs in per_prime.values()), default=0)
    factors = []
    for i in range(n):
        f = 1
        for qs in per_prime.values():
            if i < len(qs):
                f *= qs[i]
        factors.append(f)
    return {"free_rank": free_rank, "torsion": sorted(factors)}


def direct_sum(*groups: dict) -> dict:
    orders = []
    for g in groups:
        orders.extend(g["torsion"])
    return group(sum(g["free_rank"] for g in groups), orders)


def cyclic_group_homology(m: int, degree: int) -> dict:
    """H_n(Z/m; Z): Z, then Z/m in odd degrees and 0 in even ones."""
    if degree == 0:
        return group(1)
    return group(0, [m]) if degree % 2 else group(0)


S3_HOMOLOGY = [group(1), group(0, [2]), group(0), group(0, [6])]
S3_COHOMOLOGY = [group(1), group(0), group(0, [2]), group(0)]


# -- seeded model files ------------------------------------------------------


def _relabel(table, rng: random.Random):
    """Cayley table with its elements renamed by a random permutation."""
    k = len(table)
    sigma = list(range(k))
    rng.shuffle(sigma)
    out = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out, sigma


def cyclic_table(m: int):
    return [[(a + b) % m for b in range(m)] for a in range(m)]


def s3_table():
    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in elems] for a in elems]


def _unimodular(rng: random.Random, r: int, steps: int):
    """Random unimodular r x r matrix together with its exact inverse."""
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    inv = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        if r == 1 or rng.randrange(3) == 2:
            i = rng.randrange(r)
            m[i] = [-v for v in m[i]]
            for row in inv:
                row[i] = -row[i]
        elif rng.randrange(2):
            i, j = rng.sample(range(r), 2)
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            i, j = rng.sample(range(r), 2)
            c = rng.choice([-1, 1])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            for row in inv:
                row[j] -= c * row[i]
    return m, inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# explicit groupoids: arrows, units, src, rng, inv and a composition dict


def _space(k):
    ids = list(range(k))
    return ids, ids, ids, ids, {(i, i): i for i in ids}, "space", k


def _cyclic_group(m):
    ids = list(range(m))
    comp = {(a, b): (a + b) % m for a in ids for b in ids}
    return [0], [0] * m, [0] * m, [(-a) % m for a in ids], comp, "cyclic", m


def _pair(k):
    pairs = [(a, b) for a in range(k) for b in range(k)]
    index = {p: i for i, p in enumerate(pairs)}
    units = [index[(y, y)] for y in range(k)]
    src = [index[(b, b)] for (_, b) in pairs]
    rng_ = [index[(a, a)] for (a, _) in pairs]
    inv = [index[(b, a)] for (a, b) in pairs]
    comp = {(index[(a, b)], index[(b, d)]): index[(a, d)]
            for (a, b) in pairs for d in range(k)}
    return units, src, rng_, inv, comp, "free", k


def _blocks_union(blocks):
    units, src, rng_, inv, comp, kinds = [], [], [], [], {}, []
    for b_units, b_src, b_rng, b_inv, b_comp, tag, size in blocks:
        off = len(src)
        units += [u + off for u in b_units]
        src += [s + off for s in b_src]
        rng_ += [r + off for r in b_rng]
        inv += [i + off for i in b_inv]
        comp.update({(g + off, h + off): gh + off for (g, h), gh in b_comp.items()})
        kinds.append((tag, size, [u + off for u in b_units]))
    return units, src, rng_, inv, comp, kinds


def _random_zoo_instance(rng: random.Random, modules: random.Random, max_arrows: int = 20):
    """A disjoint union of 1-3 small blocks (unit spaces, Z/2..Z/4, pair
    groupoids on 2-3 points, regular Z/2 and Z/3 actions) with at most
    `max_arrows` arrows and fiber ranks of 1 or 2 on each orbit, drawn
    from `rng`, plus a conjugated-constant module drawn from `modules`,
    sign twisted when the sign character is multiplicative, and the
    cocycle cohomology in degrees 0..2 it must have.  Returns (groupoid,
    module action, fiber ranks, expected groups)."""
    while True:
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(5)
            if kind == 0:
                blocks.append(_space(rng.randint(1, 3)))
            elif kind == 1:
                blocks.append(_cyclic_group(rng.randint(2, 4)))
            elif kind == 2:
                blocks.append(_pair(rng.randint(2, 3)))
            else:
                # a regular action is isomorphic to the pair groupoid
                blocks.append(_pair(2 if kind == 3 else 3))
        units, src, rng_, inv, comp, kinds = _blocks_union(blocks)
        if len(src) <= max_arrows:
            break
    n = len(src)
    # the sign character (-1 on non-units) is multiplicative iff every
    # composite of two non-units is a unit
    unit_set = set(units)
    sign_ok = all(gh in unit_set for (g, h), gh in comp.items()
                  if g not in unit_set and h not in unit_set)
    twist = sign_ok and modules.random() < 0.5
    # orbits are the blocks' unit sets, except that each unit of a unit
    # space is an orbit of its own
    rank = {}
    expected = [group(0), group(0), group(0)]
    for tag, size, block_units in kinds:
        if tag == "space":
            for u in block_units:
                r = rng.randint(1, 2)
                rank[u] = r
                expected[0] = direct_sum(expected[0], group(r))
            continue
        r = rng.randint(1, 2)
        for u in block_units:
            rank[u] = r
        if tag == "cyclic" and twist:  # only Z/2 admits the twist
            parts = [group(0), group(0, [2] * r), group(0)]
        elif tag == "cyclic":
            parts = [group(r), group(0), group(0, [size] * r)]
        else:  # transitive with trivial isotropy: a point
            parts = [group(r), group(0), group(0)]
        expected = [direct_sum(a, b) for a, b in zip(expected, parts)]
    conj = {u: _unimodular(modules, rank[u], modules.randint(2, 5)) for u in units}
    action = {}
    for g in range(n):
        m = _matmul(conj[rng_[g]][0], conj[src[g]][1])
        if twist and g not in unit_set:
            m = [[-v for v in row] for row in m]
        action[g] = m
    return (units, src, rng_, inv, comp), action, rank, expected


def _zoo_files(instance, rng: random.Random):
    """Model and module documents of a zoo instance with its arrows
    renamed at random, so the files carry no block structure."""
    (units, src, rng_, inv, comp), action, rank, _ = instance
    n = len(src)
    pi = list(range(n))
    rng.shuffle(pi)
    model = {"kind": "explicit", "arrows": n,
             "units": sorted(pi[u] for u in units),
             "src": [0] * n, "rng": [0] * n, "inv": [0] * n,
             "compose": sorted([pi[g], pi[h], pi[gh]] for (g, h), gh in comp.items())}
    for g in range(n):
        model["src"][pi[g]] = pi[src[g]]
        model["rng"][pi[g]] = pi[rng_[g]]
        model["inv"][pi[g]] = pi[inv[g]]
    module = {"fibers": {str(pi[u]): rank[u] for u in units},
              "action": {str(pi[g]): action[g] for g in range(n)}}
    return model, module


# -- job lists ---------------------------------------------------------------


def _job(job_id, argv, expect):
    return {"id": job_id, "argv": argv + ["--format", "json"], "expect": expect}


def _write(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _nerve_homology(d, _, labels):
    z5, _ = _relabel(cyclic_table(5), labels)
    s3_h, _ = _relabel(s3_table(), labels)
    s3_c, _ = _relabel(s3_table(), labels)
    z4, sigma = _relabel(cyclic_table(4), labels)
    points = list(range(6))
    labels.shuffle(points)
    swap = list(range(6))
    for a, b in zip(points[0::2], points[1::2]):
        swap[a], swap[b] = b, a
    # element g of Z/4 acts through Z/2: odd elements swap three pairs
    perms = [None] * 4
    for g in range(4):
        perms[sigma[g]] = swap if g % 2 else list(range(6))
    # a conjugated constant module C * 1 * C^-1 over a one-unit groupoid
    # acts by the identity whatever C is
    s3_unit = next(e for e in range(6) if all(s3_c[e][x] == x for x in range(6)))
    module = {"fibers": {str(s3_unit): 2},
              "action": {str(g): [[1, 0], [0, 1]] for g in range(6)}}
    return [
        _job("z5-homology-3",
             ["homology", _write(d, "z5.json", {"kind": "group", "cayley": z5}),
              "--max-degree", "3"],
             {"kind": "groups", "groups": [cyclic_group_homology(5, n) for n in range(4)]}),
        _job("s3-homology-3",
             ["homology", _write(d, "s3.json", {"kind": "group", "cayley": s3_h}),
              "--max-degree", "3"],
             {"kind": "groups", "groups": S3_HOMOLOGY}),
        # Morita: three orbits with isotropy Z/2
        _job("z4-on-6-homology-3",
             ["homology", _write(d, "z4_on_6.json",
                                 {"kind": "action", "cayley": z4, "perms": perms}),
              "--max-degree", "3"],
             {"kind": "groups",
              "groups": [direct_sum(*[cyclic_group_homology(2, n)] * 3) for n in range(4)]}),
        # Morita: the pair groupoid is equivalent to a point
        _job("pair4-homology-3",
             ["homology", _write(d, "pair4.json", {"kind": "pair", "fibers": [4]}),
              "--max-degree", "3"],
             {"kind": "groups", "groups": [group(1), group(0), group(0), group(0)]}),
        _job("s3-cohomology-2-rank2",
             ["cohomology", _write(d, "s3c.json", {"kind": "group", "cayley": s3_c}),
              "--module", _write(d, "s3c_module.json", module), "--max-degree", "2"],
             {"kind": "groups", "groups": [direct_sum(g, g) for g in S3_COHOMOLOGY[:3]]}),
    ]


def _skew_les(d, _, labels):
    # pair(3): arrow (y1, y2) has id 3*y1 + y2, source unit y2, range unit y1.
    # The potential takes each of 0, 1, 2 once, so every labelling gives the
    # same window sizes.
    f = [0, 1, 2]
    labels.shuffle(f)
    cocycle = {"values": {str(3 * a + b): f[a] - f[b] for a in range(3) for b in range(3)}}
    z2, _ = _relabel(cyclic_table(2), labels)
    pair3 = _write(d, "pair3.json", {"kind": "pair", "fibers": [3]})
    pot = _write(d, "pair3_cocycle.json", cocycle)
    z2_path = _write(d, "z2.json", {"kind": "group", "cayley": z2})
    point = [group(1), group(0), group(0)]
    z2_groups = {"homology": [cyclic_group_homology(2, n) for n in range(3)],
                 "cohomology": [group(1), group(0), group(0, [2])]}
    jobs = []
    for mode in ("homology", "cohomology"):
        jobs.append(_job(f"pair3-potential-{mode}",
                         ["skew-les", pair3, "--cocycle", pot, "--window", "7",
                          "--guard", "3", "--max-degree", "2", "--mode", mode],
                         {"kind": "skew-les", "base_groups": point}))
    for mode in ("homology", "cohomology"):
        jobs.append(_job(f"z2-zero-{mode}",
                         ["skew-les", z2_path, "--cocycle", "zero", "--window", "8",
                          "--guard", "3", "--max-degree", "2", "--mode", mode],
                         {"kind": "skew-les", "base_groups": z2_groups[mode]}))
    return jobs


def _coprime_part(q, p):
    while (g := gcd(q, p)) > 1:
        q //= g
    return q


def _uhf6_queries(rng, count=100):
    """Queries on Z --x6--> Z --x6--> ..., whose colimit is Z[1/6]."""
    queries, answers = [], []
    for i in range(count):
        if i % 2 == 0:
            stage = rng.randrange(6)
            v = rng.randint(-500, 500)
            q = rng.choice([2, 3, 4, 5, 6, 7, 9, 10, 12, 14, 15, 25, 35, 36, 49, 144])
            queries.append({"op": "divisible", "stage": stage, "vector": [v],
                            "q": q, "bound": 20})
            answers.append({"op": "divisible", "stage": stage, "v": v, "q": q,
                            "divisible": v % _coprime_part(q, 6) == 0})
        else:
            sa, sb = rng.randrange(6), rng.randrange(6)
            a = rng.randint(-300, 300)
            if rng.random() < 0.5 and sb >= sa:
                b = a * 6 ** (sb - sa)  # the same class seen one stage later
            else:
                b = rng.randint(-300, 300)
            top = max(sa, sb)
            queries.append({"op": "equal", "a": {"stage": sa, "vector": [a]},
                            "b": {"stage": sb, "vector": [b]}, "bound": 20})
            answers.append({"op": "equal", "stage": top,
                            "equal": a * 6 ** (top - sa) == b * 6 ** (top - sb)})
    return queries, answers


def _cycles(perm):
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return count


def _af_towers(d, instances, labels):
    jobs = []
    for p, n_stages, depth in ((2, 4, 5), (3, 3, 2)):
        path = _write(d, f"uhf{p}.json",
                      {"kind": "bratteli", "stationary": True, "p": p, "levels": n_stages})
        jobs.append(_job(f"uhf{p}-af-cohomology",
                         ["af-cohomology", path, "--levels", str(n_stages),
                          "--depth", str(depth)],
                         {"kind": "af-cohomology", "p": p,
                          # the shift pullback is injective, so images keep
                          # full rank; threads are fixed by the last stage
                          "image_ranks": [p ** (depth + n_stages - m)
                                          for m in range(1, n_stages + 1)],
                          "thread_rank": p ** depth}))
    for p, depth in ((2, 9), (3, 5)):
        jobs.append(_job(f"odometer-{p}-{depth}",
                         ["odometer", "--p", str(p), "--max-depth", str(depth)],
                         {"kind": "odometer", "p": p, "depth": depth}))
    queries, answers = _uhf6_queries(instances)
    jobs.append(_job("uhf6-dimension-group",
                     ["dimension-group",
                      _write(d, "uhf6.json", {"kind": "bratteli", "stationary": True,
                                              "p": 6, "levels": 4}),
                      "--queries", _write(d, "uhf6_queries.json", queries)],
                     {"kind": "dimension-group", "answers": answers}))
    perm = list(range(300))
    instances.shuffle(perm)
    # conjugating by a relabelling of the points keeps the cycle type
    sigma = list(range(300))
    labels.shuffle(sigma)
    relabelled = [0] * 300
    for x in range(300):
        relabelled[sigma[x]] = sigma[perm[x]]
    jobs.append(_job("z-action-300",
                     ["z-action", "--perm", ",".join(map(str, relabelled))],
                     {"kind": "z-action", "cycles": _cycles(perm)}))
    return jobs


def _theta_zoo(d, instances, labels, count=100):
    # the groupoids and fiber ranks, which set the amount of work, are the
    # same for every seed; the seed draws the modules
    shapes = random.Random("theta-zoo")
    jobs = []
    for i in range(count):
        instance = _random_zoo_instance(shapes, instances)
        model, module = _zoo_files(instance, labels)
        jobs.append(_job(f"zoo-{i}",
                         ["verify-theta", _write(d, f"zoo{i}.json", model),
                          "--module", _write(d, f"zoo{i}_module.json", module),
                          "--max-degree", "2"],
                         {"kind": "verify-theta", "groups": instance[3]}))
    return jobs


_BUILDERS = {"nerve-homology": _nerve_homology, "skew-les": _skew_les,
             "af-towers": _af_towers, "theta-zoo": _theta_zoo}


def make_jobs(workload: str, seed: int, round_index: int, directory: str) -> list:
    """Write the inputs of one round of `workload` into `directory` and
    return its jobs; paths in the jobs are as given by `directory`."""
    instances = random.Random(f"{workload}/{seed}")
    labels = random.Random(f"{workload}/{seed}/{round_index}")
    os.makedirs(directory, exist_ok=True)
    return _BUILDERS[workload](directory, instances, labels)


# -- answer checks -----------------------------------------------------------


def _degree_groups(entries):
    return [{"free_rank": e["free_rank"], "torsion": e["torsion"]} for e in entries]


def _check_groups(doc, want):
    got = _degree_groups(doc["groups"])
    return None if got == want["groups"] else f"groups {got} != {want['groups']}"


def _check_verify_theta(doc, want):
    if doc.get("ok") is not True:
        return "verification reported ok=false"
    (inst,) = doc["instances"]
    got = _degree_groups(inst["groups"])
    return None if got == want["groups"] else f"groups {got} != {want['groups']}"


def _check_skew(doc, want):
    if doc.get("ok") is not True or doc.get("connecting_ok") is not True:
        return "verification reported ok=false"
    if not all(all(v for k, v in ch.items() if k != "degree") for ch in doc["degree_checks"]):
        return "a degree check failed"
    if doc["degree0"]["matches_base"] is not True:
        return "degree-0 bookkeeping does not match the base"
    got = _degree_groups(doc["base_groups"])
    return None if got == want["base_groups"] else f"base groups {got} != {want['base_groups']}"


def _check_af(doc, want):
    h0, h1 = doc["h0"], doc["h1"]
    if h0["lattice_rank"] != 1 or h0["constants_only"] is not True:
        return f"H^0 lattice {h0} is not the constants"
    if h1["nonml_evidence"] is not True:
        return "no non-Mittag-Leffler evidence"
    if h1["image_ranks"] != want["image_ranks"]:
        return f"image ranks {h1['image_ranks']} != {want['image_ranks']}"
    if h0["truncated_thread_rank"] != want["thread_rank"]:
        return f"thread rank {h0['truncated_thread_rank']} != {want['thread_rank']}"
    return None


def _check_odometer(doc, want):
    z = group(1)
    depths = doc["depths"]
    if [e["depth"] for e in depths] != list(range(1, want["depth"] + 1)):
        return "wrong depths"
    for e in depths:
        if e["h0"] != z or e["h1"] != z:
            return f"depth {e['depth']}: groups are not Z, Z"
        first = e["depth"] == 1
        if e["h0_connecting"] != (None if first else [[want["p"]]]):
            return f"depth {e['depth']}: H_0 connecting map {e['h0_connecting']}"
        if e["h1_connecting"] != (None if first else [[1]]):
            return f"depth {e['depth']}: H_1 connecting map {e['h1_connecting']}"
    return None if doc["stabilized_h1"] == z else "stabilized H_1 is not Z"


def _check_dimension_group(doc, want):
    got, answers = doc["queries"], want["answers"]
    if len(got) != len(answers):
        return f"{len(got)} query answers for {len(answers)} queries"
    for i, (g, a) in enumerate(zip(got, answers)):
        if a["op"] == "divisible":
            if not a["divisible"]:
                if g["kind"] != "no" or g["exact"] is not True:
                    return f"query {i}: {g}, expected an exact no"
                continue
            if g["kind"] != "witness" or g["stage"] < a["stage"]:
                return f"query {i}: {g}, expected a witness"
            # q * x = v * 6^(stage - start) at the witness stage
            if a["q"] * g["vector"][0] != a["v"] * 6 ** (g["stage"] - a["stage"]):
                return f"query {i}: {g} is not a witness"
        else:
            kind = "equal" if a["equal"] else "not_equal"
            if (g["kind"], g["stage"], g["exact"]) != (kind, a["stage"], True):
                return f"query {i}: {g}, expected {kind} at stage {a['stage']}"
    return None


def _check_z_action(doc, want):
    z = group(want["cycles"])
    for key in ("h0", "h1", "h0_dual", "h1_dual"):
        if doc[key] != z:
            return f"{key} {doc[key]} != Z^{want['cycles']}"
    return None


_CHECKS = {"groups": _check_groups, "verify-theta": _check_verify_theta,
           "skew-les": _check_skew, "af-cohomology": _check_af,
           "odometer": _check_odometer, "dimension-group": _check_dimension_group,
           "z-action": _check_z_action}


def check(job: dict, exit_code, stdout: str):
    """None when the job exited 0 and printed its expected answer, else
    the reason it counts as failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
        return _CHECKS[job["expect"]["kind"]](doc, job["expect"])
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
