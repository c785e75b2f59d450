import json
import random

import pytest

from groupoidal import cohomology, zlinalg
from groupoidal.cohomology import (cochain_pullback_matrix,
                                   cocycle_coboundary_matrix,
                                   cocycle_cohomology, hom_coboundary_matrix,
                                   hom_side_cohomology, pullback_module, theta_rho_check)
from groupoidal.groupoids import (GroupoidFunctor, nerve, validate_module)
from groupoidal.models import (action_groupoid, constant_module, cyclic_table,
                               disjoint_union, full_pair_groupoid, group_groupoid,
                               random_groupoid, random_module, sign_module,
                               space_groupoid)
from groupoidal.zlinalg import (ChainComplex, DimensionMismatch, FgAbGroup, IntMatrix,
                                kernel_basis, rank)

from isotropy_models import random_orbit_groupoid
from oracles import (betti_over_field_cochain, complex_betti, group_cochain_deltas,
                     induced_cohomology_map, modp_rank, orbit_count, permutation_module,
                     rational_rank, recording_engine, selection_matrix,
                     theta_rho_by_products)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def test_cohomology_builds_each_block_space_once(monkeypatch):
    # degrees 0..3 need the spaces of degrees 0..4: five of each kind
    calls = {"cochain_space": 0, "hom_space": 0}
    for name in calls:
        def counted(*args, _build=getattr(cohomology, name), _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(cohomology, name, counted)
    # theta_rho_check builds both models on the full cochains, and the
    # groups of both equal the ones read on the isotropy resolution
    z3 = group_groupoid(cyclic_table(3))
    M = constant_module(z3, 1)
    rep = theta_rho_check(z3, M, 3)
    assert rep.ok
    assert rep.cocycle_groups == rep.hom_groups == cocycle_cohomology(z3, M, 3)
    assert calls == {"cochain_space": 5, "hom_space": 5}


def test_delta0_trivial_module_on_group_is_zero():
    z2 = group_groupoid(cyclic_table(2))
    d0 = cocycle_coboundary_matrix(z2, constant_module(z2, 1), 0)
    assert d0 == IntMatrix.zeros(2, 1)


def test_delta1_z2_hand_values():
    z2 = group_groupoid(cyclic_table(2))
    d1 = cocycle_coboundary_matrix(z2, constant_module(z2, 1), 1)
    cols = {t: i for i, t in enumerate(nerve(z2, 1).tuples)}
    rows = {t: i for i, t in enumerate(nerve(z2, 2).tuples)}
    # f(e) = 0 three times and -f(e) + 2 f(g) = 0 encoded exactly
    assert d1.data[rows[(0, 0)]] == [1, 0]
    assert d1.data[rows[(0, 1)]] == [1, 0]
    assert d1.data[rows[(1, 0)]] == [1, 0]
    assert d1.data[rows[(1, 1)]] == [-1, 2]
    assert kernel_basis(d1).cols == 0


def test_delta0_sign_module():
    z2 = group_groupoid(cyclic_table(2))
    d0 = cocycle_coboundary_matrix(z2, sign_module(z2), 0)
    # value at the unit arrow is 0, at the flip it is -2m
    assert sorted(v[0] for v in d0.data) == [-2, 0]


def test_delta_squares_to_zero():
    rng = random.Random(3)
    cases = [(group_groupoid(cyclic_table(2)), None),
             (full_pair_groupoid(3), None)]
    for _ in range(4):
        G = random_groupoid(rng)
        cases.append((G, random_module(G, rng)))
    for G, M in cases:
        M = M or constant_module(G, 1)
        for n in (0, 1, 2):
            prod = (cocycle_coboundary_matrix(G, M, n + 1)
                    * cocycle_coboundary_matrix(G, M, n))
            assert prod.is_zero()
            prod = (hom_coboundary_matrix(G, M, n + 1)
                    * hom_coboundary_matrix(G, M, n))
            assert prod.is_zero()


def test_z2_cohomology_frozen():
    z2 = group_groupoid(cyclic_table(2))
    got = cocycle_cohomology(z2, constant_module(z2, 1), 3)
    assert got == [Z, ZERO, FgAbGroup.from_orders([2]), ZERO]


def test_z3_cohomology_frozen():
    z3 = group_groupoid(cyclic_table(3))
    got = cocycle_cohomology(z3, constant_module(z3, 1), 2)
    assert got == [Z, ZERO, FgAbGroup.from_orders([3])]


@pytest.mark.parametrize("k", [2, 3])
def test_group_cohomology_against_independent_complex(k):
    table = cyclic_table(k)
    G = group_groupoid(table)
    groups = cocycle_cohomology(G, constant_module(G, 1), 3)
    deltas = group_cochain_deltas(table, 2)
    dims = [k ** n for n in range(3)]
    outs = [deltas[n] for n in range(3)]
    ins = [None, deltas[0], deltas[1]]
    assert (complex_betti(outs, ins, dims, rational_rank)
            == [g.free_rank for g in groups[:3]])
    for p in (2, 3):
        assert (complex_betti(outs, ins, dims, lambda m: modp_rank(m, p))
                == betti_over_field_cochain(groups, p)[:3])


def test_space_groupoid_cohomology():
    sp = space_groupoid(4)
    got = cocycle_cohomology(sp, constant_module(sp, 1), 3)
    assert got == [FgAbGroup.free(4), ZERO, ZERO, ZERO]


def test_pair_groupoid_cohomology():
    p3 = full_pair_groupoid(3)
    assert cocycle_cohomology(p3, constant_module(p3, 1), 2) == [Z, ZERO, ZERO]


def test_hom_side_matches_cocycle_side():
    cases = [
        (group_groupoid(cyclic_table(2)), None),
        (group_groupoid(cyclic_table(3)), None),
        (full_pair_groupoid(3), None),
        (space_groupoid(3), None),
    ]
    z2 = group_groupoid(cyclic_table(2))
    cases.append((z2, sign_module(z2)))
    for G, M in cases:
        M = M or constant_module(G, 1)
        assert hom_side_cohomology(G, M, 2) == cocycle_cohomology(G, M, 2)


def test_hom_side_one_unit_trivial_group():
    pt = space_groupoid(1)
    M = constant_module(pt, 2)
    got = hom_side_cohomology(pt, M, 2)
    assert got == [FgAbGroup.free(2), ZERO, ZERO]


def test_theta_rho_z2():
    z2 = group_groupoid(cyclic_table(2))
    rep = theta_rho_check(z2, constant_module(z2, 1), 2)
    assert rep.ok, rep.failures


def test_theta_degree_zero_is_unit_bijection():
    from groupoidal.cohomology import theta_matrix
    p3 = full_pair_groupoid(3)
    M = constant_module(p3, 1)
    assert theta_matrix(p3, M, 0) == IntMatrix.identity(3)


def test_theta_rho_random_instances():
    rng = random.Random(42)
    for i in range(10):
        G = random_groupoid(rng)
        M = random_module(G, rng)
        rep = theta_rho_check(G, M, 2)
        assert rep.ok, (i, rep.failures)


def test_theta_rho_random_orbit_instances():
    # orbits of several units whose isotropy acts on the module
    rng = random.Random(43)
    for i in range(4):
        G, M = random_orbit_groupoid(rng)
        rep = theta_rho_check(G, M, 2)
        assert rep.ok, (i, rep.failures)


def test_pullback_module_identity():
    z2 = group_groupoid(cyclic_table(2))
    M = sign_module(z2)
    pb = pullback_module(GroupoidFunctor.identity(z2), M)
    assert pb.fiber_rank == M.fiber_rank
    assert all(pb.act(g) == M.act(g) for g in range(z2.n_arrows))


def test_pullback_module_constant_functor():
    p3 = full_pair_groupoid(3)
    pt = space_groupoid(1)
    pb = pullback_module(GroupoidFunctor(p3, pt, [0] * p3.n_arrows), constant_module(pt, 1))
    assert validate_module(p3, pb).ok
    assert all(r == 1 for r in pb.fiber_rank.values())


def test_pullback_sign_module_along_quotient():
    # Z/4 -> Z/2 pulls the sign module back to the one trivial on the kernel
    z4 = group_groupoid(cyclic_table(4))
    z2 = group_groupoid(cyclic_table(2))
    quot = GroupoidFunctor(z4, z2, [0, 1, 0, 1])
    pb = pullback_module(quot, sign_module(z2))
    assert validate_module(z4, pb).ok
    assert [pb.act(g).data[0][0] for g in range(4)] == [1, -1, 1, -1]


def test_induced_cohomology_identity():
    z2 = group_groupoid(cyclic_table(2))
    M = constant_module(z2, 1)
    for n in (0, 1, 2):
        ind = induced_cohomology_map(GroupoidFunctor.identity(z2), M, n)
        assert ind.matrix == IntMatrix.identity(ind.source.n_generators)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_induced_cohomology_factors_only_degree_n(n, monkeypatch):
    # each side factors delta_n and the relation matrix of its image, and
    # nothing of the degree below
    from test_models import S3_TABLE
    s3 = group_groupoid(S3_TABLE)
    built = []
    monkeypatch.setattr(zlinalg, "_Smith", recording_engine(built))
    ind = induced_cohomology_map(GroupoidFunctor.identity(s3), constant_module(s3, 2), n)
    assert len(built) == 4
    assert ind.matrix == IntMatrix.identity(ind.source.n_generators)


def test_surjective_functor_pullback_injective():
    p3 = full_pair_groupoid(3)
    pt = space_groupoid(1)
    phi = GroupoidFunctor(p3, pt, [0] * p3.n_arrows)
    M = constant_module(pt, 1)
    for n in (0, 1, 2):
        P = cochain_pullback_matrix(phi, M, n)
        assert kernel_basis(P).cols == 0
    ind = induced_cohomology_map(phi, M, 0)
    assert rank(ind.chain_matrix) == ind.chain_matrix.cols
    assert kernel_basis(ind.matrix).cols == 0  # injective on H^0 as well


def test_composition_reversal_at_chain_level():
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, full_pair_groupoid(2))
    pt = space_groupoid(1)
    # G1 -> G2 -> G3, and their composite G1 -> G3
    incl = GroupoidFunctor(z2, union, range(z2.n_arrows))
    collapse = GroupoidFunctor(union, pt, [0] * union.n_arrows)
    composed = GroupoidFunctor(z2, pt, [collapse(incl(g)) for g in range(z2.n_arrows)])
    M = constant_module(pt, 1)
    for n in (0, 1, 2):
        lhs = cochain_pullback_matrix(composed, M, n)
        rhs = (cochain_pullback_matrix(incl, pullback_module(collapse, M), n)
               * cochain_pullback_matrix(collapse, M, n))
        assert lhs == rhs


def test_pullback_commutes_with_coboundary():
    z2 = group_groupoid(cyclic_table(2))
    union = disjoint_union(z2, space_groupoid(2))
    incl = GroupoidFunctor(z2, union, range(z2.n_arrows))
    M = constant_module(union, 1)
    Mpull = pullback_module(incl, M)
    for n in (0, 1):
        lhs = cochain_pullback_matrix(incl, M, n + 1) * cocycle_coboundary_matrix(union, M, n)
        rhs = cocycle_coboundary_matrix(z2, Mpull, n) * cochain_pullback_matrix(incl, M, n)
        assert lhs == rhs


def test_h0_rank_is_orbit_count():
    rng = random.Random(19)
    for _ in range(5):
        G = random_groupoid(rng)
        h0 = cocycle_cohomology(G, constant_module(G, 1), 0)[0]
        assert h0 == FgAbGroup.free(orbit_count(G))


def test_transformation_groupoid_matches_group_with_permutation_module():
    perms = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    act = action_groupoid(cyclic_table(3), perms)
    z3 = group_groupoid(cyclic_table(3))
    pm = permutation_module(cyclic_table(3), perms, group=z3)
    lhs = cocycle_cohomology(act, constant_module(act, 1), 2)
    rhs = cocycle_cohomology(z3, pm, 2)
    assert lhs == rhs
    swap = action_groupoid(cyclic_table(2), [[0, 1], [1, 0]])
    z2 = group_groupoid(cyclic_table(2))
    pm2 = permutation_module(cyclic_table(2), [[0, 1], [1, 0]], group=z2)
    assert (cocycle_cohomology(swap, constant_module(swap, 1), 2)
            == cocycle_cohomology(z2, pm2, 2))


def test_s3_classical_cohomology():
    from test_models import S3_TABLE
    s3 = group_groupoid(S3_TABLE)
    got = cocycle_cohomology(s3, constant_module(s3, 1), 2)
    assert got == [Z, ZERO, FgAbGroup.from_orders([2])]
    assert theta_rho_check(s3, constant_module(s3, 1), 1).ok


# -- failure injection: theta_rho_check must report a broken identity ---------


def _orbit_instance():
    # an orbit whose isotropy acts on the module, beside a small random
    # block: 16 arrows, 6 units, fibers of rank 1 to 3
    G, M = random_orbit_groupoid(random.Random(7))
    assert not hom_coboundary_matrix(G, M, 0).is_zero()
    return G, M


def _spaces_built_by(monkeypatch, builder="hom_space"):
    """Record every space the builder builds, by identity."""
    built = set()

    def recording(*args, _build=getattr(cohomology, builder)):
        space = _build(*args)
        built.add(id(space))
        return space
    monkeypatch.setattr(cohomology, builder, recording)
    return built


def _negate_one_entry(d: IntMatrix) -> IntMatrix:
    i, j, v = min(d.entries())
    return d + IntMatrix.from_entries(d.rows, d.cols, [(i, j, -2 * v)])


def test_theta_rho_check_catches_a_flipped_entry_of_the_hom_delta(monkeypatch):
    # delta_0 is the top differential at n_max = 0, so d o d cannot see a
    # wrong entry in it; the chain-map identity must
    G, M = _orbit_instance()
    homs = _spaces_built_by(monkeypatch)

    def flipped(G, M, n, dom, cod, _build=cohomology._coboundary):
        d = _build(G, M, n, dom, cod)
        return _negate_one_entry(d) if id(dom) in homs else d
    monkeypatch.setattr(cohomology, "_coboundary", flipped)
    rep = theta_rho_check(G, M, 0)
    assert not rep.ok
    assert rep.failures == [(0, "delta_c o theta != theta o delta")]


@pytest.mark.parametrize("degree", [1, 2])
def test_theta_rho_check_names_the_degree_of_a_wrong_hom_delta(degree, monkeypatch):
    # below the top, d o d sees a negated entry, so it is negated after the
    # Hom complex is built and checked: in the delta the comparison reads
    G, M = _orbit_instance()
    homs = _spaces_built_by(monkeypatch)

    class Flipped:
        def __init__(self, complex_):
            self.complex = complex_

        def d_out(self, n):
            d = self.complex.d_out(n)
            return _negate_one_entry(d) if n == degree else d

    def building(G, M, spaces, _build=cohomology.cochain_complex):
        complex_ = _build(G, M, spaces)
        return Flipped(complex_) if id(spaces[0]) in homs else complex_
    monkeypatch.setattr(cohomology, "cochain_complex", building)
    rep = theta_rho_check(G, M, 2)
    assert not rep.ok
    assert rep.failures == [(degree, "delta_c o theta != theta o delta")]


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_theta_rho_check_names_a_non_invertible_theta_one_degree_up(n_max, monkeypatch):
    # theta in degree n_max + 1 sends its last coordinate where it sends its
    # first, so it is not a bijection; the check must report exactly what
    # the products of the same selection matrices report
    G, M = _orbit_instance()
    cocycle_ds = [cocycle_coboundary_matrix(G, M, n) for n in range(n_max + 1)]
    hom_ds = [hom_coboundary_matrix(G, M, n) for n in range(n_max + 1)]
    maps = {"theta": [], "rho": []}  # (coordinate map, columns) per degree
    homs = _spaces_built_by(monkeypatch)

    def skewed(cod, dom, key_map=None, _build=cohomology.relabel_coords):
        coords = _build(cod, dom, key_map)
        built = maps["theta" if id(dom) in homs else "rho"]
        if built is maps["theta"] and len(built) == n_max + 1:
            coords = coords[:-1] + coords[:1]
        built.append((coords, dom.total))
        return coords
    monkeypatch.setattr(cohomology, "relabel_coords", skewed)
    rep = theta_rho_check(G, M, n_max)
    assert [len(maps[k]) for k in maps] == [n_max + 2, n_max + 2]
    thetas, rhos = ([selection_matrix(*m) for m in maps[k]] for k in ("theta", "rho"))
    assert rep.failures == theta_rho_by_products(thetas, rhos, cocycle_ds, hom_ds)
    assert {(n_max + 1, "rho*theta != id"), (n_max + 1, "theta*rho != id")} <= set(rep.failures)
    assert all(n >= n_max for n, _ in rep.failures)


def test_relabelling_refuses_a_block_of_another_rank():
    # block (0,) of cod has rank 2 where the block it copies has rank 1:
    # copying it would read the first coordinate of dom's next block
    cod = cohomology.BlockSpace([(0,), (1,)], [2, 1])
    dom = cohomology.BlockSpace([(0,), (1,)], [1, 2])
    swap = lambda k: (1 - k[0],)  # noqa: E731
    for build in (cohomology.relabel_coords, cohomology.relabel_matrix):
        with pytest.raises(DimensionMismatch):
            build(cod, dom)
        with pytest.raises(DimensionMismatch):
            build(cod, cod, swap)
    assert cohomology.relabel_coords(cod, dom, swap) == [1, 2, 0]
    assert cohomology.relabel_matrix(cod, dom, swap) == selection_matrix([1, 2, 0], 3)


def test_theta_rho_check_multiplies_only_adjacent_differentials(monkeypatch):
    # theta and rho are coordinate maps, so the only products left are the
    # d o d checks of the complexes the check builds: both full models
    # (three deltas and the zero map into C^0 each) and the isotropy route.
    # A pair whose product has no rows or no columns (the zero map into C^0
    # is one) is zero by its shape, and only its shape is checked
    G, M = _orbit_instance()
    products, pairs = [], []

    def counting_mul(a, b, _mul=IntMatrix.__mul__):
        products.append((a.shape, b.shape))
        return _mul(a, b)

    def counting_init(self, ds, step, _init=ChainComplex.__init__):
        _init(self, ds, step)
        # the adjacent pairs of its differentials, and those not empty
        pairs.append((self.top + 1, sum(1 for a, b in zip(self._ds, self._ds[1:])
                                        if a.rows and b.cols)))
    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    monkeypatch.setattr(ChainComplex, "__init__", counting_init)
    assert theta_rho_check(G, M, 2).ok
    assert pairs[:2] == [(3, 2), (3, 2)] and len(pairs) == 3
    assert len(products) == sum(n for _, n in pairs)


def test_theta_rho_check_compares_with_the_isotropy_route(monkeypatch):
    G, M = _orbit_instance()
    right = cocycle_cohomology(G, M, 2)
    wrong = right[:1] + [FgAbGroup.free(7)] + right[2:]
    monkeypatch.setattr(cohomology, "cocycle_cohomology", lambda G, M, n_max: wrong)
    rep = theta_rho_check(G, M, 2)
    assert not rep.ok
    assert rep.cocycle_groups == right and rep.hom_groups == wrong
    assert rep.failures == [(1, f"cohomology mismatch {right[1]} vs {wrong[1]}")]


def _negated_delta_0(monkeypatch, model):
    """Negate one entry of delta_0 of the cocycle or the Hom model, so that
    delta_1 o delta_0 != 0 in that full complex."""
    built = _spaces_built_by(monkeypatch, {"cocycle": "cochain_space", "Hom": "hom_space"}[model])

    def flipped(G, M, n, dom, cod, _build=cohomology._coboundary):
        d = _build(G, M, n, dom, cod)
        return _negate_one_entry(d) if n == 0 and id(dom) in built else d
    monkeypatch.setattr(cohomology, "_coboundary", flipped)


@pytest.mark.parametrize("model", ["cocycle", "Hom"])
def test_theta_rho_check_reports_a_broken_differential_at_its_degree(model, monkeypatch):
    # d o d fails as the full complex is built; that is a failed check at
    # degree 1, not an error, and the checks that need the complex are
    # skipped
    G, M = _orbit_instance()
    right = cocycle_cohomology(G, M, 2)
    _negated_delta_0(monkeypatch, model)
    rep = theta_rho_check(G, M, 2)
    assert not rep.ok
    assert rep.failures == [(1, f"d o d != 0 in the {model} complex")]
    assert rep.hom_groups == right
    assert rep.cocycle_groups == ([] if model == "cocycle" else right)


def test_verify_theta_exits_3_on_a_broken_differential(tmp_path, monkeypatch, capsys):
    # the pair groupoid on three points with Z at each: delta_0 sends m to
    # m(s) - m(r), and delta_1 meets its first entry
    from groupoidal import cli
    pair = tmp_path / "pair3.json"
    pair.write_text(json.dumps({"kind": "pair", "fibers": [3]}))
    _negated_delta_0(monkeypatch, "Hom")
    code = cli.main(["verify-theta", str(pair), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == cli.VERIFICATION_FAILED
    assert "Traceback" not in err and "error" not in err
    doc = json.loads(out)
    assert not doc["ok"]
    assert doc["instances"][0]["failures"] == [["1", "d o d != 0 in the Hom complex"]]
