import pytest

from groupoidal import cohomology, skew
from groupoidal.groupoids import (DegreeTooLarge, nerve, require_nerve_work,
                                  validate_functor, validate_groupoid)
from groupoidal.homology import z_action_homology
from groupoidal.models import (action_groupoid, cyclic_table, full_pair_groupoid,
                               group_groupoid)
from groupoidal.skew import (GuardTooSmall, ZCocycle,
                             cocycle_potential, les_verify, skew_window,
                             validate_cocycle)
from groupoidal.zlinalg import FgAbGroup

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def potential_cocycle(G, values):
    return ZCocycle.from_potential(G, dict(zip(G.units, values)))


def test_zero_cocycle_valid():
    z2 = group_groupoid(cyclic_table(2))
    assert validate_cocycle(z2, ZCocycle.zero(z2)).ok


def test_zero_cocycle_is_the_coboundary_of_the_zero_potential():
    z2 = group_groupoid(cyclic_table(2))
    rep = les_verify(z2, ZCocycle.zero(z2), 4, 1, 1)
    assert rep.cocycle_is_coboundary
    assert cocycle_potential(z2, ZCocycle.zero(z2)) == {u: 0 for u in z2.units}


def test_potential_cocycle_valid():
    p3 = full_pair_groupoid(3)
    c = potential_cocycle(p3, (0, 1, 2))
    assert validate_cocycle(p3, c).ok
    # telescoping: recovering a potential reproduces the cocycle
    f = cocycle_potential(p3, c)
    for g in range(p3.n_arrows):
        assert c(g) == f[p3.rng[g]] - f[p3.src[g]]


def test_unit_value_violation():
    z2 = group_groupoid(cyclic_table(2))
    c = ZCocycle.from_values([1, 0])
    rep = validate_cocycle(z2, c)
    assert not rep.ok and rep.axiom == "cocycle-unit"


def test_finite_group_admits_only_zero():
    z2 = group_groupoid(cyclic_table(2))
    c = ZCocycle.from_values([0, 1])
    assert not validate_cocycle(z2, c).ok


def test_window_zero_cocycle_is_level_copies():
    z2 = group_groupoid(cyclic_table(2))
    for K in (0, 2):
        w = skew_window(z2, ZCocycle.zero(z2), K)
        assert w.groupoid.n_arrows == (2 * K + 1) * 2
        assert validate_groupoid(w.groupoid).ok
        assert len(w.groupoid.orbits()) == 2 * K + 1


def test_window_pair2_potential_components():
    p2 = full_pair_groupoid(2)
    w = skew_window(p2, potential_cocycle(p2, (0, 1)), 2)
    assert validate_groupoid(w.groupoid).ok
    sizes = sorted(len(o) for o in w.groupoid.orbits())
    # interior components are two-point pair groupoids spanning adjacent
    # levels; the two boundary components are truncated to single points
    assert sizes == [1, 1, 2, 2, 2, 2]
    for orbit in w.groupoid.orbits():
        if len(orbit) == 2:
            levels = sorted(w.labels[u][1] for u in orbit)
            assert levels[1] - levels[0] == 1


def test_window_endpoint_formulas():
    p3 = full_pair_groupoid(3)
    c = potential_cocycle(p3, (0, 1, 2))
    w = skew_window(p3, c, 3)
    G = w.groupoid
    for i, (g, k) in enumerate(w.labels):
        assert w.labels[G.rng[i]] == (p3.rng[g], k)
        assert w.labels[G.src[i]] == (p3.src[g], k + c(g))


def test_shift_injective_and_functorial():
    # the shift functor les_verify builds, from the inner window of radius 3
    # into the outer one with one more level on top
    p3 = full_pair_groupoid(3)
    swap = action_groupoid(cyclic_table(2), [[0, 1], [1, 0]])
    for G, values in ((p3, (0, 1, 2)), (swap, (0, 3))):
        c = potential_cocycle(G, values)
        assert any(c.values)
        inner, outer = skew._window(G, c, -3, 3), skew._window(G, c, -3, 4)
        shift = inner.shift_into(outer)
        assert validate_functor(shift).ok
        assert len(set(shift.arrow_map)) == len(shift.arrow_map)


@pytest.mark.parametrize("values", [(0, 0, 0), (0, 1, 2), (2, 0, 1), (0, 3, 1)])
def test_window_work_estimate_is_an_upper_bound(values, monkeypatch):
    # the check made before a window is built counts each string of the base
    # once per level; that is never below the exact count of the window's
    # strings, and equals it for the zero cocycle
    p3 = full_pair_groupoid(3)
    K, top = 3, 2
    W = skew_window(p3, potential_cocycle(p3, values), K).groupoid
    total = sum(len(nerve(W, n)) * (n + 1) ** 2 for n in range(top + 1))
    monkeypatch.setenv("GROUPOIDAL_CAP", str(total - 1))
    with pytest.raises(DegreeTooLarge):
        require_nerve_work(p3, top, copies=2 * K + 1)
    if not any(values):
        monkeypatch.setenv("GROUPOIDAL_CAP", str(total))
        require_nerve_work(p3, top, copies=2 * K + 1)


def test_cohomology_les_builds_each_hom_space_once(monkeypatch):
    # the base and both windows need the spaces of degrees 0..3: twelve
    calls = []

    def counted(*args, _build=cohomology.hom_space):
        calls.append(args)
        return _build(*args)
    monkeypatch.setattr(cohomology, "hom_space", counted)
    monkeypatch.setattr(skew, "hom_space", counted)
    p2 = full_pair_groupoid(2)
    assert les_verify(p2, ZCocycle.zero(p2), 4, 1, 2, mode="cohomology").ok
    assert len(calls) == 12


def test_window_charges_its_levels_times_the_arrows(monkeypatch):
    # radius 2: five levels of the 9 arrows of the pair groupoid on 3 points
    p3 = full_pair_groupoid(3)
    monkeypatch.setenv("GROUPOIDAL_CAP", str(5 * 9))
    assert skew_window(p3, ZCocycle.zero(p3), 2).groupoid.n_arrows == 5 * 9
    monkeypatch.setenv("GROUPOIDAL_CAP", str(5 * 9 - 1))
    with pytest.raises(DegreeTooLarge):
        skew_window(p3, ZCocycle.zero(p3), 2)


def test_window_cap(monkeypatch):
    p3 = full_pair_groupoid(3)
    monkeypatch.setenv("GROUPOIDAL_CAP", "100")
    with pytest.raises(DegreeTooLarge):
        skew_window(p3, ZCocycle.zero(p3), 50)


def test_guard_too_small():
    p3 = full_pair_groupoid(3)
    c = potential_cocycle(p3, (0, 1, 2))
    with pytest.raises(GuardTooSmall):
        les_verify(p3, c, K=8, guard=8, n_max=2)
    with pytest.raises(GuardTooSmall):
        les_verify(p3, c, K=4, guard=3, n_max=2)
    with pytest.raises(GuardTooSmall):
        les_verify(p3, c, K=8, guard=0, n_max=2)


def test_les_homology_pair3():
    p3 = full_pair_groupoid(3)
    c = potential_cocycle(p3, (0, 1, 2))
    rep = les_verify(p3, c, K=8, guard=3, n_max=2, mode="homology")
    assert rep.ok
    assert rep.base_groups == [Z, ZERO, ZERO]
    # stable window degree 0 is free on the interior components
    assert rep.inner_groups[0].torsion == ()
    assert rep.inner_groups[0].free_rank == 13
    for ch in rep.checks:
        assert ch.composite_zero and ch.exact_at_sub
        assert ch.exact_at_mid and ch.exact_at_quot and ch.commutes
    assert rep.degree0_group == Z
    assert rep.degree0_matches_base
    assert rep.connecting_ok
    # degree-1 connecting contribution vanishes: H_1 of the base is 0
    assert rep.connecting[0].cols == 0
    assert rep.cocycle_is_coboundary
    assert ZCocycle.from_potential(p3, cocycle_potential(p3, c)) == c


def test_les_cohomology_pair3():
    p3 = full_pair_groupoid(3)
    c = potential_cocycle(p3, (0, 1, 2))
    rep = les_verify(p3, c, K=8, guard=3, n_max=2, mode="cohomology")
    assert rep.ok
    assert rep.base_groups == [Z, ZERO, ZERO]
    assert rep.degree0_group == Z and rep.degree0_matches_base


def test_les_cohomology_zero_cocycle_degenerates():
    z2 = group_groupoid(cyclic_table(2))
    rep = les_verify(z2, ZCocycle.zero(z2), K=8, guard=3, n_max=2,
                     mode="cohomology")
    assert rep.ok
    assert rep.base_groups == [Z, ZERO, FgAbGroup.cyclic(2)]
    # the window splits into level copies: every inner group is the
    # corresponding number of copies of the base group
    n_levels = 2 * rep.interior + 1
    assert rep.inner_groups[0] == FgAbGroup.free(n_levels)
    assert rep.inner_groups[1] == ZERO
    assert rep.inner_groups[2] == FgAbGroup.from_orders([2] * n_levels)
    # kernel of id - shift on the guarded range recovers the base
    # cohomology degreewise, torsion included
    assert rep.degreewise_groups == rep.base_groups
    assert rep.degree0_group == Z
    assert "zero cocycle" in rep.note


def test_les_homology_zero_cocycle():
    z2 = group_groupoid(cyclic_table(2))
    rep = les_verify(z2, ZCocycle.zero(z2), K=6, guard=2, n_max=1,
                     mode="homology")
    assert rep.ok
    assert rep.base_groups == [Z, FgAbGroup.cyclic(2)]
    # with c = 0 the sequence splits and the cokernel of id - shift is
    # exactly the base homology in every verified degree
    assert rep.degreewise_groups == rep.base_groups
    assert rep.degree0_group == Z


def test_les_five_cycle_cross_check():
    # the two-term model of the 5-cycle matches the degree-0 bookkeeping
    # of the windowed sequence over the pair groupoid with its potential
    za = z_action_homology([1, 2, 3, 4, 0])
    p5 = full_pair_groupoid(5)
    c = potential_cocycle(p5, (0, 1, 2, 3, 4))
    rep = les_verify(p5, c, K=8, guard=2, n_max=1, mode="cohomology")
    assert rep.ok
    assert rep.degree0_group == za.h0_dual == Z
    assert za.h1_dual == Z


def test_les_report_booleans_are_exact():
    # no tolerances anywhere: the checks are plain matrix statements
    p3 = full_pair_groupoid(3)
    c = potential_cocycle(p3, (0, 1, 2))
    rep = les_verify(p3, c, K=6, guard=2, n_max=1, mode="homology")
    for ch in rep.checks:
        for flag in (ch.composite_zero, ch.exact_at_sub, ch.exact_at_mid,
                     ch.exact_at_quot, ch.commutes):
            assert isinstance(flag, bool)
    assert rep.ok


def test_les_cohomology_with_module_coefficients():
    z2 = group_groupoid(cyclic_table(2))
    from groupoidal.models import sign_module
    rep = les_verify(z2, ZCocycle.zero(z2), K=6, guard=2, n_max=2,
                     mode="cohomology", M=sign_module(z2))
    assert rep.ok
    # sign coefficients: invariants vanish, odd degrees carry the torsion
    assert rep.base_groups == [ZERO, FgAbGroup.cyclic(2), ZERO]
    assert rep.degreewise_groups == rep.base_groups
