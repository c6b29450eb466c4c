"""Frobenius-twisted conjugacy classes, cocycles, and induced maps."""

import json
from pathlib import Path

import pytest

from twistlab import autmap, gf, twistcoh
from twistlab.curve import WeierstrassCurve, from_short

import oracles

GOLDEN = Path(__file__).parent / "golden"

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F9 = gf.field_create(3, 2)
F11 = gf.field_create(11)
F13 = gf.field_create(13)

E3 = WeierstrassCurve(F3, 0, 0, 0, -1, 0)
E2 = WeierstrassCurve(F2, 0, 0, 1, 0, 0)


@pytest.fixture(scope="module")
def G12():
    return autmap.automorphism_group(E3)


@pytest.fixture(scope="module")
def G24():
    return autmap.automorphism_group(E2)


def _action(G, base):
    return twistcoh.frobenius_action(G, base)


def _key_classes(A):
    """Twisted classes as sorted lists of canonical parameter tuples."""
    out = []
    for cls in twistcoh.frobenius_classes(A):
        out.append(sorted(A.group.elements[i].param_key() for i in cls.indices))
    return sorted(out)


def test_action_orders(G12, G24):
    assert _action(G12, F3).order == 2
    assert _action(G12, F9).order == 1
    assert _action(G24, F2).order == 2
    assert _action(G24, F4).order == 1
    with pytest.raises(ValueError):
        twistcoh.frobenius_action(G12, F4)


def _bases(G, n):
    """Every field between GF(p^n), a curve's field, and G's field."""
    return [gf.field_create(G.field.p, n * d)
            for d in range(1, G.field.n // n + 1) if G.field.n % (n * d) == 0]


def test_action_perm_is_checked_galois_apply():
    # the walk's perm is the per-element checked lookup, and an automorphism
    for p, n, coeffs in oracles.WALK_CURVES:
        G = autmap.automorphism_group(WeierstrassCurve(gf.field_create(p, n), *coeffs))
        for base in _bases(G, n):
            checked = [G.index_of(autmap.galois_apply(f, base)) for f in G.elements]
            perm = _action(G, base).perm
            assert list(perm) == checked
            assert oracles.is_group_automorphism(G.cayley, perm)


@pytest.mark.parametrize("p,n,coeffs", oracles.WALK_CURVES,
                         ids=[f"{p}^{n}-{c}" for p, n, c in oracles.WALK_CURVES])
def test_action_costs_four_frobenius_powers_per_generator(monkeypatch, p, n, coeffs):
    # five for the curve's coefficients, four for each generator's parameters
    G = autmap.automorphism_group(WeierstrassCurve(gf.field_create(p, n), *coeffs))
    calls = []
    frobenius = gf.frobenius
    monkeypatch.setattr(gf, "frobenius", lambda a, k: calls.append(1) or frobenius(a, k))
    for base in _bases(G, n):
        calls.clear()
        _action(G, base)
        assert len(calls) <= 5 + 4 * len(G.generators)


def test_automorphism_oracle_rejects_swapped_permutation(G12):
    ident = list(range(12))
    ident[1], ident[2] = ident[2], ident[1]
    assert not oracles.is_group_automorphism(G12.cayley, ident)


def test_action_rejects_curve_off_base():
    # a4 is the basis generator of GF(9), which GF(3) does not contain
    G = autmap.automorphism_group(WeierstrassCurve(F9, 0, 0, 0, F9.gen(), 0))
    with pytest.raises(ValueError, match="not defined over"):
        twistcoh.frobenius_action(G, F3)
    assert twistcoh.frobenius_action(G, F9).order == 1


def test_automorphism_oracle_rejects_corrupted_table(G12):
    # corrupt one product in the row of an element Frobenius moves; the
    # action's perm is then no automorphism of the broken table
    perm = _action(G12, F3).perm
    moved = next(i for i, k in enumerate(perm) if k != i)
    table = [list(row) for row in G12.cayley]
    table[moved][0] = 0
    assert oracles.is_group_automorphism(G12.cayley, perm)
    assert not oracles.is_group_automorphism(table, perm)


def test_classes_over_f3_exact(G12):
    want = sorted([
        sorted([(1, 0, 0, 0), (2, 0, 0, 0)]),
        sorted([(1, 1, 0, 0), (2, 2, 0, 0)]),
        sorted([(1, 2, 0, 0), (2, 1, 0, 0)]),
        sorted([(3, 0, 0, 0), (3, 1, 0, 0), (3, 2, 0, 0),
                (6, 0, 0, 0), (6, 1, 0, 0), (6, 2, 0, 0)]),
    ])
    assert _key_classes(_action(G12, F3)) == want


def test_classes_over_f9(G12):
    A = _action(G12, F9)
    classes = _key_classes(A)
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 3, 3]
    assert sorted([(1, 1, 0, 0), (1, 2, 0, 0)]) in classes
    # trivial action: twisted classes coincide with ordinary conjugacy
    S = autmap.group_structure(A.group)
    conj = sorted(
        sorted(A.group.elements[i].param_key() for i in cls)
        for cls in S.conjugacy_classes
    )
    assert classes == conj


def test_classes_over_f2_exact(G24):
    A = _action(G24, F2)
    classes = twistcoh.frobenius_classes(A)
    assert sorted(c.size for c in classes) == [6, 6, 12]
    trivial = next(c for c in classes if c.is_trivial())
    assert trivial.size == 12
    keys = sorted(A.group.elements[i].param_key() for i in trivial.indices)
    assert keys == [
        (1, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 2), (1, 1, 1, 3),
        (2, 0, 0, 0), (2, 0, 0, 1), (2, 2, 3, 2), (2, 2, 3, 3),
        (3, 0, 0, 0), (3, 0, 0, 1), (3, 3, 2, 2), (3, 3, 2, 3),
    ]
    # the two 6-element classes are genuinely distinct
    six = [c for c in classes if c.size == 6]
    assert six[0].indices != six[1].indices


def test_classes_over_f4(G24):
    A = _action(G24, F4)
    classes = twistcoh.frobenius_classes(A)
    assert len(classes) == 7
    orders = sorted(
        twistcoh.cocycle_order(twistcoh.Cocycle(A, c.rep_index)) for c in classes
    )
    assert orders == [1, 2, 3, 3, 4, 6, 6]
    S = autmap.group_structure(A.group)
    assert _key_classes(A) == sorted(
        sorted(A.group.elements[i].param_key() for i in cls)
        for cls in S.conjugacy_classes
    )


def test_class_partition_properties(G12, G24):
    for G, base in ((G12, F3), (G12, F9), (G24, F2), (G24, F4)):
        A = _action(G, base)
        classes = twistcoh.frobenius_classes(A)
        all_indices = sorted(i for c in classes for i in c.indices)
        assert all_indices == list(range(G.order))  # disjoint cover
        # closure: one twisted-conjugation step stays inside the class
        for c in classes:
            members = set(c.indices)
            for i in c.indices:
                for s in range(G.order):
                    moved = G.cayley[G.cayley[G.inverses[s]][i]][A.perm[s]]
                    assert moved in members
        assert classes[0].is_trivial() and classes[0].rep_index == 0


def test_cocycle_values_and_orders(G12, G24):
    A3 = _action(G12, F3)
    A9 = _action(G12, F9)
    K3 = {g.param_key(): k for k, g in enumerate(G12.elements)}
    assert twistcoh.cocycle_order(twistcoh.Cocycle(A3, K3[(3, 0, 0, 0)])) == 2
    assert twistcoh.cocycle_order(twistcoh.Cocycle(A3, K3[(1, 1, 0, 0)])) == 3
    assert twistcoh.cocycle_order(twistcoh.Cocycle(A9, K3[(2, 0, 0, 0)])) == 2
    assert twistcoh.cocycle_order(twistcoh.Cocycle(A9, K3[(1, 1, 0, 0)])) == 3
    assert twistcoh.cocycle_order(twistcoh.Cocycle(A9, K3[(3, 0, 0, 0)])) == 4
    A2 = _action(G24, F2)
    K2 = {g.param_key(): k for k, g in enumerate(G24.elements)}
    c8 = twistcoh.Cocycle(A2, K2[(1, 2, 3, 2)])
    for j in range(1, 8):
        assert not oracles.cocycle_value(c8, j).is_identity()
    assert oracles.cocycle_value(c8, 8).is_identity()
    assert twistcoh.cocycle_order(c8) == 8
    assert oracles.cocycle_value(c8, 0).is_identity()
    with pytest.raises(ValueError):
        oracles.cocycle_value(c8, -1)


def test_cocycle_identity_exhaustive(G12, G24):
    # v(j+k) == v(j) * Fr^j(v(k)) for all elements and j, k <= 12
    for G, base in ((G12, F3), (G24, F2)):
        A = _action(G, base)
        for idx in range(G.order):
            c = twistcoh.Cocycle(A, idx)
            values = [oracles.cocycle_value(c, j) for j in range(25)]
            for j in range(13):
                for k in range(13):
                    lhs = values[j + k]
                    rhs = autmap.compose(
                        values[j], autmap.galois_apply(values[k], base, j))
                    assert lhs.param_key() == rhs.param_key()


def test_splitting_degree_is_class_invariant(G12, G24):
    for G, base in ((G12, F3), (G12, F9), (G24, F2), (G24, F4)):
        A = _action(G, base)
        for cls in twistcoh.frobenius_classes(A):
            degrees = {
                twistcoh.splitting_degree(twistcoh.Cocycle(A, i))
                for i in cls.indices
            }
            assert len(degrees) == 1
            rep_order = twistcoh.cocycle_order(
                twistcoh.Cocycle(A, cls.rep_index))
            assert degrees == {rep_order}


def test_splitting_degree_vs_raw_order(G12):
    # the raw telescope order is NOT constant on twisted classes: the
    # minus-one automorphism lies in the trivial class over F_3 (it is
    # sigma^-1 Fr(sigma) for sigma the order-4 scaling) yet its own
    # telescope only closes at j = 2
    A = _action(G12, F3)
    K = {g.param_key(): k for k, g in enumerate(G12.elements)}
    c_minus = twistcoh.Cocycle(A, K[(2, 0, 0, 0)])
    assert twistcoh.cocycle_order(c_minus) == 2
    assert twistcoh.splitting_degree(c_minus) == 1
    trivial = next(c for c in twistcoh.frobenius_classes(A) if c.is_trivial())
    assert K[(2, 0, 0, 0)] in trivial.indices
    # under a trivial action the two notions agree everywhere
    A9 = _action(G12, F9)
    for idx in range(G12.order):
        c = twistcoh.Cocycle(A9, idx)
        assert twistcoh.cocycle_order(c) == twistcoh.splitting_degree(c)


def test_splitting_degree_below_order_on_a_representative():
    # y^2 = x^3 + 2x + 1 over F_3: the class represented by element 2
    # splits over F_9 although that representative's telescope closes at 3
    E = WeierstrassCurve(F3, 0, 0, 0, 2, 1)
    A = _action(autmap.automorphism_group(E), F3)
    cls = next(c for c in twistcoh.frobenius_classes(A) if c.rep_index == 2)
    c = twistcoh.Cocycle(A, cls.rep_index)
    assert twistcoh.splitting_degree(c) == 2
    assert twistcoh.cocycle_order(c) == 3


def test_nontrivial_f2_classes_have_degree_8(G24):
    A = _action(G24, F2)
    for cls in twistcoh.frobenius_classes(A):
        if cls.is_trivial():
            continue
        for i in cls.indices:
            assert twistcoh.splitting_degree(twistcoh.Cocycle(A, i)) == 8


def test_stable_subgroups(G12, G24):
    A2 = _action(G24, F2)
    stable = twistcoh.stable_subgroups(A2)
    orders = sorted(H.order for H in stable)
    assert orders == [1, 2, 3, 3, 4, 6, 6, 8, 24]
    # under a trivial action every subgroup is stable
    A4 = _action(G24, F4)
    assert len(twistcoh.stable_subgroups(A4)) == len(autmap.all_subgroups(G24))
    A3 = _action(G12, F3)
    assert sorted(H.order for H in twistcoh.stable_subgroups(A3)) == \
        [1, 2, 3, 4, 4, 4, 6, 12]


def test_resolve_subgroup(G12, G24):
    A3 = _action(G12, F3)
    H = twistcoh.resolve_subgroup(A3, "minus-one")
    assert H.order == 2
    assert twistcoh.resolve_subgroup(A3, "trivial").order == 1
    assert twistcoh.resolve_subgroup(A3, "full").order == 12
    assert twistcoh.resolve_subgroup(A3, "C3").order == 3
    assert twistcoh.resolve_subgroup(A3, "C6").order == 6
    with pytest.raises(ValueError):
        twistcoh.resolve_subgroup(A3, "C4")  # three stable quartic subgroups
    A2 = _action(G24, F2)
    with pytest.raises(ValueError):
        twistcoh.resolve_subgroup(A2, "C3")  # two stable cubic subgroups
    with pytest.raises(ValueError):
        twistcoh.resolve_subgroup(A2, "C6")
    with pytest.raises(ValueError):
        twistcoh.resolve_subgroup(A2, "C5")
    with pytest.raises(ValueError):
        twistcoh.resolve_subgroup(A2, "nonsense")


def test_cyclic_subgroup(G24):
    A2 = _action(G24, F2)
    K2 = {g.param_key(): k for k, g in enumerate(G24.elements)}
    omega_scaling = G24.elements[K2[(2, 0, 0, 0)]]
    H = twistcoh.cyclic_subgroup(A2, omega_scaling)
    assert H.order == 3 and H.is_cyclic
    other = G24.elements[K2[(2, 2, 3, 2)]]
    H2 = twistcoh.cyclic_subgroup(A2, other)
    assert H2.order == 3 and H2.indices != H.indices


def test_induced_map_quartic_kernels():
    # kernel of <minus-one> -> full classes on y^2 = x^3 - x, by field
    expected = {F5: 1, F7: 2, F11: 2, F13: 1}
    for F, kernel in expected.items():
        E = from_short(F, -1, 0)
        G = autmap.automorphism_group(E)
        A = twistcoh.frobenius_action(G, F)
        H = twistcoh.resolve_subgroup(A, "minus-one")
        report = twistcoh.induced_map(A, H)
        assert len(report.h_classes) == 2
        assert report.kernel_size == kernel
        assert report.collisions == ()
        assert len(report.g_classes) == (2 if F.q % 4 == 3 else 4)
        assert report.is_injective == (kernel == 1)


def test_induced_map_cubic_and_sextic_over_f9(G12):
    A9 = _action(G12, F9)
    rep3 = twistcoh.induced_map(A9, twistcoh.resolve_subgroup(A9, "C3"))
    assert rep3.kernel_size == 1
    assert len(rep3.collisions) == 1
    assert not rep3.is_injective
    assert len(rep3.h_classes) == 3
    rep6 = twistcoh.induced_map(A9, twistcoh.resolve_subgroup(A9, "C6"))
    assert rep6.kernel_size == 1
    assert len(rep6.collisions) == 2
    assert len(rep6.h_classes) == 6


def test_induced_map_f2_cubics_and_sextics(G24):
    A2 = _action(G24, F2)
    cubics = [H for H in twistcoh.stable_subgroups(A2)
              if H.order == 3 and H.is_cyclic]
    assert len(cubics) == 2
    for H in cubics:
        report = twistcoh.induced_map(A2, H)
        assert len(report.h_classes) == 1  # only the trivial class upstairs
        assert report.kernel_size == 1
        assert report.is_injective
    sextics = [H for H in twistcoh.stable_subgroups(A2)
               if H.order == 6 and H.is_cyclic]
    assert len(sextics) == 2
    for H in sextics:
        report = twistcoh.induced_map(A2, H)
        assert len(report.h_classes) == 2
        assert report.kernel_size == 2
        assert report.collisions == ()


def test_induced_map_rejects_unstable_subgroup(G24):
    A2 = _action(G24, F2)
    stable_keys = {H.indices for H in twistcoh.stable_subgroups(A2)}
    unstable = [H for H in autmap.all_subgroups(G24)
                if H.order == 3 and H.indices not in stable_keys]
    assert unstable
    with pytest.raises(ValueError):
        twistcoh.induced_map(A2, unstable[0])


def test_capitulation_reports():
    rep = twistcoh.capitulation_report(from_short(F7, -1, 0), F7, "minus-one")
    assert len(rep.capitulating) == 1
    assert len(rep.surviving) == 0
    rep5 = twistcoh.capitulation_report(from_short(F5, -1, 0), F5, "minus-one")
    assert len(rep5.capitulating) == 0
    assert len(rep5.surviving) == 1
    assert rep5.surviving[0][1] == 2  # the survivor splits at degree 2
    G24 = autmap.automorphism_group(E2)
    A2 = twistcoh.frobenius_action(G24, F2)
    for H in twistcoh.stable_subgroups(A2):
        if H.order != 3:
            continue
        rep2 = twistcoh.capitulation_report(E2, F2, H)
        assert rep2.capitulating == ()
        assert rep2.surviving == ()


def test_single_automorphism_labels(G12, G24):
    # scaling by i is a nontrivial twist label over F_3 and F_9
    K3 = {g.param_key(): k for k, g in enumerate(G12.elements)}
    for base in (F3, F9):
        A = _action(G12, base)
        cls = next(c for c in twistcoh.frobenius_classes(A)
                   if K3[(3, 0, 0, 0)] in c.indices)
        assert not cls.is_trivial()
    # the (omega^2, 0, 0, 1) map labels the trivial class over F_2 but
    # a nontrivial one over F_4
    K2 = {g.param_key(): k for k, g in enumerate(G24.elements)}
    A2 = _action(G24, F2)
    cls2 = next(c for c in twistcoh.frobenius_classes(A2)
                if K2[(3, 0, 0, 1)] in c.indices)
    assert cls2.is_trivial()
    A4 = _action(G24, F4)
    cls4 = next(c for c in twistcoh.frobenius_classes(A4)
                if K2[(3, 0, 0, 1)] in c.indices)
    assert not cls4.is_trivial()


def test_class_report_matches_golden_files(G12, G24):
    cases = [
        ("h1_3_1", G12, F3),
        ("h1_3_2", G12, F9),
        ("h1_2_1", G24, F2),
        ("h1_2_2", G24, F4),
    ]
    for name, G, base in cases:
        got = twistcoh.class_report(_action(G, base))
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        assert got == want, name


def test_report_json_shapes(G12):
    A = _action(G12, F9)
    doc = twistcoh.class_report(A)
    assert list(doc) == ["base", "group_order", "action_order", "classes"]
    assert doc["base"] == "3^2" and doc["group_order"] == 12
    assert all(list(c) == ["rep", "size", "cocycle_order"] for c in doc["classes"])
    json.dumps(doc)
    rep = twistcoh.induced_map(A, twistcoh.resolve_subgroup(A, "C3"))
    idoc = twistcoh.induced_map_report_json(rep)
    assert list(idoc) == ["base", "subgroup_order", "h_classes", "kernel_size",
                          "image_size", "collisions", "injective"]
    assert idoc["kernel_size"] == 1 and len(idoc["collisions"]) == 1
    json.dumps(idoc)


def test_cocycle_construction_errors(G12):
    A = _action(G12, F3)
    with pytest.raises(ValueError):
        twistcoh.Cocycle(A, 12)
    with pytest.raises(ValueError):
        twistcoh.Cocycle(A, autmap.minus_one_map(E2, gf.field_create(2, 2)))
    c = twistcoh.Cocycle(A, G12.elements[3])
    assert c.index == 3


@pytest.mark.parametrize("p,n,coeffs", oracles.WALK_CURVES,
                         ids=[f"{p}^{n}-{c}" for p, n, c in oracles.WALK_CURVES])
def test_twisted_walks_match_direct_walks(p, n, coeffs):
    # every base between the curve's field and the group's field
    E = WeierstrassCurve(gf.field_create(p, n), *coeffs)
    G = autmap.automorphism_group(E)
    for base in _bases(G, n):
        A = twistcoh.frobenius_action(G, base)
        classes = twistcoh.frobenius_classes(A)
        assert [c.indices for c in classes] == oracles.twisted_partition(A, range(G.order))
        assert len(classes) == len(oracles.frobenius_fixed_classes(A))
        for H in twistcoh.stable_subgroups(A):
            assert ([c.indices for c in twistcoh._twisted_partition(A, H.indices)]
                    == oracles.twisted_partition(A, H.indices))
        assert twistcoh._coboundary_sets(A) == oracles.coboundary_sets(A)
        for i in range(G.order):
            c = twistcoh.Cocycle(A, i)
            assert ((twistcoh.cocycle_order(c), twistcoh.splitting_degree(c))
                    == oracles.cocycle_walk(A, i))


@pytest.mark.parametrize("base", [F2, F4], ids=["2^1", "2^2"])
def test_action_partitions_and_cobounds_once(monkeypatch, G24, base):
    # the whole group's twisted classes and the coboundary sets are built
    # on first use; every caller gets its own list
    A = twistcoh.frobenius_action(G24, base)
    stable = twistcoh.stable_subgroups(A)
    partitions, classes = [], autmap._twisted_classes
    classes_of, twisted_class = [], autmap._twisted_class
    monkeypatch.setattr(autmap, "_twisted_classes",
                        lambda G, members, perm: partitions.append(len(members))
                        or classes(G, members, perm))
    monkeypatch.setattr(autmap, "_twisted_class",
                        lambda G, t, members, perm: classes_of.append(t)
                        or twisted_class(G, t, members, perm))
    full = twistcoh.frobenius_classes(A)
    for H in stable:
        twistcoh.induced_map(A, H)
    classes_of.clear()
    degrees = [twistcoh.splitting_degree(twistcoh.Cocycle(A, c.rep_index)) for c in full]
    # one class per coboundary set, once, then none for the other cocycles
    assert classes_of == [0] * A.order
    assert partitions == [24] + [H.order for H in stable]
    full.clear()
    assert [c.indices for c in twistcoh.frobenius_classes(A)] == \
        oracles.twisted_partition(A, range(24))
    sets = twistcoh._coboundary_sets(A)
    sets.clear()
    assert twistcoh._coboundary_sets(A) == oracles.coboundary_sets(A)
    assert degrees == [twistcoh.splitting_degree(twistcoh.Cocycle(A, c.rep_index))
                       for c in twistcoh.frobenius_classes(A)]
