"""Isomorphisms and automorphism groups across characteristics."""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from twistlab import autmap, gf, twists
from twistlab.curve import WeierstrassCurve, from_short

import oracles
from oracles import assert_transforms, exhaustive_isomorphisms

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F16 = gf.field_create(2, 4)
F27 = gf.field_create(3, 3)

GOLDEN = Path(__file__).parent / "golden"

E3 = WeierstrassCurve(F3, 0, 0, 0, -1, 0)   # y^2 = x^3 - x
E2 = WeierstrassCurve(F2, 0, 0, 1, 0, 0)    # y^2 + y = x^3


# every prime power q <= 81, as (p, n)
FIELDS_TO_81 = [
    (p, n)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79)
    for n in range(1, 7)
    if p ** n <= 81
]


def _assert_maps_points(iso):
    """iso carries the source points bijectively onto the target points."""
    source = iso.source.enumerate_points()
    target = iso.target.enumerate_points()
    images = {iso.apply(pt) for pt in source}
    assert len(source) == len(target) == len(images)
    assert images == set(target)


@pytest.fixture(scope="module")
def G12():
    return autmap.automorphism_group(E3)


@pytest.fixture(scope="module")
def G24():
    return autmap.automorphism_group(E2)


def test_transform_coefficients_round_trip():
    # applying (u,r,s,t) then its inverse parameters recovers the curve
    E = WeierstrassCurve(F7, 1, 2, 3, 4, 5)
    u, r, s, t = F7.scalar(3), F7.scalar(2), F7.scalar(5), F7.scalar(1)
    moved = autmap.transform_coefficients(E.coefficients, u, r, s, t)
    ui = u.inv()
    back = autmap.transform_coefficients(
        moved, ui, -r * ui * ui, -s * ui, (s * r - t) * ui ** 3)
    assert tuple(back) == E.coefficients


def test_isomorphism_maps_points_bijectively():
    iso = autmap.find_isomorphisms(
        E3, WeierstrassCurve(F3, 0, 0, 0, 1, 0), F9)[0]
    _assert_maps_points(iso)
    assert all(iso.target.contains(iso.apply(pt))
               for pt in iso.source.enumerate_points())
    assert iso.apply(None) is None


def test_isomorphism_rejects_invalid():
    with pytest.raises(ValueError):
        autmap.CurveIsomorphism(F9, E3, E3, u=F9.zero, r=F9.zero, s=F9.zero, t=F9.zero)
    with pytest.raises(ValueError):
        autmap.CurveIsomorphism(
            F9, E3, WeierstrassCurve(F3, 0, 0, 0, 1, 0),
            u=F9.one, r=F9.zero, s=F9.zero, t=F9.zero)


def test_group_orders_and_fields(G12, G24):
    assert G12.order == 12
    assert (G12.field.p, G12.field.n) == (3, 2)
    assert all(g.param_key()[0] in {e.canon for e in gf.enumerate_field(F9)
                                    if e ** 4 == F9.one} for g in G12.elements)
    assert all(g.param_key()[2] == 0 and g.param_key()[3] == 0 for g in G12.elements)
    assert G24.order == 24
    assert (G24.field.p, G24.field.n) == (2, 2)
    assert autmap.automorphism_group(from_short(F5, 1, 1)).order == 2
    assert autmap.automorphism_group(from_short(F5, 1, 0)).order == 4
    G6 = autmap.automorphism_group(from_short(F7, 0, 1))
    assert G6.order == 6 and (G6.field.p, G6.field.n) == (7, 1)


def test_base_rational_counts(G12, G24):
    # automorphisms with all parameters in the prime field
    def rational(G, base):
        count = 0
        for g in G.elements:
            params = g.params
            if all(gf.frobenius(x, base.n) == x for x in params):
                count += 1
        return count
    assert rational(G12, F3) == 6
    assert rational(G24, F2) == 2
    G24e = autmap.automorphism_group(E2.base_change(F4))
    assert G24e.order == 24 and rational(G24e, F4) == 24


def test_dic3_structure(G12):
    S = autmap.group_structure(G12)
    assert not S.is_abelian
    assert S.order == 12
    hist = {}
    for o in S.element_orders:
        hist[o] = hist.get(o, 0) + 1
    assert hist == {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}
    assert S.subgroup_counts == {1: 1, 2: 1, 3: 1, 4: 3, 6: 1, 12: 1}
    assert len(S.center) == 2
    assert G12.elements[S.minus_one_index].param_key() == (2, 0, 0, 0)
    assert sorted(len(c) for c in S.conjugacy_classes) == [1, 1, 2, 2, 3, 3]


def test_sl23_structure(G24):
    S = autmap.group_structure(G24)
    assert not S.is_abelian
    hist = {}
    for o in S.element_orders:
        hist[o] = hist.get(o, 0) + 1
    assert hist == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    assert S.subgroup_counts == {1: 1, 2: 1, 3: 4, 4: 3, 6: 4, 8: 1, 24: 1}
    assert 12 not in S.subgroup_counts
    assert len(S.center) == 2
    assert G24.elements[S.minus_one_index].param_key() == (1, 0, 0, 1)
    # the order-8 subgroup is unique, normal, and not cyclic
    eights = [H for H in S.subgroups if H.order == 8]
    assert len(eights) == 1 and eights[0].is_normal and not eights[0].is_cyclic


def test_abelian_structures():
    G6 = autmap.automorphism_group(from_short(F7, 0, 1))
    S = autmap.group_structure(G6)
    assert S.is_abelian
    hist = {}
    for o in S.element_orders:
        hist[o] = hist.get(o, 0) + 1
    assert hist == {1: 1, 2: 1, 3: 2, 6: 2}


def test_galois_apply_rejects_curves_not_over_base():
    # y^2 = x^3 + g*x over GF(9) is not defined over GF(3), so the conjugate
    # of the shift x -> x + g does not carry it onto its image
    g = F9.gen()
    E = WeierstrassCurve(F9, 0, 0, 0, g, 0)
    params = (F9.one, g, F9.zero, F9.zero)
    L = WeierstrassCurve(F9, *autmap.transform_coefficients(E.coefficients, *params))
    f = autmap.CurveIsomorphism(F9, E, L, *params)
    with pytest.raises(ValueError):
        autmap.galois_apply(f, F3)


def test_compose_matches_cayley_table(G12, G24):
    for G in (G12, G24):
        for i, f in enumerate(G.elements):
            for j, g in enumerate(G.elements):
                prod = autmap.compose(f, g)
                assert prod.param_key() == G.elements[G.cayley[i][j]].param_key()


def test_invert_and_identity(G12):
    ident = autmap.identity_map(E3, G12.field)
    assert ident.is_identity()
    for g in G12.elements:
        gi = autmap.invert(g)
        assert autmap.compose(g, gi).param_key() == ident.param_key()
        assert autmap.compose(gi, g).param_key() == ident.param_key()


def test_minus_one_map():
    m = autmap.minus_one_map(E3)
    assert m.param_key() == (2, 0, 0, 0)
    sq = autmap.compose(m, m)
    assert sq.is_identity()
    m2 = autmap.minus_one_map(WeierstrassCurve(F2, 1, 0, 0, 0, 1))
    assert m2.param_key() == (1, 0, 1, 0)


def test_galois_apply_properties(G12):
    for g in G12.elements:
        fr = autmap.galois_apply(g, F3)
        assert autmap.galois_apply(fr, F3).param_key() == g.param_key()
    # semilinearity: Fr(f o g) == Fr(f) o Fr(g)
    for f in G12.elements[:4]:
        for g in G12.elements[:4]:
            lhs = autmap.galois_apply(autmap.compose(f, g), F3)
            rhs = autmap.compose(autmap.galois_apply(f, F3),
                                 autmap.galois_apply(g, F3))
            assert lhs.param_key() == rhs.param_key()
    phi_i = next(g for g in G12.elements if g.param_key() == (3, 0, 0, 0))
    assert autmap.galois_apply(phi_i, F3).param_key() == (6, 0, 0, 0)
    with pytest.raises(ValueError):
        autmap.galois_apply(phi_i, F3, k=-1)
    with pytest.raises(ValueError):
        autmap.galois_apply(phi_i, F4)


def test_find_isomorphisms_quartic_pair():
    E3p = WeierstrassCurve(F3, 0, 0, 0, 1, 0)
    assert autmap.find_isomorphisms(E3, E3p, F3) == []
    isos = autmap.find_isomorphisms(E3, E3p, F9)
    assert len(isos) == 12
    minus = F9.scalar(-1)
    assert all(f.u ** 4 == minus for f in isos)
    keys = [f.param_key() for f in isos]
    assert keys == sorted(keys)


def test_find_isomorphisms_j_mismatch_and_cubics():
    E3a = WeierstrassCurve(F3, 0, 0, 0, -1, 1)
    E3b = WeierstrassCurve(F3, 0, 0, 0, -1, -1)
    assert autmap.find_isomorphisms(E3, WeierstrassCurve(F3, 0, 1, 0, 0, -1), F9) == []
    assert autmap.minimal_isomorphism_degree(E3, E3a, 12) == 3
    assert autmap.minimal_isomorphism_degree(E3, E3b, 12) == 3
    assert autmap.minimal_isomorphism_degree(E3a, E3b, 12) == 2
    assert autmap.minimal_isomorphism_degree(E3, WeierstrassCurve(F3, 0, 0, 0, 1, 0), 12) == 2
    assert autmap.minimal_isomorphism_degree(
        E3, WeierstrassCurve(F3, 0, 1, 0, 0, -1), 12) is None


def test_char2_ordinary_isomorphisms():
    Ea = WeierstrassCurve(F4, 1, 0, 0, 0, 1)
    Eb = WeierstrassCurve(F4, 1, F4.gen(), 0, 0, 1)
    assert autmap.find_isomorphisms(Ea, Eb, F4) == []
    assert autmap.minimal_isomorphism_degree(Ea, Eb, 8) == 2
    isos = autmap.find_isomorphisms(Ea, Eb, F16)
    assert isos and all(f.u == F16.one for f in isos)


def test_exhaustive_agrees_with_triangular():
    pairs = [
        (E3, WeierstrassCurve(F3, 0, 0, 0, -1, 1), F9),
        (E3, WeierstrassCurve(F3, 0, 0, 0, 1, 0), F9),
        (E2, WeierstrassCurve(F2, 0, 0, 1, 1, 0), F8),
        (E2, E2, F4),
        (WeierstrassCurve(F2, 1, 0, 0, 0, 1), WeierstrassCurve(F2, 1, 1, 0, 0, 1), F4),
        (from_short(F5, 1, 1), from_short(F5, 4, 3), F5),
        (from_short(F5, 1, 0), from_short(F5, 4, 0), F5),
        (WeierstrassCurve(F3, 0, 1, 0, 0, -1), WeierstrassCurve(F3, 0, 1, 0, 1, 1), F9),
    ]
    # on every field with q <= 16, and on its square when that is too: the
    # least model of j = 0, of j = 1728 when p >= 5 and of one generic j,
    # against a random model of each of its base classes
    rng = random.Random(0)
    for p, n in FIELDS_TO_81:
        K = gf.field_create(p, n)
        if K.q > 16:
            continue
        fields = [K] + ([gf.field_create(p, 2 * n)] if K.q ** 2 <= 16 else [])
        for j in _j_values(K):
            classes = twists._short_classes(K, j)
            for C in classes:
                model = _random_model(C, rng)
                pairs += [(classes[0], model, field) for field in fields]
    for E1, E2_, field in pairs:
        tri = [f.param_key() for f in autmap.find_isomorphisms(E1, E2_, field)]
        exh = [f.param_key() for f in exhaustive_isomorphisms(E1, E2_, field)]
        assert tri == exh, (E1, E2_, field)


def _j_values(K):
    """j = 0, j = 1728 when p >= 5, and the least other j of K."""
    special = [K.zero] + ([K.scalar(1728)] if K.p >= 5 else [])
    return special + [next(j for j in gf.enumerate_field(K) if j not in special)]


def _random_model(C, rng):
    """C moved by a random (u, r, s, t) over its own field."""
    K = C.ctx
    u = K.from_canon(rng.randrange(1, K.q))
    r, s, t = (K.from_canon(rng.randrange(K.q)) for _ in range(3))
    return WeierstrassCurve(K, *autmap.transform_coefficients(C.coefficients, u, r, s, t))


def test_find_isomorphisms_solves_without_rechecking(monkeypatch):
    # one pair per branch of the solve: each j-class of _model_and_twists in
    # characteristics 2, 3 and 7, against a model of itself.  The cores are
    # solved, so only the two reduction targets are transformed and no map
    # goes through the checked constructor.
    rng = random.Random(1)
    pairs = [(E, _random_model(E, rng))
             for k in (F4, F9, F7) for E, _ in _model_and_twists(k)]
    assert len(pairs) == 7
    calls = {"transform": 0, "checked": 0}
    transform, init = autmap.transform_coefficients, autmap.CurveIsomorphism.__init__

    def counted_transform(*args):
        calls["transform"] += 1
        return transform(*args)

    def counted_init(self, *args):
        calls["checked"] += 1
        init(self, *args)

    monkeypatch.setattr(autmap, "transform_coefficients", counted_transform)
    monkeypatch.setattr(autmap.CurveIsomorphism, "__init__", counted_init)
    for E, L in pairs:
        calls.update(transform=0, checked=0)
        assert autmap.find_isomorphisms(E, L, E.ctx), (E, L)
        assert calls == {"transform": 2, "checked": 0}, (E, L)


@pytest.mark.parametrize("p,n,coeffs,echelons", [
    (2, 4, (0, 0, 1, 0, 0), 2),
    (2, 10, (0, 0, 1, 1, 1), 2),
    (3, 6, (0, 0, 0, 2, 0), 1),
    (3, 10, (0, 0, 0, 2, 1), 1),
])
def test_find_isomorphisms_builds_each_echelon_once(monkeypatch, p, n, coeffs, echelons):
    # j = 0 in characteristics 2 and 3: one echelon per linearized equation,
    # however many roots u (and, at p = 2, s) the search walks
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *coeffs)
    calls, build = [0], gf.linearized_echelon

    def counted(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(gf, "linearized_echelon", counted)
    assert autmap.find_isomorphisms(E, E, K)
    assert calls[0] == echelons


@pytest.mark.parametrize("p,n,coeffs,searched,field_n", [
    (1019, 1, (0, 0, 0, 0, 1), [2], 2),
    (3, 5, (0, 0, 0, 2, 1), [10, 20, 30], 30),
    (2, 7, (0, 0, 1, 1, 1), [14, 28], 28),
])
def test_degree_search_skips_fields_without_the_units(monkeypatch, p, n, coeffs,
                                                      searched, field_n):
    # Aut's u-values are the m-th roots of unity (m = 6, 4 and 3 here), so
    # only degrees whose field has them are searched, one core solve each
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *coeffs)
    degrees, solve = [], autmap._reduced_isomorphisms

    def recorded(R1, R2):
        degrees.append(R1.ctx.n)
        return solve(R1, R2)

    monkeypatch.setattr(autmap, "_reduced_isomorphisms", recorded)
    G = autmap.automorphism_group(E)
    assert degrees == searched
    assert (G.field.p, G.field.n) == (p, field_n)


@pytest.mark.parametrize("p,n,coeffs,searched", [
    (1019, 1, (0, 0, 0, 0, 1), 1),
    (3, 5, (0, 0, 0, 2, 1), 3),
    (2, 7, (0, 0, 1, 1, 1), 2),
    (2, 1, (0, 0, 1, 0, 0), 1),
])
def test_automorphism_search_reduces_the_curve_once_per_degree(monkeypatch, p, n,
                                                                coeffs, searched):
    # find_isomorphisms(E, E, K) base-changes and reduces E once, not once
    # per side
    E = WeierstrassCurve(gf.field_create(p, n), *coeffs)
    calls, reduce = [0], autmap.reduction_isomorphism

    def counted(C):
        calls[0] += 1
        return reduce(C)

    monkeypatch.setattr(autmap, "reduction_isomorphism", counted)
    autmap.automorphism_group(E)
    assert calls[0] == searched


def test_reduction_shapes():
    # odd characteristic >= 5: full short form
    R = autmap.reduction_isomorphism(WeierstrassCurve(F7, 1, 2, 3, 4, 5)).target
    assert R.a1.is_zero() and R.a2.is_zero() and R.a3.is_zero()
    # char 3: a1 = a3 = 0, a2 kept
    R = autmap.reduction_isomorphism(WeierstrassCurve(F9, 1, 2, 1, 0, 1)).target
    assert R.a1.is_zero() and R.a3.is_zero()
    # char 2, j = 0: a1 = a2 = 0
    R = autmap.reduction_isomorphism(WeierstrassCurve(F4, 0, 1, 1, 1, 1)).target
    assert R.a1.is_zero() and R.a2.is_zero() and not R.a3.is_zero()
    # char 2, j != 0: a1 = 1, a3 = a4 = 0
    R = autmap.reduction_isomorphism(WeierstrassCurve(F4, 1, 1, 1, 1, 1)).target
    assert R.a1 == F4.one and R.a3.is_zero() and R.a4.is_zero()


def test_embed_isomorphism(G12):
    F81 = gf.field_create(3, 4)
    for g in G12.elements:
        big = autmap.embed_isomorphism(g, F81)
        assert big.field == F81
        small_u = gf.subfield_embed(g.u, F81)
        assert big.u == small_u


def test_isomorphism_to_str(G12):
    phi_i = next(g for g in G12.elements if g.param_key() == (3, 0, 0, 0))
    assert autmap.isomorphism_to_str(phi_i) == \
        "(3^2:0,1,3^2:0,0,3^2:0,0,3^2:0,0)@3^2"


def test_automorphism_group_errors():
    with pytest.raises(ValueError):
        autmap.automorphism_group(WeierstrassCurve(F3, 0, 0, 0, 0, 0))


def test_aut_group_lookup(G24):
    assert G24.elements[0].is_identity()
    for i, g in enumerate(G24.elements):
        assert G24.index_of(g) == i
        j = G24.inverses[i]
        assert G24.cayley[i][j] == 0
    assert G24.element_order(0) == 1


# every shape of Aut(E), as (p, n, coefficients, order, degree of the
# group's field over GF(p^n)): C2; C4 and C6 over the base and over GF(121);
# the order-12 group; SL(2,3)
GROUP_SHAPES = [
    (5, 1, (0, 0, 0, 1, 1), 2, 1),
    (13, 1, (0, 0, 0, 1, 0), 4, 1),
    (11, 1, (0, 0, 0, 1, 0), 4, 2),
    (7, 1, (0, 0, 0, 0, 1), 6, 1),
    (11, 1, (0, 0, 0, 0, 1), 6, 2),
    (3, 1, (0, 0, 0, 2, 0), 12, 2),
    (3, 5, (0, 0, 0, 2, 0), 12, 2),
    (2, 1, (0, 0, 1, 0, 0), 24, 2),
    (2, 4, (0, 0, 1, 0, 0), 24, 1),
    (2, 5, (0, 0, 1, 0, 0), 24, 2),
]
SHAPE_IDS = [f"{p}^{n}-{c}" for p, n, c, _, _ in GROUP_SHAPES]


@pytest.mark.parametrize("p,n,coeffs,order,degree", GROUP_SHAPES, ids=SHAPE_IDS)
def test_cayley_table_matches_brute_force(p, n, coeffs, order, degree):
    G = autmap.automorphism_group(WeierstrassCurve(gf.field_create(p, n), *coeffs))
    assert (G.order, G.field.n) == (order, n * degree)
    table = oracles.brute_force_cayley(G.elements)
    assert G.cayley == table
    assert G.inverses == tuple(row.index(0) for row in table)


@pytest.mark.parametrize("p,n,coeffs,order,degree", GROUP_SHAPES, ids=SHAPE_IDS)
def test_cayley_table_costs_log_n_compositions_per_element(
        monkeypatch, p, n, coeffs, order, degree):
    E = WeierstrassCurve(gf.field_create(p, n), *coeffs)
    G = autmap.automorphism_group(E)
    red = autmap.reduction_isomorphism(E.base_change(G.field)).params
    # a core is conjugated as red^-1 o (core o red), the only composition
    # whose right factor is red: no generator of Aut(E) is a reduction map
    calls = []
    compose_params = autmap._compose_params
    monkeypatch.setattr(autmap, "_compose_params",
                        lambda f, g: calls.append(g == red) or compose_params(f, g))
    H = autmap.automorphism_group(E)
    assert H.cayley == G.cayley
    conjugated = sum(calls)
    # two compositions per core conjugated, fewer than the n - 1 cores that
    # are not the identity; each generator at least doubles the closure, so
    # k <= floor(log2 n), and each costs n compositions, against n^2
    assert 1 <= conjugated < order
    assert len(H.generators) <= order.bit_length() - 1
    assert len(calls) == 2 * conjugated + len(H.generators) * order
    if p >= 5:  # the first core generates the group, and the search stops
        assert conjugated == 1


def test_a_core_inside_the_closure_is_no_generator(monkeypatch):
    # y^2 + y = x^3 + x over GF(2) (Aut over GF(16)) conjugates three cores,
    # and the closure of the first already holds the second: two
    # generators, each outside the closure of those before it
    E = WeierstrassCurve(F2, 0, 0, 1, 1, 0)
    red = autmap.reduction_isomorphism(E.base_change(F16)).params
    calls = []
    compose_params = autmap._compose_params
    monkeypatch.setattr(autmap, "_compose_params",
                        lambda f, g: calls.append(g == red) or compose_params(f, g))
    G = autmap.automorphism_group(E)
    assert (G.order, G.field) == (24, F16)
    assert (sum(calls), len(G.generators)) == (3, 2)
    for j, g in enumerate(G.generators):
        assert g not in autmap._subgroup_closure(G.cayley, G.generators[:j])


@pytest.mark.parametrize("p,n,coeffs,order,degree", GROUP_SHAPES, ids=SHAPE_IDS)
def test_subgroup_lattice_costs_one_closure_per_pair_of_cyclic_subgroups(
        monkeypatch, p, n, coeffs, order, degree):
    G = autmap.automorphism_group(WeierstrassCurve(gf.field_create(p, n), *coeffs))
    calls = []
    closure = autmap._subgroup_closure
    monkeypatch.setattr(autmap, "_subgroup_closure",
                        lambda table, seed: calls.append(1) or closure(table, seed))
    c = sum(H.is_cyclic for H in autmap.all_subgroups(G))
    # n cyclic closures, then one per pair of cyclic subgroups, against
    # n(n+1)/2 for every pair of elements
    assert len(calls) <= order + c * (c - 1) // 2


def test_cayley_table_faults_on_a_set_not_closed(monkeypatch):
    # a full count of cores none of which is an automorphism: r moved off s^2
    solve = autmap._reduced_isomorphisms
    monkeypatch.setattr(autmap, "_reduced_isomorphisms", lambda R1, R2: [
        (u, r + 1, s, t) for u, r, s, t in solve(R1, R2)])
    with pytest.raises(RuntimeError, match=r"^automorphism group of 0,0,1,0,0 over "
                       r"GF\(2\^2\): automorphism set is not closed under composition$"):
        autmap.automorphism_group(E2)


GROUP_CURVES = list(dict.fromkeys(
    [(p, n, c) for p, n, c, _, _ in GROUP_SHAPES] + oracles.WALK_CURVES))
CURVE_IDS = [f"{p}^{n}-{c}" for p, n, c in GROUP_CURVES]


@pytest.mark.parametrize("p,n,coeffs", GROUP_CURVES, ids=CURVE_IDS)
def test_group_closure_is_every_isomorphism_of_the_curve(p, n, coeffs):
    # the closure of a few conjugated cores is the full, sorted search
    E = WeierstrassCurve(gf.field_create(p, n), *coeffs)
    G = autmap.automorphism_group(E)
    assert list(G.elements) == autmap.find_isomorphisms(E, E, G.field)
    assert all(G.index_of(f) == i for i, f in enumerate(G.elements))


@pytest.mark.parametrize("p,n,coeffs", GROUP_CURVES, ids=CURVE_IDS)
def test_one_generator_for_p_at_least_5(p, n, coeffs):
    # for p >= 5, u embeds Aut(E) in the m-th roots of unity, so a core
    # whose u has order m generates the group on its own
    G = autmap.automorphism_group(WeierstrassCurve(gf.field_create(p, n), *coeffs))
    if p >= 5:
        assert len(G.generators) == 1
    else:
        assert 1 <= len(G.generators) <= G.order.bit_length() - 1


def test_minimal_degree_limit():
    with pytest.raises(ValueError):
        autmap.minimal_isomorphism_degree(E3, E3, 0)


def test_stalled_degree_search_reaches_full_group():
    # Aut has 4 elements over GF(2^3), GF(2^6) and GF(2^9), all 24 over GF(2^12)
    c = gf.element_from_str("2^3:1,1,1", F8)
    G = autmap.automorphism_group(WeierstrassCurve(F8, 0, 0, 1, c, c))
    assert G.order == 24
    assert (G.field.p, G.field.n) == (2, 12)


def test_group_elements_map_points(G12, G24):
    for G, bases, extensions in (
        (G12, (F3, F9), (gf.field_create(3, 4),)),
        (G24, (F2, F4), (F16, gf.field_create(2, 6))),
    ):
        for g in G.elements:
            _assert_maps_points(g)
            _assert_maps_points(autmap.invert(g))
            for base in bases:
                _assert_maps_points(autmap.galois_apply(g, base))
            for field in extensions:
                _assert_maps_points(autmap.embed_isomorphism(g, field))


def test_compose_maps_points(G12, G24):
    for G in (G12, G24):
        points = G.elements[0].source.enumerate_points()
        for f in G.elements:
            for g in G.elements:
                fg = autmap.compose(f, g)
                _assert_maps_points(fg)
                assert all(fg.apply(pt) == f.apply(g.apply(pt)) for pt in points)


def _model_and_twists(k):
    """(curve, twists over k) for j = 0, j = 1728 when p >= 5, and a generic j."""
    g = gf.generator(k)
    units = [g ** i for i in range(7)]
    if k.p == 2:
        E0 = WeierstrassCurve(k, 0, 0, 1, 0, 0)
        E1 = WeierstrassCurve(k, 1, 0, 0, 0, 1)
        return [
            (E0, [WeierstrassCurve(k, 0, 0, a3, a4, a6)
                  for a3 in (1, g) for a4 in (0, g) for a6 in (0, 1)]),
            (E1, [twists.artin_schreier_twist(E1, d) for d in (0, 1, g)]),
        ]
    if k.p == 3:
        E0 = WeierstrassCurve(k, 0, 0, 0, -1, 0)
        E1 = WeierstrassCurve(k, 0, 1, 0, 0, -1)
        return [
            (E0, [WeierstrassCurve(k, 0, 0, 0, a4, a6)
                  for a4 in units[:4] for a6 in (0, 1)]),
            (E1, [twists.quadratic_twist(E1, d) for d in units[:3]]),
        ]
    E0 = from_short(k, 0, 1)
    E1728 = from_short(k, 1, 0)
    E = next(C for C in (from_short(k, 1, b) for b in range(1, k.p))
             if C.is_smooth())
    return [
        (E0, [twists.unit_twist(E0, m) for m in units]),
        (E1728, [from_short(k, m, 0) for m in units[:5]]),
        (E, [twists.quadratic_twist(E, d) for d in units[:3]]),
    ]


def _assert_derived_maps(f, base, automorphisms, bigger):
    """The identity holds for f and for every map derived from it."""
    f_inv = autmap.invert(f)
    for h in (
        f,
        f_inv,
        autmap.compose(f_inv, f),
        autmap.galois_apply(f, base),
        autmap.embed_isomorphism(f, bigger),
        *(autmap.compose(f, a) for a in automorphisms),
    ):
        assert_transforms(h)


@pytest.mark.parametrize("p,n", FIELDS_TO_81)
def test_reduction_and_twist_isomorphisms_map_points(p, n):
    # the maps the library derives without re-checking (invert, compose,
    # embed_isomorphism, reduction_isomorphism, find_isomorphisms) and the
    # checked galois_apply also carry their source exactly onto their target
    K = gf.field_create(p, n)
    bigger = gf.field_create(p, 2 * n)
    g = gf.generator(K)
    for E, _ in _model_and_twists(K):
        # a long model of E, then its reduction back to the short family
        u, r, s, t = g, g + 1, g * g, K.one
        L = WeierstrassCurve(K, *autmap.transform_coefficients(E.coefficients, u, r, s, t))
        _assert_maps_points(autmap.CurveIsomorphism(K, E, L, u, r, s, t))
        _assert_maps_points(autmap.reduction_isomorphism(L))
        for C in (E, L):
            assert_transforms(autmap.reduction_isomorphism(C))
    # twists over the prime field, and over GF(p^2) when it lies in K,
    # mapped over K
    for d in (1, 2):
        if n % d:
            continue
        k = gf.field_create(p, d)
        for E, curves in _model_and_twists(k):
            # automorphisms over k, composed after maps over K
            automorphisms = autmap.find_isomorphisms(E, E, k)
            for T in curves:
                for iso in autmap.find_isomorphisms(E, T, K):
                    _assert_maps_points(iso)
                    _assert_derived_maps(iso, k, automorphisms, bigger)


def _random_element(data, K, nonzero=False):
    return K.from_canon(data.draw(st.integers(1 if nonzero else 0, K.q - 1)))


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (7, 4), (1021, 1)],
                         ids=["2^8", "3^5", "7^4", "1021"])
@given(data=st.data())
def test_derived_maps_satisfy_the_identity_on_random_models(p, n, data):
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *(_random_element(data, K) for _ in range(5)))
    assume(E.is_smooth())
    # random curves almost never have j = 0 or 1728, so every draw also
    # moves the j = 0 curve, and the j = 1728 one when p >= 5: each branch
    # of the solve then meets a random model
    special = [C for C, _ in _model_and_twists(K)[:-1]]
    bigger = gf.field_create(p, 2 * n)
    for S in (E, *special):
        params = (_random_element(data, K, nonzero=True),
                  *(_random_element(data, K) for _ in range(3)))
        L = WeierstrassCurve(K, *autmap.transform_coefficients(S.coefficients, *params))
        f = autmap.CurveIsomorphism(K, S, L, *params)
        isos = autmap.find_isomorphisms(S, L, K)
        assert f in isos
        for h in isos:
            assert_transforms(h)
        for C in (S, L):
            red = autmap.reduction_isomorphism(C)
            assert_transforms(red)
            # L -> S -> R_S and S -> L -> R_L
            assert_transforms(autmap.compose(red, autmap.invert(f) if C is S else f))
        automorphisms = autmap.find_isomorphisms(S, S, K)
        _assert_derived_maps(f, K, automorphisms, bigger)
    # a curve over the prime field, with its automorphisms over K
    k = gf.field_create(p)
    E0 = WeierstrassCurve(k, *(_random_element(data, k) for _ in range(5)))
    assume(E0.is_smooth())
    for a in autmap.find_isomorphisms(E0, E0, K):
        assert_transforms(a)
        assert_transforms(autmap.galois_apply(a, k))


def _assert_round_trips(E, T, U, field):
    """Every f: E -> T over `field` is undone by invert(f), and compose(g, f)
    carries E onto U for every g: T -> U there, on the coefficients."""
    Ec, Uc = (C.base_change(field).coefficients for C in (E, U))
    fs = autmap.find_isomorphisms(E, T, field)
    gs = autmap.find_isomorphisms(T, U, field)
    assert fs and gs
    for f in fs:
        Tc = f.target.coefficients
        assert autmap.transform_coefficients(Tc, *autmap.invert(f).params) == Ec
        for g in gs:
            assert autmap.transform_coefficients(Ec, *autmap.compose(g, f).params) == Uc


TWIST_GOLDENS = sorted(path.stem for path in GOLDEN.glob("twists_*.json"))


@pytest.mark.parametrize("name", TWIST_GOLDENS)
def test_transform_round_trips_on_golden_twists(name):
    # E the golden's source; T and U consecutive twists, over the field
    # where both become isomorphic to E
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    p, n = (int(x) for x in want["base"].split("^"))
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *(gf.element_from_str(a, K) for a in want["source"]))
    entries = want["twists"]
    for i, entry in enumerate(entries):
        following = entries[(i + 1) % len(entries)]
        T, U = (WeierstrassCurve(K, *(gf.element_from_str(a, K) for a in e["curve"]))
                for e in (entry, following))
        degree = math.lcm(entry["split_degree"], following["split_degree"])
        _assert_round_trips(E, T, U, gf.field_create(p, n * degree))


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (7, 4), (1021, 1)],
                         ids=["2^8", "3^5", "7^4", "1021"])
@given(data=st.data())
def test_transform_round_trips_on_random_models(p, n, data):
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *(_random_element(data, K) for _ in range(5)))
    assume(E.is_smooth())
    curves = [E]
    for _ in range(2):
        params = (_random_element(data, K, nonzero=True),
                  *(_random_element(data, K) for _ in range(3)))
        curves.append(WeierstrassCurve(
            K, *autmap.transform_coefficients(curves[-1].coefficients, *params)))
    _assert_round_trips(*curves, K)


@pytest.mark.parametrize("p,n,coeffs", oracles.WALK_CURVES,
                         ids=[f"{p}^{n}-{c}" for p, n, c in oracles.WALK_CURVES])
def test_structure_matches_direct_walks(p, n, coeffs):
    # lattice of pair closures, orders by closure size and classes by the
    # twisted-class helper against the fixpoint, power and conjugation loops
    G = autmap.automorphism_group(WeierstrassCurve(gf.field_create(p, n), *coeffs))
    S = autmap.group_structure(G)
    lattice = [(H.indices, H.order, H.is_cyclic, H.is_normal) for H in S.subgroups]
    assert lattice == oracles.fixpoint_subgroups(G)
    assert list(S.conjugacy_classes) == oracles.conjugacy_classes(G)
    assert S.element_orders == tuple(oracles.power_order(G, i) for i in range(G.order))
    assert S.center == oracles.center(G)
    assert S.is_abelian == (len(oracles.center(G)) == G.order)
