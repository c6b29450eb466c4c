"""Twist enumeration, explicit twist families, and the table verifier."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistlab import autmap, gf, twistcoh, twists
from twistlab.curve import WeierstrassCurve, from_short

import oracles
from oracles import grid_class_representatives, short_grid

GOLDEN = Path(__file__).parent / "golden"

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F11 = gf.field_create(11)
F13 = gf.field_create(13)

E3 = WeierstrassCurve(F3, 0, 0, 0, -1, 0)
E2 = WeierstrassCurve(F2, 0, 0, 1, 0, 0)


@pytest.fixture(scope="module")
def report3():
    return twists.enumerate_twists(E3, F3)


@pytest.fixture(scope="module")
def report2():
    return twists.enumerate_twists(E2, F2)


@pytest.fixture(scope="module")
def report4():
    return twists.enumerate_twists(E2, F4)


def _base_iso(E, T, base):
    return bool(autmap.find_isomorphisms(E, T, base))


def test_cubic_twists_over_f3(report3):
    entries = report3.entries
    assert len(entries) == 4
    assert entries[0].frob_class.is_trivial()
    assert entries[0].curve == E3
    assert entries[0].split_degree == 1 and entries[0].point_count == 4
    assert {e.curve for e in entries} == {
        E3,
        WeierstrassCurve(F3, 0, 0, 0, 1, 0),
        WeierstrassCurve(F3, 0, 0, 0, -1, 1),
        WeierstrassCurve(F3, 0, 0, 0, -1, -1),
    }
    by_curve = {e.curve: e for e in entries}
    quad = by_curve[WeierstrassCurve(F3, 0, 0, 0, 1, 0)]
    assert quad.split_degree == 2 and quad.point_count == 4
    assert entries[-1] is quad  # quadratic class is last in class order
    for a6, count in ((1, 7), (-1, 1)):
        e = by_curve[WeierstrassCurve(F3, 0, 0, 0, -1, a6)]
        assert e.split_degree == 3 and e.point_count == count
    table = twists.point_count_table(report3)
    assert table["counts"][0] == 4
    assert sorted(table["counts"]) == [1, 4, 4, 7]
    assert table["unseparated"] == [[0, 3]]
    assert not table["all_distinct"]


def _assert_twist_invariants(report):
    base = report.base
    entries = report.entries
    for i, e in enumerate(entries):
        assert e.curve.j_invariant() == report.source.j_invariant()
        # the recorded degree, found among the classes' split degrees only,
        # is the least isomorphism degree over the full scan 1..24
        assert autmap.minimal_isomorphism_degree(
            report.source, e.curve, 24) == e.split_degree
        for j in entries[i + 1:]:
            assert not _base_iso(e.curve, j.curve, base)
    assert entries[0].frob_class.is_trivial()
    assert not any(e.frob_class.is_trivial() for e in entries[1:])


def test_twist_invariants(report3, report2, report4):
    for report in (report3, report2, report4):
        _assert_twist_invariants(report)


@pytest.mark.parametrize("E, degrees", [
    (E2.base_change(F8), [1, 8, 8]),
    (E3.base_change(F9), [1, 2, 3, 4, 4, 6]),
    (from_short(F7, 0, 1), [1, 2, 3, 3, 6, 6]),
    (from_short(F13, 1, 0), [1, 2, 4, 4]),
    (WeierstrassCurve(F8, 1, 0, 0, 0, 1), [1, 2]),
], ids=["j0/2^3", "j0/3^2", "j0/7", "j1728/13", "ordinary/2^3"])
def test_twist_invariants_wider(E, degrees):
    report = twists.enumerate_twists(E, E.ctx)
    assert sorted(e.split_degree for e in report.entries) == degrees
    _assert_twist_invariants(report)


@pytest.mark.parametrize("E", [E2, E3.base_change(F9)], ids=["j0/2^1", "j0/3^2"])
def test_labelling_searches_only_class_split_degrees(E):
    # each twist's split degree is the least class split degree with an
    # isomorphism E -> T: none over a smaller class degree, some over its own
    base = E.ctx
    report = twists.enumerate_twists(E, base)
    A = twistcoh.frobenius_action(autmap.automorphism_group(E), base)
    class_degrees = {
        twistcoh.splitting_degree(twistcoh.Cocycle(A, c.rep_index))
        for c in twistcoh.frobenius_classes(A)
    }
    for e in report.entries:
        assert e.split_degree in class_degrees
        for d in sorted(d for d in class_degrees if d <= e.split_degree):
            ext = gf.field_create(base.p, base.n * d)
            found = autmap.find_isomorphisms(E, e.curve, ext)
            assert bool(found) == (d == e.split_degree), (e.curve, d)


def _golden_sources():
    """The source curve of every `twists_*` golden file."""
    for path in sorted(GOLDEN.glob("twists_*.json")):
        data = json.loads(path.read_text())
        K = gf.field_create(*map(int, data["base"].split("^")))
        yield WeierstrassCurve(K, *(gf.element_from_str(a, K) for a in data["source"]))


def _random_models(K, rng):
    """Seeded random models of a j = 0 curve, of a j = 1728 curve when
    p >= 5, and of a generic curve over K."""
    def element(low=0):
        return K.from_canon(rng.randrange(low, K.q))

    c = element(1)
    shorts = {2: [(0, 0, c, element(), element())],
              3: [(0, 0, 0, c, element())]}.get(K.p, [(0, 0, 0, 0, c), (0, 0, 0, c, 0)])
    models = [WeierstrassCurve(K, *autmap.transform_coefficients(
                  tuple(map(K.element, a)), element(1), element(), element(), element()))
              for a in shorts]
    while True:
        E = WeierstrassCurve(K, *(element() for _ in range(5)))
        if E.is_smooth() and E.j_invariant() not in (0, 1728):
            return models + [E]


LABEL_FIELDS = ([(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]
                + [(5, 2), (7, 2)] + [(p, 1) for p in range(5, 48) if gf.is_prime(p)])


def test_labels_match_the_per_twist_oracle():
    # every twist gets the class and degree of one full isomorphism search
    # per twist and class degree (`oracles.label_oracle`); where that
    # search finds no label, or gives two twists one, the enumeration
    # refuses at the same twist
    rng = random.Random(11)
    sources = list(_golden_sources())
    for p, n in LABEL_FIELDS:
        sources += _random_models(gf.field_create(p, n), rng)
    for E in sources:
        base = E.ctx
        group, classes, class_degrees = twists._class_data(E, base)
        degrees = sorted(set(class_degrees))
        reps = twists._short_classes(base, E.j_invariant())
        want = {T: oracles.label_oracle(E, T, base, group, classes, degrees) for T in reps}
        seen, fault = set(), None
        for cls, d in want.values():
            fault = ("no isomorphism" if d is None else "not an automorphism" if cls is None
                     else "one class label" if cls in seen else None)
            if fault:
                break
            seen.add(cls)
        if fault:
            with pytest.raises(RuntimeError, match=fault):
                twists.enumerate_twists(E, base)
            continue
        report = twists.enumerate_twists(E, base)
        assert {e.curve: (e.frob_class, e.split_degree) for e in report.entries} == want, E


# j = 0 curves whose coefficients leave GF(p), over bases of odd degree:
# the base reaches the field that compares a label with the group through
# psi's field and through the group's, by embeddings that differ by a
# power of Frobenius
J0_OFF_PRIME = [(2, 3, (0, 0, [0, 1, 0], 0, 0)), (3, 3, (0, 0, 0, [0, 1, 0], 0)),
                (2, 5, (0, 0, [0, 1, 0, 0, 0], 0, 0))]


@pytest.mark.parametrize("p,n,coeffs", J0_OFF_PRIME, ids=["2^3", "3^3", "2^5"])
def test_j_zero_twists_off_the_prime_field(p, n, coeffs):
    # each twist's split degree is the least d over which its canonical
    # model and E's agree, found without the automorphism group; the
    # count is that of the tables, on the curve and on seeded models of
    # other j = 0 curves over the same base, and the curve's degrees are
    # the tables' too (another j = 0 curve can be a twist of the tables'
    # curve, and then its degrees differ)
    F = gf.field_create(p, n)
    rng = random.Random(p ** n)
    E0 = WeierstrassCurve(F, *coeffs)
    for E in [E0] + [_random_models(F, rng)[0] for _ in range(2)]:
        try:
            report = twists.enumerate_twists(E, F)
        except RuntimeError as exc:
            # the label convention's known defect, which the strict xfail
            # test_twists_of_cubic_twists_over_f3 pins; no label may miss
            # the group
            assert E is not E0 and "one class label" in str(exc), E
            continue
        degrees = sorted(e.split_degree for e in report.entries)
        assert len(degrees) == twists._EXPECTED_COUNTS[p][0], E
        if E is E0:
            assert degrees == twists._EXPECTED_J0_DEGREES[p][0]
        exts = [gf.field_create(p, n * d) for d in range(1, max(degrees) + 1)]
        models = [twists.canonical_model(E.base_change(ext)) for ext in exts]
        for entry in report.entries:
            d = next(d for d, (ext, model) in enumerate(zip(exts, models), 1)
                     if twists.canonical_model(entry.curve.base_change(ext)) == model)
            assert entry.split_degree == d, (E, entry.curve)


SHORT_MODEL_FIELDS = [(p, n) for p in range(2, 65) if gf.is_prime(p)
                      for n in range(1, 7) if p ** n <= 64]


@pytest.mark.parametrize("p,n", SHORT_MODEL_FIELDS,
                         ids=[f"{p}^{n}" for p, n in SHORT_MODEL_FIELDS])
def test_short_models_are_their_own_reductions(p, n):
    # the labelling takes a twist's reduction to be the identity; j = 0,
    # j = 1728 where it is not 0, and the least other j
    K = gf.field_create(p, n)
    js = [K.zero, K.scalar(1728)] if K.scalar(1728) else [K.zero]
    js.append(next(j for j in map(K.from_canon, range(1, K.q)) if j not in js))
    for j in js:
        for T in twists._short_classes(K, j):
            assert T.j_invariant() == j
            assert autmap.reduction_isomorphism(T).params == (1, 0, 0, 0), T


def _grid_sources(K):
    """A j = 0 curve, a j = 1728 curve when p >= 5, and a generic curve."""
    if K.p == 2:
        return [WeierstrassCurve(K, 0, 0, 1, 0, 0), WeierstrassCurve(K, 1, 0, 0, 0, 1)]
    if K.p == 3:
        return [WeierstrassCurve(K, 0, 0, 0, -1, 0), WeierstrassCurve(K, 0, 1, 0, 0, -1)]
    generic = next(
        C for C in (from_short(K, 1, b) for b in range(1, K.p))
        if C.is_smooth() and C.j_invariant() not in (0, 1728)
    )
    return [from_short(K, 0, 1), from_short(K, 1, 0), generic]


FLOOD_FIELDS = [F2, F4, F8, F3, F9, F5, F7, F13]


def _family_order(K, j):
    """Order of the group of isomorphisms over K that keep the short shape."""
    q = K.q
    if K.p == 2:
        return (q - 1) * q * q if j == 0 else q
    return (q - 1) * q if K.p == 3 else q - 1


@pytest.mark.parametrize("K", FLOOD_FIELDS, ids=repr)
def test_flood_matches_grid_oracle(K):
    for E in _grid_sources(K):
        reps = twists._short_classes(K, E.j_invariant())
        assert reps == grid_class_representatives(E, K), E


def _coefficient_key(T):
    return tuple(a.canon for a in T.coefficients)


@pytest.mark.parametrize("K", FLOOD_FIELDS, ids=repr)
def test_family_nodes_are_the_short_models(K):
    # the grid oracle is the family the classes partition: short models
    # with j, each its own reduction; every representative is one of them
    for E in _grid_sources(K):
        j = E.j_invariant()
        grid = list(short_grid(E, K))
        for T in grid:
            assert T.is_smooth() and T.j_invariant() == j
            assert autmap.reduction_isomorphism(T).is_identity()
        assert all(R in grid for R in twists._short_classes(K, j)), E


@pytest.mark.parametrize("K", FLOOD_FIELDS, ids=repr)
def test_orbit_stabilizer_certificate(K):
    # every short model is isomorphic to exactly one representative, which
    # is the least model of its fiber; the fiber is an orbit of the
    # shape-keeping group, so its size times the stabilizer Aut_K(R) is
    # that group's order
    for E in _grid_sources(K):
        j = E.j_invariant()
        reps = twists._short_classes(K, j)
        fibers = {_coefficient_key(R): [] for R in reps}
        for T in short_grid(E, K):
            owners = [R for R in reps if autmap.find_isomorphisms(R, T, K)]
            assert len(owners) == 1, T
            assert twists.canonical_model(T) == owners[0], T
            fibers[_coefficient_key(owners[0])].append(_coefficient_key(T))
        for R in reps:
            fiber = fibers[_coefficient_key(R)]
            assert min(fiber) == _coefficient_key(R), R
            stabilizer = len(autmap.find_isomorphisms(R, R, K))
            assert len(fiber) * stabilizer == _family_order(K, j), R


# one field per shape of short model, up to the largest census fields and
# a prime near 2^20
CANONICAL_FIELDS = [(2, 16), (2, 5), (3, 10), (3, 3), (1048573, 1), (13, 2)]


@pytest.mark.parametrize("p, n", CANONICAL_FIELDS,
                         ids=[f"{p}^{n}" for p, n in CANONICAL_FIELDS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_canonical_model_is_invariant_under_isomorphisms(p, n, data):
    # a long model E and its image under a random (u, r, s, t) over the
    # base share one canonical model, which is itself a short model
    # isomorphic to E
    K = gf.field_create(p, n)

    def element(low=0):
        return K.from_canon(data.draw(st.integers(low, K.q - 1)))

    shape = data.draw(st.sampled_from(["j0", "1728", "any"]))
    if shape == "any":
        E = WeierstrassCurve(K, *(element() for _ in range(5)))
    else:
        R = {2: (0, 0, 1, 0, 0), 3: (0, 0, 0, 1, 0)}.get(
            p, (0, 0, 0, 0, 1) if shape == "j0" else (0, 0, 0, 1, 0))
        E = WeierstrassCurve(K, *autmap.transform_coefficients(
            WeierstrassCurve(K, *R).coefficients, element(1), element(), element(), element()))
    assume(E.is_smooth())
    params = (element(1), element(), element(), element())
    image = WeierstrassCurve(K, *autmap.transform_coefficients(E.coefficients, *params))
    model = twists.canonical_model(E)
    assert twists.canonical_model(image) == model
    assert autmap.reduction_isomorphism(model).is_identity()
    assert twists.canonical_model(model) == model
    assert autmap.find_isomorphisms(E, model, K)


@pytest.mark.parametrize("K", [F2, F4, F8, gf.field_create(2, 4), F3, F9,
                               F5, F7, F11, F13], ids=repr)
def test_canonical_models_decide_base_isomorphism(K):
    # seeded pairs of curves with one j-invariant: equal canonical models
    # exactly when find_isomorphisms finds an isomorphism over K
    rng = random.Random(K.q)
    curves = []
    while len(curves) < 24:
        E = WeierstrassCurve(K, *(K.from_canon(rng.randrange(K.q)) for _ in range(5)))
        if E.is_smooth():
            curves.append(E)
    # j = 0 curves too, which have the largest automorphism groups
    for E in _grid_sources(K):
        for _ in range(6):
            u = K.from_canon(rng.randrange(1, K.q))
            r, s, t = (K.from_canon(rng.randrange(K.q)) for _ in range(3))
            curves.append(WeierstrassCurve(K, *autmap.transform_coefficients(
                E.coefficients, u, r, s, t)))
    models = [twists.canonical_model(E) for E in curves]
    pairs = 0
    for (E, M), (F, N) in itertools.combinations(zip(curves, models), 2):
        if E.j_invariant() == F.j_invariant():
            pairs += 1
            assert (M == N) == bool(autmap.find_isomorphisms(E, F, K)), (E, F)
    assert pairs >= len(curves)


def test_canonical_model_rejects_singular_curves():
    for K, coeffs in ((F2, (0, 0, 0, 0, 0)), (F3, (0, 0, 0, 0, 0)),
                      (F5, (0, 0, 0, 0, 0)), (F7, (0, 0, 0, -3, 2))):
        with pytest.raises(ValueError):
            twists.canonical_model(WeierstrassCurve(K, *coeffs))


@pytest.mark.parametrize("p, n, coeffs", [
    (2, 5, (0, 0, 1, 0, 0)), (2, 6, (0, 0, 1, 0, 0)),
    (3, 3, (0, 0, 0, 2, 0)), (3, 4, (0, 0, 0, 2, 0)),
    (5003, 1, (0, 0, 0, 2, 1)),
], ids=["j0/2^5", "j0/2^6", "j0/3^3", "j0/3^4", "generic/5003"])
def test_twists_past_the_former_split_limit(p, n, coeffs):
    # the split and labelling fields (GF(2^40), GF(3^18), GF(3^24) and
    # GF(5003^2) among them) are only used through roots and embeddings, so
    # no limit stops them
    F = gf.field_create(p, n)
    E = WeierstrassCurve(F, *coeffs)
    report = twists.enumerate_twists(E, F)
    degrees = sorted(e.split_degree for e in report.entries)
    if E.j_invariant().is_zero():
        parity = 0 if n % 2 else 1
        assert len(report.entries) == twists._EXPECTED_COUNTS[p][parity]
        assert degrees == twists._EXPECTED_J0_DEGREES[p][parity]
    else:
        assert degrees == [1, 2]
    # Lenstra's mass formula and its point-count form
    weights = [Fraction(1, len(autmap.find_isomorphisms(e.curve, e.curve, F)))
               for e in report.entries]
    assert sum(weights) == 1
    assert sum(w * e.point_count for w, e in zip(weights, report.entries)) == F.q + 1


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="(Fr psi)^-1 o psi is not a cocycle value in "
                          "twistcoh's convention; psi^-1 o Fr(psi) is")
@pytest.mark.parametrize("a6", [1, 2])
def test_twists_of_cubic_twists_over_f3(a6):
    # y^2 = x^3 + 2x + a6 are the cubic twists of y^2 = x^3 - x; two of
    # their twists receive one label today
    report = twists.enumerate_twists(WeierstrassCurve(F3, 0, 0, 0, 2, a6), F3)
    assert sorted(e.split_degree for e in report.entries) == [1, 2, 3, 6]


def test_entries_biject_with_classes(report3, report2, report4):
    for report, base in ((report3, F3), (report2, F2), (report4, F4)):
        G = autmap.automorphism_group(report.source)
        A = twistcoh.frobenius_action(G, base)
        classes = twistcoh.frobenius_classes(A)
        assert len(report.entries) == len(classes)
        assert [e.frob_class for e in report.entries] == list(classes)
        for e in report.entries:
            order = twistcoh.cocycle_order(
                twistcoh.Cocycle(A, e.frob_class.rep_index))
            assert e.split_degree == order


def test_supersingular_twists_over_f2(report2):
    entries = report2.entries
    assert [e.curve for e in entries][0] == E2
    assert {e.curve for e in entries} == {
        E2,
        WeierstrassCurve(F2, 0, 0, 1, 1, 0),
        WeierstrassCurve(F2, 0, 0, 1, 1, 1),
    }
    assert sorted(e.split_degree for e in entries) == [1, 8, 8]
    assert sorted(e.point_count for e in entries) == [1, 3, 5]
    assert twists.point_count_table(report2)["all_distinct"]


def test_supersingular_twists_over_f4(report4):
    entries = report4.entries
    assert len(entries) == 7
    assert sorted(e.split_degree for e in entries) == [1, 2, 3, 3, 4, 6, 6]
    quad = [e for e in entries if e.split_degree == 2]
    assert len(quad) == 1
    omega = F4.gen()
    assert quad[0].curve == WeierstrassCurve(F4, 0, 0, 1, 0, omega)


def test_sextic_twists_over_f9():
    E9 = E3.base_change(F9)
    report = twists.enumerate_twists(E9, F9)
    assert sorted(e.split_degree for e in report.entries) == [1, 2, 3, 4, 4, 6]
    assert _base_iso(report.entries[0].curve, E9, F9)


def test_label_choice_is_immaterial():
    # every isomorphism from the base curve to its quadratic twist labels
    # the same twisted class
    T = WeierstrassCurve(F3, 0, 0, 0, 1, 0)
    G = autmap.automorphism_group(E3)
    A = twistcoh.frobenius_action(G, F3)
    isos = autmap.find_isomorphisms(E3, T, F9)
    assert len(isos) == 12
    hit = set()
    for psi in isos:
        phi = autmap.compose(autmap.invert(autmap.galois_apply(psi, F3)), psi)
        hit.add(G.index_of(phi))
    assert None not in hit
    owners = {
        cls.indices
        for cls in twistcoh.frobenius_classes(A)
        if hit & set(cls.indices)
    }
    assert len(owners) == 1
    indices = owners.pop()
    assert not twistcoh.FrobClass(G, indices).is_trivial()
    assert twistcoh.splitting_degree(twistcoh.Cocycle(A, indices[0])) == 2


def test_enumeration_is_deterministic(report3):
    again = twists.enumerate_twists(E3, F3)
    assert twists.twist_report_json(again) == twists.twist_report_json(report3)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        twists.enumerate_twists(E3, F4)  # wrong characteristic
    with pytest.raises(ValueError):
        twists.enumerate_twists(E3.base_change(F9), F3)  # base too small
    with pytest.raises(ValueError):
        twists.enumerate_twists(WeierstrassCurve(F3, 0, 0, 0, 0, 0), F3)


# every field with q <= 16
SMALL_FIELDS = [gf.field_create(p, n) for p, n in
                ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                 (13, 1), (2, 4))]


def _units(F):
    return gf.enumerate_field(F)[1:]


def _odd_curves_of_every_j(F):
    """One curve y^2 = x^3 + a2*x^2 + a4*x + a6 over an odd-characteristic
    F for each j other than 0 and 1728, whose Aut(E) is {1, -1}."""
    elems = gf.enumerate_field(F)
    curves = {}
    for a2 in elems:
        for a4 in elems:
            for a6 in elems:
                E = WeierstrassCurve(F, 0, a2, 0, a4, a6)
                if E.is_smooth():
                    curves.setdefault(E.j_invariant(), E)
    for j in (0, 1728):
        curves.pop(F.scalar(j), None)
    return list(curves.values())


def test_quadratic_twist_square_criterion():
    # over every odd field with q <= 16 and for every j with Aut(E) = {1, -1},
    # the twist by d is isomorphic to E over the base exactly when d is a square
    for F in SMALL_FIELDS:
        if F.p == 2:
            continue
        squares = {x * x for x in _units(F)}
        for E in _odd_curves_of_every_j(F):
            for d in _units(F):
                assert _base_iso(E, twists.quadratic_twist(E, d), F) == (d in squares)
    E = from_short(F5, 1, 1)
    for d in _units(F5):
        T = twists.quadratic_twist(E, d)
        assert T == WeierstrassCurve(F5, 0, 0, 0, d * d * E.a4, d ** 3 * E.a6)


def test_quadratic_twist_at_j_1728():
    # with j = 1728 the quadratic twist by a non-square is trivial exactly
    # when -1 is a non-square, i.e. for q = 3 mod 4
    for F in (F5, F7, F11, F13):
        E = from_short(F, 1, 0)
        nonsquares = set(gf.enumerate_field(F)[1:]) - {
            x * x for x in gf.enumerate_field(F)[1:]}
        for d in nonsquares:
            assert _base_iso(E, twists.quadratic_twist(E, d), F) == (F.q % 4 == 3)


def test_quadratic_twist_char3():
    E = WeierstrassCurve(F3, 0, 1, 0, 0, -1)
    T = twists.quadratic_twist(E, -1)
    assert T == WeierstrassCurve(F3, 0, -1, 0, 0, 1)
    assert not _base_iso(E, T, F3)
    assert autmap.minimal_isomorphism_degree(E, T, 4) == 2
    assert _base_iso(E, twists.quadratic_twist(E, 1), F3)


def test_quadratic_twist_errors():
    with pytest.raises(ValueError):
        twists.quadratic_twist(WeierstrassCurve(F2, 1, 0, 0, 0, 1), 1)
    with pytest.raises(ValueError):
        twists.quadratic_twist(from_short(F5, 1, 1), 0)


def test_artin_schreier_twist_trace_criterion():
    # over every binary field with q <= 16 and for every j != 0, the curve
    # y^2 + xy = x^3 + 1/j: the twist by d is isomorphic to E over the base
    # exactly when d has absolute trace 0
    for F in SMALL_FIELDS:
        if F.p != 2:
            continue
        for a6 in _units(F):
            E = WeierstrassCurve(F, 1, 0, 0, 0, a6)
            for d in gf.enumerate_field(F):
                T = twists.artin_schreier_twist(E, d)
                assert _base_iso(E, T, F) == (gf.absolute_trace(d) == 0)


def test_artin_schreier_twist_errors():
    with pytest.raises(ValueError):
        twists.artin_schreier_twist(E3, 1)  # odd characteristic
    with pytest.raises(ValueError):
        twists.artin_schreier_twist(E2, 1)  # j = 0


def test_unit_twist_classes():
    E = from_short(F13, 0, 1)
    units = gf.enumerate_field(F13)[1:]
    reps = []
    for m in units:
        T = twists.unit_twist(E, m)
        assert T == WeierstrassCurve(F13, 0, 0, 0, 0, m)
        if not any(_base_iso(T, R, F13) for R in reps):
            reps.append(T)
    assert len(reps) == 6
    for m in units[:4]:
        for s in units[:4]:
            a = twists.unit_twist(E, m)
            b = twists.unit_twist(E, m * s ** 6)
            assert _base_iso(a, b, F13)


def test_unit_twist_sixth_power_criterion():
    # over every field with p >= 5 and q <= 16, GF(7) and GF(13) among them
    # with 6 | q - 1, y^2 = x^3 + b*m is isomorphic to y^2 = x^3 + b over
    # the base exactly when m is a sixth power
    for F in SMALL_FIELDS:
        if F.p < 5:
            continue
        sixth_powers = {x ** 6 for x in _units(F)}
        for b in _units(F):
            E = from_short(F, 0, b)
            for m in _units(F):
                assert _base_iso(E, twists.unit_twist(E, m), F) == (m in sixth_powers)


def test_unit_twist_errors():
    with pytest.raises(ValueError):
        twists.unit_twist(E3, 1)  # characteristic too small
    with pytest.raises(ValueError):
        twists.unit_twist(from_short(F7, 1, 1), 1)  # j nonzero
    with pytest.raises(ValueError):
        twists.unit_twist(from_short(F7, 0, 1), 0)


def test_j_zero_census():
    for n, want in enumerate((4, 6, 4, 6), start=1):
        assert twists.j_zero_class_census(gf.field_create(3, n)) == want
    for n, want in enumerate((3, 7, 3, 7), start=1):
        assert twists.j_zero_class_census(gf.field_create(2, n)) == want
    with pytest.raises(ValueError):
        twists.j_zero_class_census(F5)


@pytest.mark.parametrize("fixture, base", [
    ("report2", F2), ("report3", F3), ("report4", F4),
], ids=["2^1", "3^1", "2^2"])
def test_census_representatives_are_the_twists(request, fixture, base):
    report = request.getfixturevalue(fixture)
    reps = twists.j_zero_class_representatives(base)
    assert len(reps) == len(report.entries)
    for R in reps:
        assert R.j_invariant() == base.zero
        assert sum(_base_iso(R, e.curve, base) for e in report.entries) == 1
    for R, S in zip(reps, reps[1:]):
        assert not _base_iso(R, S, base)


def test_census_and_tables_over_degree_eight():
    # (q - 1) q^2 short models over GF(2^8), (q - 1) q over GF(3^8): the
    # census takes its classes without visiting them
    for p, want in ((2, 7), (3, 6)):
        assert twists.j_zero_class_census(gf.field_create(p, 8)) == want
        assert twists.verify_twist_tables(p, 8)["ok"] is True


MASS_FIELDS = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
               + [(5, 2), (7, 2), (13, 1)])


@pytest.mark.parametrize("p,n", MASS_FIELDS, ids=lambda v: str(v))
def test_short_classes_mass_formula(p, n):
    # Lenstra (Ann. of Math. 126, 1987): over F = GF(q), the classes of
    # each j-invariant weigh 1 / |Aut_F(T)| each and 1 together, so the
    # whole field weighs q
    F = gf.field_create(p, n)
    total = Fraction(0)
    for j in map(F.from_canon, range(F.q)):
        mass = sum(Fraction(1, len(autmap.find_isomorphisms(T, T, F)))
                   for T in twists._short_classes(F, j))
        assert mass == 1, j
        total += mass
    assert total == F.q


@pytest.mark.parametrize("p", [13, 37, 61, 97, 10009, 65521])
def test_twist_traces_are_the_cm_conjugates(p):
    # label-free (Ireland-Rosen, ch. 18): Frobenius of E is an element of
    # norm p in Z[zeta_3] (j = 0, p = 1 mod 3) or Z[i] (j = 1728, p = 1 mod 4)
    # with trace a, and a twist multiplies it by a unit, so from 4p = a^2 + 3b^2
    # the six traces are +-a, +-(a + 3b)/2, +-(a - 3b)/2, and from
    # 4p = a^2 + 4b^2 the four are +-a, +-2b
    F = gf.field_create(p)
    for coeffs, c in (((0, 0, 0, 0, 1), 3), ((0, 0, 0, 1, 0), 4)):
        report = twists.enumerate_twists(WeierstrassCurve(F, *coeffs), F)
        a = p + 1 - report.source.point_count()
        b = math.isqrt((4 * p - a * a) // c)
        assert a * a + c * b * b == 4 * p
        units = [a, (a + 3 * b) // 2, (a - 3 * b) // 2] if c == 3 else [a, 2 * b]
        assert (sorted(p + 1 - e.point_count for e in report.entries)
                == sorted(units + [-t for t in units]))


def _norm_form(p, d):
    """(x, y) with x^2 + d*y^2 = p, by Cornacchia's algorithm (Cohen,
    GTM 138, Alg. 1.5.2); p = 1 mod 3 for d = 3, p = 1 mod 4 for d = 1."""
    r = gf.sqrt(gf.field_create(p).scalar(-d)).canon
    a, b = p, max(r, p - r)
    while b * b > p:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, d)
    y = math.isqrt(y2)
    assert rem == 0 and y * y == y2
    return b, y


@settings(max_examples=12)
@given(bits=st.integers(12, 31), per_mille=st.integers(0, 999))
@example(bits=31, per_mille=999)
def test_cm_traces_over_primes_no_walk_reaches(bits, per_mille):
    # the certificate above, over the first prime p = 1 mod 12 from
    # 2^(bits - 1) * (1 + per_mille/1000), up to about 2^31, where every
    # count is the baby-step giant-step search's: the six twists
    # y^2 = x^3 + g^i and the four y^2 = x^3 + g^i*x, g the generator, are
    # built directly (enumerate_twists creates extensions GF(p^k), and
    # creating one factors p^k - 1 by trial division, past the limit for p
    # this large), and a, b come from Cornacchia's algorithm
    start = (1 << (bits - 1)) * (1000 + per_mille) // 12000 * 12 + 1
    p = next(m for m in itertools.count(start, 12) if gf.is_prime(m))
    F = gf.field_create(p)
    g = gf.generator(F)
    x, y = _norm_form(p, 3)  # 4p = (2x)^2 + 3(2y)^2
    E = WeierstrassCurve(F, 0, 0, 0, 0, 1)
    traces = [p + 1 - twists.unit_twist(E, g ** i).point_count() for i in range(6)]
    units = [2 * x, x + 3 * y, x - 3 * y]
    assert sorted(traces) == sorted(units + [-t for t in units])
    x, y = _norm_form(p, 1)  # 4p = (2x)^2 + 4y^2
    traces = [p + 1 - WeierstrassCurve(F, 0, 0, 0, g ** i, 0).point_count()
              for i in range(4)]
    assert sorted(traces) == sorted([2 * x, -2 * x, 2 * y, -2 * y])


def test_verify_twist_tables():
    want_names = [
        "j_zero_twist_count",
        "j_zero_split_degrees",
        "j_nonzero_twist_count",
        "j_nonzero_split_degrees",
        "j_zero_class_census",
    ]
    for p in (2, 3):
        for n in range(1, 5):
            report = twists.verify_twist_tables(p, n)
            assert [item["name"] for item in report["items"]] == want_names
            assert all(item["ok"] for item in report["items"])
            assert report["ok"] is True
    with pytest.raises(ValueError):
        twists.verify_twist_tables(5, 1)
    with pytest.raises(ValueError):
        twists.verify_twist_tables(3, 0)


def test_twist_report_json_schema(report3):
    doc = twists.twist_report_json(report3)
    assert list(doc) == ["base", "source", "twists"]
    assert doc["base"] == "3^1"
    assert len(doc["source"]) == 5
    assert all(isinstance(c, str) for c in doc["source"])
    rows = doc["twists"]
    assert all(list(r) == ["curve", "class_rep", "split_degree", "points"]
               for r in rows)
    assert [r["split_degree"] for r in rows] == [e.split_degree
                                                 for e in report3.entries]
    json.dumps(doc)


ORBIT_CASES = ([(2, n, (0, 0, 1, 0, 0)) for n in range(1, 5)]
               + [(3, n, (0, 0, 0, -1, 0)) for n in range(1, 5)]
               + [(2, 4, (1, 0, 0, 0, 1)), (3, 4, (0, 1, 0, 0, 1)),
                  (1009, 1, (0, 0, 0, 2, 3))]
               + [(p, 1, c) for p in (7, 13) for c in ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0))])


@pytest.mark.parametrize("p,n,coeffs", ORBIT_CASES,
                         ids=[f"{p}^{n}-{c}" for p, n, c in ORBIT_CASES])
def test_orbit_stabilizer_on_twist_entries(p, n, coeffs):
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *coeffs)
    report = twists.enumerate_twists(E, K)
    order = autmap.automorphism_group(E).order
    assert oracles.orbit_stabilizer_products(report) == [order] * len(report.entries)


def test_reports_match_golden_files(report3, report2, report4):
    reports = [("twists_3_1", report3), ("twists_2_1", report2),
               ("twists_2_2", report4)]
    # the ordinary p = 2, generic p = 3 and generic p >= 5 families
    for name, (p, n, coeffs) in (("twists_2_4", (2, 4, (1, 0, 0, 0, 1))),
                                 ("twists_3_4", (3, 4, (0, 1, 0, 0, 1))),
                                 ("twists_1009_1", (1009, 1, (0, 0, 0, 2, 3)))):
        K = gf.field_create(p, n)
        reports.append((name, twists.enumerate_twists(WeierstrassCurve(K, *coeffs), K)))
    for name, report in reports:
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        assert twists.twist_report_json(report) == want, name
