"""Twist enumeration, explicit twist families, and the table verifier."""

import json
from pathlib import Path

import pytest

from twistlab import autmap, gf, twistcoh, twists
from twistlab.curve import WeierstrassCurve, from_short

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
def test_labelling_searches_only_class_split_degrees(E, monkeypatch):
    # each twist is searched once per class split degree, ascending, up to
    # its own; no other degree and no degree twice
    base = E.ctx
    searched = []
    labelling = []
    find = autmap.find_isomorphisms
    label = twists._label_class

    def counted_find(E1, E2, field):
        if labelling:
            searched.append((E2, field.n // base.n))
        return find(E1, E2, field)

    def flagged_label(*args):
        labelling.append(True)
        try:
            return label(*args)
        finally:
            labelling.pop()

    monkeypatch.setattr(autmap, "find_isomorphisms", counted_find)
    monkeypatch.setattr(twists, "_label_class", flagged_label)
    report = twists.enumerate_twists(E, base)
    A = twistcoh.frobenius_action(autmap.automorphism_group(E), base)
    class_degrees = {
        twistcoh.splitting_degree(twistcoh.Cocycle(A, c.rep_index))
        for c in twistcoh.frobenius_classes(A)
    }
    for e in report.entries:
        tried = [d for T, d in searched if T == e.curve]
        assert tried == sorted(d for d in class_degrees if d <= e.split_degree)


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
        reps = twists._class_representatives(K, E.j_invariant())
        assert reps == grid_class_representatives(E, K), E


@pytest.mark.parametrize("K", FLOOD_FIELDS, ids=repr)
def test_family_nodes_are_the_short_models(K):
    for E in _grid_sources(K):
        j = E.j_invariant()
        prefix, nodes, _ = twists._short_family(K, j)
        curves = [WeierstrassCurve(K, *map(K.from_canon, prefix + node)) for node in nodes]
        assert curves == list(short_grid(E, K)), E
        for T in curves:
            assert T.is_smooth() and T.j_invariant() == j
            assert autmap.reduction_isomorphism(T).is_identity()


@pytest.mark.parametrize("K", FLOOD_FIELDS, ids=repr)
def test_orbit_stabilizer_certificate(K):
    # an orbit of the moves times the stabilizer Aut_K(T) has the order of
    # the whole shape-keeping group, so the moves reach every isomorphic
    # model; the orbits partition the family
    for E in _grid_sources(K):
        j = E.j_invariant()
        prefix, nodes, moves = twists._short_family(K, j)
        sizes = []
        for T in twists._class_representatives(K, j):
            orbit = {tuple(a.canon for a in T.coefficients)[len(prefix):]}
            stack = list(orbit)
            while stack:
                for nxt in moves(stack.pop()):
                    if nxt not in orbit:
                        orbit.add(nxt)
                        stack.append(nxt)
            stabilizer = len(autmap.find_isomorphisms(T, T, K))
            assert len(orbit) * stabilizer == _family_order(K, j), T
            sizes.append(len(orbit))
        assert sum(sizes) == len(list(nodes)), E


def test_split_fields_are_created_before_the_flood(monkeypatch):
    # y^2 + y = x^3 over GF(2^6) has classes of split degree 8; GF(2^48)
    # is over the split limit, and that must end the call before any flood
    def unreachable(*args):
        pytest.fail("the flood ran before the split-limit check")

    monkeypatch.setattr(twists, "_class_representatives", unreachable)
    F64 = gf.field_create(2, 6)
    with pytest.raises(gf.LimitExceededError):
        twists.enumerate_twists(WeierstrassCurve(F64, 0, 0, 1, 0, 0), F64)


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


def test_quadratic_twist_square_criterion():
    E = from_short(F5, 1, 1)
    squares = {x * x for x in gf.enumerate_field(F5)[1:]}
    for d in gf.enumerate_field(F5)[1:]:
        T = twists.quadratic_twist(E, d)
        assert T == WeierstrassCurve(F5, 0, 0, 0, d * d * E.a4, d ** 3 * E.a6)
        assert _base_iso(E, T, F5) == (d in squares)


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
    for F in (F2, F4, gf.field_create(2, 3)):
        E = WeierstrassCurve(F2, 1, 0, 0, 0, 1).base_change(F)
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


def test_census_refuses_past_the_working_limit(monkeypatch):
    F27 = gf.field_create(3, 3)
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "100")
    with pytest.raises(gf.LimitExceededError) as exc:
        twists.j_zero_class_representatives(F27)
    assert str(exc.value) == "census over GF(3^3) needs 702 grid nodes, limit 100"


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
            assert [item.name for item in report.items] == want_names
            assert all(item.ok for item in report.items)
            assert report.ok
    with pytest.raises(ValueError):
        twists.verify_twist_tables(5, 1)
    with pytest.raises(ValueError):
        twists.verify_twist_tables(3, 0)


def test_verdict_report_json():
    doc = twists.verdict_report_json(twists.verify_twist_tables(3, 1))
    assert list(doc) == ["base", "ok", "items"]
    assert doc["base"] == "3^1" and doc["ok"] is True
    assert all(list(item) == ["name", "expected", "computed", "ok"]
               for item in doc["items"])
    json.dumps(doc)


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
