"""Acceptance gate: eleven checks, one pass/fail line each under pytest -v.

Each test pins an end-to-end result the package must reproduce exactly:
twist counts per field, explicit class partitions and twist equations,
census numbers, capitulation kernels, single-cocycle labels, and the
structural property suites.  Everything runs at desk scale.
"""

import json
import time
from pathlib import Path

import numpy
import pytest

from twistlab import autmap, gf, twistcoh, twists
from twistlab.curve import WeierstrassCurve, from_short

import oracles

GOLDEN = Path(__file__).parent / "golden"

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F9 = gf.field_create(3, 2)

E3 = WeierstrassCurve(F3, 0, 0, 0, -1, 0)
E2 = WeierstrassCurve(F2, 0, 0, 1, 0, 0)
E3_ORDINARY = WeierstrassCurve(F3, 0, 1, 0, 0, -1)
E2_ORDINARY = WeierstrassCurve(F2, 1, 0, 0, 0, 1)


def _class_count(E, base):
    G = autmap.automorphism_group(E.base_change(base))
    A = twistcoh.frobenius_action(G, base)
    return len(twistcoh.frobenius_classes(A))


def _key_classes(A):
    out = []
    for cls in twistcoh.frobenius_classes(A):
        out.append(sorted(A.group.elements[i].param_key() for i in cls.indices))
    return sorted(out)


@pytest.fixture(scope="module")
def G12():
    return autmap.automorphism_group(E3)


@pytest.fixture(scope="module")
def G24():
    return autmap.automorphism_group(E2)


@pytest.fixture(scope="module")
def report3():
    return twists.enumerate_twists(E3, F3)


@pytest.fixture(scope="module")
def report2():
    return twists.enumerate_twists(E2, F2)


@pytest.fixture(scope="module")
def report4():
    return twists.enumerate_twists(E2, F4)


def test_criterion_01_twist_counts_char3():
    start = time.monotonic()
    for n, want in enumerate((4, 6, 4, 6), start=1):
        base = gf.field_create(3, n)
        assert _class_count(E3, base) == want
        assert _class_count(E3_ORDINARY, base) == 2
    assert time.monotonic() - start <= 10.0


def test_criterion_02_twist_counts_char2():
    start = time.monotonic()
    for n, want in enumerate((3, 7, 3, 7), start=1):
        base = gf.field_create(2, n)
        assert _class_count(E2, base) == want
        assert _class_count(E2_ORDINARY, base) == 2
    assert time.monotonic() - start <= 10.0


def test_criterion_03_quartic_class_data(G12):
    A3 = twistcoh.frobenius_action(G12, F3)
    want = sorted([
        sorted([(1, 0, 0, 0), (2, 0, 0, 0)]),
        sorted([(1, 1, 0, 0), (2, 2, 0, 0)]),
        sorted([(1, 2, 0, 0), (2, 1, 0, 0)]),
        sorted([(3, 0, 0, 0), (3, 1, 0, 0), (3, 2, 0, 0),
                (6, 0, 0, 0), (6, 1, 0, 0), (6, 2, 0, 0)]),
    ])
    assert _key_classes(A3) == want
    A9 = twistcoh.frobenius_action(G12, F9)
    classes9 = _key_classes(A9)
    assert sorted(len(c) for c in classes9) == [1, 1, 2, 2, 3, 3]
    assert sorted([(1, 1, 0, 0), (1, 2, 0, 0)]) in classes9
    for name, A in (("h1_3_1", A3), ("h1_3_2", A9)):
        want_doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert twistcoh.class_report(A) == want_doc, name


def test_criterion_04_quartic_explicit_twists(report3):
    by_degree = {}
    for e in report3.entries:
        by_degree.setdefault(e.split_degree, []).append(e.curve)
    assert sorted(by_degree) == [1, 2, 3]
    [quad] = by_degree[2]
    assert autmap.find_isomorphisms(
        quad, WeierstrassCurve(F3, 0, 0, 0, 1, 0), F3)
    cubic_targets = [WeierstrassCurve(F3, 0, 0, 0, -1, -1),
                     WeierstrassCurve(F3, 0, 0, 0, -1, 1)]
    for T in cubic_targets:
        assert sum(bool(autmap.find_isomorphisms(C, T, F3))
                   for C in by_degree[3]) == 1


def test_criterion_05_supersingular_class_data_char2(G24):
    A2 = twistcoh.frobenius_action(G24, F2)
    classes = twistcoh.frobenius_classes(A2)
    assert sorted(c.size for c in classes) == [6, 6, 12]
    trivial = next(c for c in classes if c.is_trivial())
    assert sorted(A2.group.elements[i].param_key() for i in trivial.indices) == [
        (1, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 2), (1, 1, 1, 3),
        (2, 0, 0, 0), (2, 0, 0, 1), (2, 2, 3, 2), (2, 2, 3, 3),
        (3, 0, 0, 0), (3, 0, 0, 1), (3, 3, 2, 2), (3, 3, 2, 3),
    ]
    orders = [twistcoh.cocycle_order(twistcoh.Cocycle(A2, c.rep_index))
              for c in classes if not c.is_trivial()]
    assert orders == [8, 8]
    A4 = twistcoh.frobenius_action(G24, F4)
    degrees = sorted(
        twistcoh.splitting_degree(twistcoh.Cocycle(A4, c.rep_index))
        for c in twistcoh.frobenius_classes(A4)
    )
    assert degrees == [1, 2, 3, 3, 4, 6, 6]
    for name, A in (("h1_2_1", A2), ("h1_2_2", A4)):
        want_doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert twistcoh.class_report(A) == want_doc, name


def test_criterion_06_supersingular_explicit_twists_char2(report2, report4):
    targets = [WeierstrassCurve(F2, 0, 0, 1, 0, 0),
               WeierstrassCurve(F2, 0, 0, 1, 1, 0),
               WeierstrassCurve(F2, 0, 0, 1, 1, 1)]
    for T in targets:
        assert sum(bool(autmap.find_isomorphisms(e.curve, T, F2))
                   for e in report2.entries) == 1
    counts = sorted(e.point_count for e in report2.entries)
    assert counts == [1, 3, 5]
    assert len(set(counts)) == 3
    [quad] = [e for e in report4.entries if e.split_degree == 2]
    omega_curve = WeierstrassCurve(F4, 0, 0, 1, 0, F4.gen())
    assert autmap.find_isomorphisms(quad.curve, omega_curve, F4)


def test_criterion_07_supersingular_census():
    for n, want in enumerate((4, 6, 4, 6), start=1):
        assert twists.j_zero_class_census(gf.field_create(3, n)) == want


def test_criterion_08_quadratic_capitulation():
    for q in (5, 7, 11, 13):
        F = gf.field_create(q)
        E = from_short(F, -1, 0)
        G = autmap.automorphism_group(E)
        A = twistcoh.frobenius_action(G, F)
        H = twistcoh.resolve_subgroup(A, "minus-one")
        kernel = twistcoh.induced_map(A, H).kernel_size
        units = gf.enumerate_field(F)[1:]
        nonsquares = set(units) - {x * x for x in units}
        trivializes = {
            bool(autmap.find_isomorphisms(E, twists.quadratic_twist(E, d), F))
            for d in nonsquares
        }
        if q % 4 == 3:
            assert kernel == 2 and trivializes == {True}
        else:
            assert kernel == 1 and trivializes == {False}


def test_criterion_09_cubic_sextic_kernels(G12, G24):
    A9 = twistcoh.frobenius_action(G12, F9)
    rep3 = twistcoh.induced_map(A9, twistcoh.resolve_subgroup(A9, "C3"))
    assert rep3.kernel_size == 1 and len(rep3.collisions) == 1
    rep6 = twistcoh.induced_map(A9, twistcoh.resolve_subgroup(A9, "C6"))
    assert rep6.kernel_size == 1 and len(rep6.collisions) == 2
    A2 = twistcoh.frobenius_action(G24, F2)
    cubics = [H for H in twistcoh.stable_subgroups(A2) if H.order == 3]
    assert len(cubics) == 2
    for H in cubics:
        report = twistcoh.capitulation_report(E2, F2, H)
        assert report.surviving == ()


def test_criterion_10_single_cocycle_labels(G12, G24):
    K3 = {g.param_key(): k for k, g in enumerate(G12.elements)}
    quartic_scaling = K3[(3, 0, 0, 0)]
    for base in (F3, F9):
        A = twistcoh.frobenius_action(G12, base)
        cls = next(c for c in twistcoh.frobenius_classes(A)
                   if quartic_scaling in c.indices)
        assert not cls.is_trivial()
    K2 = {g.param_key(): k for k, g in enumerate(G24.elements)}
    shifted_scaling = K2[(3, 0, 0, 1)]
    A2 = twistcoh.frobenius_action(G24, F2)
    cls2 = next(c for c in twistcoh.frobenius_classes(A2)
                if shifted_scaling in c.indices)
    assert cls2.is_trivial()
    A4 = twistcoh.frobenius_action(G24, F4)
    cls4 = next(c for c in twistcoh.frobenius_classes(A4)
                if shifted_scaling in c.indices)
    assert not cls4.is_trivial()


def test_criterion_11_property_suites(G12, G24, report3, report2, report4):
    # field axioms, exhaustively, for every prime power q <= 81
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79):
        n = 1
        while p ** n <= 81:
            ctx = gf.field_create(p, n)
            q = ctx.q
            els = gf.enumerate_field(ctx)
            add = numpy.empty((q, q), dtype=numpy.int64)
            mul = numpy.empty((q, q), dtype=numpy.int64)
            for i, a in enumerate(els):
                for j, b in enumerate(els):
                    add[i, j] = (a + b).canon
                    mul[i, j] = (a * b).canon
            idx = numpy.arange(q)
            assert numpy.array_equal(add, add.T)
            assert numpy.array_equal(mul, mul.T)
            assert numpy.array_equal(add[0], idx)
            assert numpy.array_equal(mul[1], idx)
            for t in (add, mul):
                left = t[t.reshape(q, q, 1), idx.reshape(1, 1, q)]
                right = t[idx.reshape(q, 1, 1), t.reshape(1, q, q)]
                assert numpy.array_equal(left, right)
            left = mul[idx.reshape(q, 1, 1), add.reshape(1, q, q)]
            right = add[mul.reshape(q, q, 1),
                        mul[idx.reshape(q, 1, 1), idx.reshape(1, 1, q)]]
            assert numpy.array_equal(left, right)
            assert numpy.array_equal(numpy.sort(add, axis=1),
                                     numpy.tile(idx, (q, 1)))
            assert all(1 in set(mul[i][1:]) for i in range(1, q))
            n += 1

    # cocycle identity v(j + k) = v(j) * Fr^j(v(k)) across both groups
    for G, base in ((G12, F3), (G24, F2)):
        A = twistcoh.frobenius_action(G, base)
        for idx in range(G.order):
            c = twistcoh.Cocycle(A, idx)
            values = [oracles.cocycle_value(c, j) for j in range(25)]
            for j in range(13):
                for k in range(13):
                    rhs = autmap.compose(
                        values[j], autmap.galois_apply(values[k], base, j))
                    assert values[j + k].param_key() == rhs.param_key()

    # class partitions: disjoint cover, closed under twisted conjugation
    for G, base in ((G12, F3), (G12, F9), (G24, F2), (G24, F4)):
        A = twistcoh.frobenius_action(G, base)
        classes = twistcoh.frobenius_classes(A)
        assert sorted(i for c in classes for i in c.indices) == \
            list(range(G.order))
        for c in classes:
            members = set(c.indices)
            for i in c.indices:
                for s in range(G.order):
                    moved = G.cayley[G.cayley[G.inverses[s]][i]][A.perm[s]]
                    assert moved in members

    # Hasse bound on every enumerated twist
    for report in (report3, report2, report4):
        q = report.base.q
        for e in report.entries:
            assert (q + 1 - e.point_count) ** 2 <= 4 * q

    # pointwise validity of every isomorphism behind the twist labels whose
    # splitting field has at most 81 elements
    for report in (report3, report2, report4):
        base = report.base
        for e in report.entries:
            field = gf.field_create(base.p, base.n * e.split_degree)
            if field.q > 81:
                continue
            isos = autmap.find_isomorphisms(report.source, e.curve, field)
            assert isos
            for iso in isos:
                source = iso.source.enumerate_points()
                images = {iso.apply(pt) for pt in source}
                assert len(images) == len(source)
                assert all(iso.target.contains(pt) for pt in images)
                assert iso.apply(None) is None
