"""Weierstrass curves: points, invariants, and supersingularity."""

import json
import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from twistlab import cli, curve, gf
from twistlab.curve import WeierstrassCurve, from_short

from oracles import discriminant_oracle, j_invariant_oracle
from test_gf_properties import FIELDS as GF_FIELDS

F2 = gf.field_create(2)
F3 = gf.field_create(3)
F4 = gf.field_create(2, 2)
F5 = gf.field_create(5)
F7 = gf.field_create(7)
F8 = gf.field_create(2, 3)
F9 = gf.field_create(3, 2)
F25 = gf.field_create(5, 2)
F27 = gf.field_create(3, 3)
F32 = gf.field_create(2, 5)


def _naive_points(E):
    """Independent affine scan plus the point at infinity."""
    pts = [None]
    for x in gf.enumerate_field(E.ctx):
        for y in gf.enumerate_field(E.ctx):
            lhs = y * y + E.a1 * x * y + E.a3 * y
            rhs = x ** 3 + E.a2 * x * x + E.a4 * x + E.a6
            if lhs == rhs:
                pts.append((x, y))
    return pts


@pytest.mark.parametrize("ctx,coeffs", [
    (F3, (0, 0, 0, -1, 0)),
    (F3, (0, 1, 0, 0, -1)),
    (F9, (0, 0, 0, -1, 0)),
    (F2, (0, 0, 1, 0, 0)),
    (F2, (1, 0, 0, 0, 1)),
    (F8, (0, 0, 1, 1, 0)),
    (F5, (0, 0, 0, 1, 1)),
    (F7, (1, 1, 1, 1, 1)),
    (F32, (1, 0, 0, 0, 1)),
    (F32, (1, 1, 1, 1, 1)),
    (F32, (0, 0, 1, 1, 0)),
    (F27, (0, 1, 0, 0, 1)),
    (F27, (1, 2, 1, 0, 1)),
    (F25, (0, 0, 0, 1, 1)),
    (F25, (1, 0, 1, 2, 3)),
])
def test_points_match_naive_scan(ctx, coeffs):
    E = WeierstrassCurve(ctx, *coeffs)
    got = E.enumerate_points()
    want = _naive_points(E)
    assert sorted(p if p is None else (p[0].canon, p[1].canon) for p in got[1:]) == \
        sorted((p[0].canon, p[1].canon) for p in want[1:])
    assert got[0] is None and E.point_count() == len(want)
    for pt in got:
        assert E.contains(pt)


def test_contains_matches_equation_everywhere():
    E = WeierstrassCurve(F9, 0, 0, 0, -1, 0)
    members = {(p[0].canon, p[1].canon) for p in E.enumerate_points()[1:]}
    for x in gf.enumerate_field(F9):
        for y in gf.enumerate_field(F9):
            assert E.contains((x, y)) == ((x.canon, y.canon) in members)


def test_known_point_counts():
    assert WeierstrassCurve(F2, 0, 0, 1, 0, 0).point_count() == 3
    assert WeierstrassCurve(F2, 0, 0, 1, 1, 0).point_count() == 5
    assert WeierstrassCurve(F2, 0, 0, 1, 1, 1).point_count() == 1
    assert WeierstrassCurve(F3, 0, 0, 0, -1, 0).point_count() == 4
    assert WeierstrassCurve(F3, 0, 0, 0, -1, 1).point_count() == 7
    assert WeierstrassCurve(F3, 0, 0, 0, -1, -1).point_count() == 1
    assert WeierstrassCurve(F3, 0, 0, 0, 1, 0).point_count() == 4
    assert WeierstrassCurve(F4, 0, 0, 1, 0, 0).point_count() == 9


def test_invariant_identity_all_characteristics():
    # c4^3 - c6^2 == 1728 * disc holds identically, including char 2 and 3
    grids = [
        (F5, [(a, b) for a in range(5) for b in range(5)]),
        (F3, [(a, b) for a in range(3) for b in range(3)]),
    ]
    for ctx, pairs in grids:
        for a, b in pairs:
            E = WeierstrassCurve(ctx, 1, a, 1, b, 1)
            c4, c6 = E.c_invariants()
            disc = E.discriminant()
            assert c4 ** 3 - c6 * c6 == disc * 1728
    for k in range(16):
        E = WeierstrassCurve(F4, F4.from_canon(k % 4), 0, F4.from_canon(k // 4), 0, F4.one)
        c4, c6 = E.c_invariants()
        assert c4 ** 3 - c6 * c6 == E.discriminant() * 1728


def test_b_invariants_match_definitions():
    E = WeierstrassCurve(F7, 1, 2, 3, 4, 5)
    a1, a2, a3, a4, a6 = E.coefficients
    b2, b4, b6, b8 = E.b_invariants()
    assert b2 == a1 * a1 + a2 * 4
    assert b4 == a4 * 2 + a1 * a3
    assert b6 == a3 * a3 + a6 * 4
    assert b8 == (a1 * a1 * a6 + a2 * a6 * 4 - a1 * a3 * a4
                  + a2 * a3 * a3 - a4 * a4)
    # the classical relation 4*b8 = b2*b6 - b4^2
    assert b8 * 4 == b2 * b6 - b4 * b4


def test_hasse_bound_on_full_grids():
    bound_checked = 0
    for ctx in (F5, F7):
        for a in gf.enumerate_field(ctx):
            for b in gf.enumerate_field(ctx):
                E = WeierstrassCurve(ctx, 0, 0, 0, a, b)
                if not E.is_smooth():
                    continue
                t = E.trace_of_frobenius()
                assert t * t <= 4 * ctx.q
                bound_checked += 1
    for ctx in (F2, F4):
        for k in range(ctx.q ** 3):
            a3 = ctx.from_canon(k % ctx.q)
            a4 = ctx.from_canon((k // ctx.q) % ctx.q)
            a6 = ctx.from_canon(k // ctx.q ** 2)
            E = WeierstrassCurve(ctx, 0, 0, a3, a4, a6)
            if not E.is_smooth():
                continue
            t = E.trace_of_frobenius()
            assert t * t <= 4 * ctx.q
            bound_checked += 1
    assert bound_checked > 50


def test_supersingular_equals_j_zero_in_char_2_and_3():
    for ctx in (F3, F9):
        for a in gf.enumerate_field(ctx):
            for b in gf.enumerate_field(ctx):
                for c in gf.enumerate_field(ctx)[:3]:
                    E = WeierstrassCurve(ctx, 0, c, 0, a, b)
                    if not E.is_smooth():
                        continue
                    assert E.is_supersingular() == E.j_invariant().is_zero()
    for ctx in (F2, F4):
        for k in range(ctx.q ** 4):
            a1 = ctx.from_canon(k % ctx.q)
            a3 = ctx.from_canon((k // ctx.q) % ctx.q)
            a4 = ctx.from_canon((k // ctx.q ** 2) % ctx.q)
            a6 = ctx.from_canon(k // ctx.q ** 3)
            E = WeierstrassCurve(ctx, a1, 0, a3, a4, a6)
            if not E.is_smooth():
                continue
            assert E.is_supersingular() == E.j_invariant().is_zero()


def test_supersingular_examples():
    assert WeierstrassCurve(F3, 0, 0, 0, 1, 1).is_supersingular()
    assert not WeierstrassCurve(F3, 0, 1, 0, 0, -1).is_supersingular()
    assert from_short(F5, 0, 1).is_supersingular()      # 5 = 2 mod 3
    assert not from_short(F7, 0, 1).is_supersingular()  # 7 = 1 mod 3
    assert from_short(F7, 1, 0).is_supersingular()      # 7 = 3 mod 4
    assert not from_short(F5, 1, 0).is_supersingular()  # 5 = 1 mod 4


def test_j_invariant_values():
    assert from_short(F5, 1, 0).j_invariant() == F5.scalar(1728)
    assert from_short(F5, 0, 1).j_invariant().is_zero()
    assert WeierstrassCurve(F2, 1, 0, 0, 0, 1).j_invariant() == F2.one
    assert WeierstrassCurve(F3, 0, 1, 0, 0, -1).j_invariant() == F3.one
    E = WeierstrassCurve(F3, 0, 0, 0, 0, 0)
    assert not E.is_smooth()
    with pytest.raises(ValueError):
        E.j_invariant()


def test_base_change():
    E = WeierstrassCurve(F3, 0, 0, 0, -1, 0)
    E9 = E.base_change(F9)
    assert E9.ctx == F9
    assert all(gf.frobenius(c) == c for c in E9.coefficients)
    assert E9.j_invariant() == gf.subfield_embed(E.j_invariant(), F9)
    assert E9.point_count() == len(_naive_points(E9))
    with pytest.raises(ValueError):
        E.base_change(gf.field_create(3, 3)).base_change(F9)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 8), (3, 1), (3, 5), (5, 3), (1021, 1)])
@given(data=st.data())
def test_cached_invariants_match_the_formula_oracle(p, n, data):
    K = gf.field_create(p, n)
    E = WeierstrassCurve(
        K, *(K.from_canon(data.draw(st.integers(0, K.q - 1))) for _ in range(5)))
    want_disc, want_j = discriminant_oracle(E), j_invariant_oracle(E)
    for _ in range(2):  # computed, then cached
        assert E.discriminant() == want_disc
        assert E.is_smooth() == (want_j is not None)
        if want_j is None:
            with pytest.raises(ValueError):
                E.j_invariant()
        else:
            assert E.j_invariant() == want_j


def test_singular_j_invariant_raises_every_time():
    E = WeierstrassCurve(F5, 0, 0, 0, 0, 0)
    for _ in range(2):
        with pytest.raises(ValueError):
            E.j_invariant()
    assert E.discriminant().is_zero()


def test_base_change_to_own_field_is_identity():
    E = WeierstrassCurve(F9, 0, 1, 0, 0, 2)
    j = E.j_invariant()
    assert E.base_change(F9) is E
    assert E.base_change(E.ctx).j_invariant() is j


def test_from_short_conventions():
    Eo = from_short(F5, 2, 3)
    assert Eo.coefficients == (F5.zero, F5.zero, F5.zero, F5.scalar(2), F5.scalar(3))
    Ee = from_short(F2, 1, 1)
    assert Ee.coefficients == (F2.zero, F2.zero, F2.one, F2.one, F2.one)


def test_equality_and_hash():
    A = WeierstrassCurve(F3, 0, 0, 0, -1, 0)
    B = WeierstrassCurve(F3, 0, 0, 0, 2, 0)
    assert A == B and hash(A) == hash(B)
    assert A != WeierstrassCurve(F3, 0, 0, 0, 1, 0)
    assert A != WeierstrassCurve(F9, 0, 0, 0, 2, 0)
    assert "WeierstrassCurve" in repr(A) or "y" in repr(A)


def test_trace_consistency():
    for E in (WeierstrassCurve(F3, 0, 0, 0, -1, 0),
              WeierstrassCurve(F4, 0, 0, 1, 0, 0),
              from_short(F7, 1, 3)):
        assert E.trace_of_frobenius() == E.ctx.q + 1 - E.point_count()
        assert abs(E.trace_of_frobenius()) <= 2 * math.isqrt(4 * E.ctx.q) / 2


@pytest.mark.parametrize("p,n,coeffs", [
    (2, 8, (1, 1, 0, 0, 1)),
    (3, 5, (0, 1, 0, 0, 2)),
    (5, 3, (0, 0, 0, 1, 1)),
    (1021, 1, (0, 0, 0, 3, 7)),
])
def test_twisted_pair_counts_sum_to_2q_plus_2(p, n, coeffs):
    # a curve and its quadratic (Artin-Schreier for p = 2) twist have
    # traces of opposite sign, so N + N' = 2q + 2
    from twistlab import twists
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *coeffs)
    assert E.is_smooth()
    elements = gf.enumerate_field(K)
    if p == 2:
        d = next(x for x in elements if gf.absolute_trace(x) == 1)
        twin = twists.artin_schreier_twist(E, d)
    else:
        d = next(x for x in elements if not gf.is_square(x))
        twin = twists.quadratic_twist(E, d)
    N, N_twin = E.point_count(), twin.point_count()
    assert N + N_twin == 2 * K.q + 2
    assert (K.q + 1 - N) ** 2 <= 4 * K.q
    assert all(E.contains(P) for P in E.enumerate_points())


# every prime-power field with q <= 2^12 and n >= 2, every prime <= 101,
# and two larger primes
COUNT_FIELDS = (
    [(p, n) for p in range(2, 65) if gf.is_prime(p)
     for n in range(2, 13) if p ** n <= 1 << 12]
    + [(p, 1) for p in range(2, 102) if gf.is_prime(p)]
    + [(1021, 1), (4093, 1)]
)


def _singular_coefficients(K, rng):
    """A long equation singular at a random point (x0, y0): a1, a2, a3
    random, a1 nonzero; a4 and a6 solve F = dF/dx = 0 there, with dF/dy = 0
    fixing y0 (odd p) or x0 (p = 2)."""
    elem = lambda: K.from_canon(rng.randrange(K.q))
    a1 = K.from_canon(rng.randrange(1, K.q))
    a2, a3 = elem(), elem()
    if K.p == 2:
        x0, y0 = a3 / a1, elem()
    else:
        x0 = elem()
        y0 = -(a1 * x0 + a3) / 2
    a4 = a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0
    a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
    return a1, a2, a3, a4, a6


@pytest.mark.parametrize("p,n", COUNT_FIELDS, ids=lambda v: str(v))
def test_count_equals_the_exhaustive_listing(p, n, monkeypatch):
    # the count against the point list, on three equations: a1 and a3
    # nonzero; a1 = 0 (supersingular when p = 2); and a singular one.  From
    # q = curve._BSGS_MIN_Q up the smooth ones are counted by the search.
    # Both walks table the field, so it is a private copy: other tests
    # need some of these fields untabled.
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    K = gf.field_create(p, n)
    rng = random.Random(p ** n)
    unit = lambda: K.from_canon(rng.randrange(1, K.q))
    elem = lambda: K.from_canon(rng.randrange(K.q))
    equations = [
        (unit(), elem(), unit(), elem(), elem()),
        (K.zero, elem(), unit(), elem(), elem()),
        _singular_coefficients(K, rng),
    ]
    assert not WeierstrassCurve(K, *equations[2]).is_smooth()
    for coeffs in equations:
        # a fresh curve for each side, so neither reads a cached result
        listed = len(WeierstrassCurve(K, *coeffs).enumerate_points())
        assert WeierstrassCurve(K, *coeffs).point_count() == listed, coeffs


def _walk_counter(monkeypatch):
    walks = []
    walk = gf._walk_tables
    monkeypatch.setattr(gf, "_walk_tables", lambda ctx: walks.append(ctx) or walk(ctx))
    return walks


def _character_sum_count(E):
    """#E by the character sum, whatever the field size."""
    ctx = E.ctx
    gf._walk_tables(ctx)
    total = (curve._trace_character_sum(E) if ctx.p == 2
             else curve._quadratic_character_sum(E))
    return ctx.q + 1 + total


@pytest.mark.parametrize("p,n", [(2, 13), (3, 8), (8191, 1)], ids=lambda v: str(v))
def test_decided_count_builds_no_table_under_a_limit_below_q(p, n, monkeypatch):
    # above the threshold the baby-step giant-step search decides the count:
    # no walk, no table, no element list, and a limit below q is no obstacle
    monkeypatch.setattr(gf, "_CTX_CACHE", {})  # a field no other test has walked
    K = gf.field_create(p, n)
    assert K.q >= curve._BSGS_MIN_Q
    walks = _walk_counter(monkeypatch)
    E = WeierstrassCurve(K, 1, 0, 1, 2, 3)
    token = gf.LIMIT_OVERRIDE.set(K.q - 1)
    try:
        N = E.point_count()
    finally:
        gf.LIMIT_OVERRIDE.reset(token)
    assert walks == [] and K._log is None and K._elements is None
    # the count is cached: asking again, also through the trace of
    # Frobenius and supersingularity, searches nothing, even at limit 2
    monkeypatch.setattr(curve, "_bsgs_count", None)
    token = gf.LIMIT_OVERRIDE.set(2)
    try:
        assert E.point_count() == N
        assert E.trace_of_frobenius() == K.q + 1 - N
        assert E.is_supersingular() == (N % p == 1)
    finally:
        gf.LIMIT_OVERRIDE.reset(token)
    assert walks == []
    assert N == _character_sum_count(WeierstrassCurve(K, 1, 0, 1, 2, 3))


def test_search_holds_its_baby_steps_to_the_limit():
    # over GF(8191) the Hasse interval is 362 wide: 20 baby steps
    K = gf.field_create(8191)
    for limit, raises in ((19, True), (20, False)):
        token = gf.LIMIT_OVERRIDE.set(limit)
        try:
            E = WeierstrassCurve(K, 1, 0, 1, 2, 3)
            if raises:
                with pytest.raises(gf.LimitExceededError, match="20 baby steps"):
                    E.point_count()
            else:
                assert E.point_count() == curve._bsgs_count(E)
        finally:
            gf.LIMIT_OVERRIDE.reset(token)


# supersingular curves whose points, and their twins', leave several
# candidates in the Hasse interval
UNDECIDED = [(2, 10, (0, 0, 1, 0, 0)), (3, 8, (0, 0, 0, 2, 0))]


@pytest.mark.parametrize("p,n,coeffs", UNDECIDED, ids=lambda v: str(v))
def test_fallback_count_walks_once_under_the_limit_and_builds_no_element_list(
        p, n, coeffs, monkeypatch):
    monkeypatch.setattr(gf, "_CTX_CACHE", {})  # a field no other test has walked
    K = gf.field_create(p, n)
    assert K.q >= curve._BSGS_MIN_Q
    assert curve._bsgs_count(WeierstrassCurve(K, *coeffs)) is None
    token = gf.LIMIT_OVERRIDE.set(K.q - 1)
    try:
        with pytest.raises(gf.LimitExceededError):
            WeierstrassCurve(K, *coeffs).point_count()
    finally:
        gf.LIMIT_OVERRIDE.reset(token)
    walks = _walk_counter(monkeypatch)
    E = WeierstrassCurve(K, *coeffs)
    N = E.point_count()
    assert walks == [K] and K._log is not None and K._elements is None
    # the count is cached: asking again walks nothing, even over the limit
    token = gf.LIMIT_OVERRIDE.set(2)
    try:
        assert E.point_count() == N
        assert E.is_supersingular() and (N - K.q - 1) ** 2 <= 4 * K.q
    finally:
        gf.LIMIT_OVERRIDE.reset(token)
    assert walks == [K] and K._elements is None


# the fields of test_gf_properties.FIELDS with q <= 2^16, tabled in a cache
# of this module's own so that no other test meets their tables
ORACLE_FIELDS = sorted({(p, n) for p, n, _ in GF_FIELDS if p ** n <= 1 << 16})
_ORACLE_CACHE = {}


@pytest.mark.parametrize("p,n", ORACLE_FIELDS, ids=lambda v: str(v))
@given(data=st.data())
def test_search_decides_only_the_character_sum_count(p, n, data):
    # at every field size, the threshold aside: a decided count is the
    # character sum's, and an undecided curve gets None, never a guess
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_CTX_CACHE", _ORACLE_CACHE)
        K = gf.field_create(p, n)
    coeffs = [K.from_canon(data.draw(st.integers(0, K.q - 1))) for _ in range(5)]
    E = WeierstrassCurve(K, *coeffs)
    assume(E.is_smooth())
    N = _character_sum_count(E)
    assert curve._bsgs_count(E) in (None, N)
    # the search's twin is the quadratic twist
    twin = WeierstrassCurve(K, *curve._twin_coefficients(E))
    assert twin.is_smooth() and _character_sum_count(twin) == 2 * K.q + 2 - N


# curves whose own points leave several candidates, which points of the
# quadratic twist cut to one
TWIN_DECIDED = [(2, 12, (0, 0, 1, 0, 0)), (3, 8, (0, 0, 0, 1, 0)),
                (1031, 1, (1, 0, 1, 0, 1))]


@pytest.mark.parametrize("p,n,coeffs", TWIN_DECIDED, ids=lambda v: str(v))
def test_twin_points_decide_what_the_curve_points_leave_open(p, n, coeffs, monkeypatch):
    monkeypatch.setattr(gf, "_CTX_CACHE", {})  # the sum below tables the field
    K = gf.field_create(p, n)
    E = WeierstrassCurve(K, *coeffs)
    twins, twin = [], curve._twin_coefficients
    monkeypatch.setattr(curve, "_twin_coefficients", lambda E: twins.append(E) or twin(E))
    assert curve._bsgs_count(E) == _character_sum_count(E) and twins == [E]


def test_census_walks_each_class_once(monkeypatch, capsys):
    # census reports each class's point count and supersingularity: one walk
    walks = _walk_counter(monkeypatch)
    assert cli.main(["census", "--p", "2", "--n", "3", "--json"]) == 0
    count = len(json.loads(capsys.readouterr().out)["classes"])
    assert count > 1 and len(walks) == count
