"""Field kernels against the schoolbook oracle, beyond the q <= 81 axiom suite.

Each field runs either with its exp/log tables (built by enumerating it)
or without them, so both root paths are checked, and the element kernels
with the tables present and absent.  The untabled GF(3^30), GF(5^15) and
GF(2^28), the largest binary field of an automorphism group in the
benchmark's `classify` workload, give the packed kernel many slots, and
so powers that stay packed over long exponents.
An untabled field comes from a cache private to this module, so a walk of
the same field by another test cannot table it.
"""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from oracles import schoolbook_mul, schoolbook_pow
from twistlab import gf
from twistlab.curve import WeierstrassCurve

# (p, n, tabled)
FIELDS = [
    (2, 1, True), (3, 1, True), (1019, 1, True), (16381, 1, False),
    (2, 8, True), (3, 7, True), (5, 4, True),
    (2, 20, False), (3, 12, False), (1019, 2, False), (23, 2, False),
    (11, 3, False), (7, 6, False), (3, 30, False), (5, 15, False),
    (2, 28, False),
]
IDS = [f"{p}^{n}{'' if tabled else '-free'}" for p, n, tabled in FIELDS]


_UNTABLED = {}


def _field(p, n, tabled):
    if tabled:
        ctx = gf.field_create(p, n)
        gf.enumerate_field(ctx)
    else:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "_CTX_CACHE", _UNTABLED)
            ctx = gf.field_create(p, n)
    assert (ctx._log is not None) == tabled
    return ctx


def _digitwise(a, b, p, sign=1):
    return tuple((x + sign * y) % p for x, y in zip(a, b))


@pytest.mark.parametrize("p,n,tabled", FIELDS, ids=IDS)
@given(data=st.data())
def test_ring_operations_match_oracle(p, n, tabled, data):
    ctx = _field(p, n, tabled)
    a, b = (ctx.from_canon(data.draw(st.integers(0, ctx.q - 1))) for _ in range(2))
    assert (a * b).coeffs == schoolbook_mul(a.coeffs, b.coeffs, ctx)
    c = ctx.scalar(data.draw(st.integers(0, p - 1)))
    assert (a * c).coeffs == (c * a).coeffs == schoolbook_mul(a.coeffs, c.coeffs, ctx)
    assert (a + b).coeffs == _digitwise(a.coeffs, b.coeffs, p)
    assert (a - b).coeffs == _digitwise(a.coeffs, b.coeffs, p, -1)
    assert (-a).coeffs == _digitwise((0,) * n, a.coeffs, p, -1)
    k = data.draw(st.integers(0, 3 * ctx.q))
    assert (a ** k).coeffs == schoolbook_pow(a.coeffs, k, ctx)
    assert (c ** k).coeffs == schoolbook_pow(c.coeffs, k, ctx)
    if a:
        assert schoolbook_mul(a.coeffs, a.inv().coeffs, ctx) == ctx.one.coeffs
        assert (b / a).coeffs == schoolbook_mul(b.coeffs, a.inv().coeffs, ctx)


@pytest.mark.parametrize("p,n,tabled", FIELDS, ids=IDS)
@given(data=st.data())
def test_roots_match_oracle(p, n, tabled, data):
    ctx = _field(p, n, tabled)
    e = ctx.from_canon(data.draw(st.integers(1, ctx.q - 1)))
    qm1 = ctx.q - 1
    square = p == 2 or schoolbook_pow(e.coeffs, qm1 // 2, ctx) == ctx.one.coeffs
    assert gf.is_square(e) == square
    r = gf.sqrt(e)
    if square:
        assert schoolbook_mul(r.coeffs, r.coeffs, ctx) == e.coeffs
        assert r.canon <= (-r).canon
    else:
        assert r is None
    m = data.draw(st.sampled_from([2, 3, 4, 6, 8, 12]))
    d = math.gcd(m, qm1)
    roots = gf.nth_roots(e, m)
    is_power = schoolbook_pow(e.coeffs, qm1 // d, ctx) == ctx.one.coeffs
    assert len(roots) == (d if is_power else 0)
    assert [x.canon for x in roots] == sorted({x.canon for x in roots})
    for x in roots:
        assert schoolbook_pow(x.coeffs, m, ctx) == e.coeffs


@pytest.mark.parametrize("p,n", [(1019, 1), (2, 8), (3, 7)],
                         ids=["prime", "binary", "packed"])
def test_powers_are_the_iterated_products(p, n):
    # the exp table, written by a walk that keeps its power packed, lists
    # the canonical ints of the generator's powers, twice over
    ctx = _field(p, n, True)
    g, cur, want = gf.generator(ctx), ctx.one, []
    for _ in range(ctx.q - 1):
        want.append(cur.canon)
        cur = cur * g
    assert cur == ctx.one
    assert list(ctx._exp) == want * 2


def _count_over_extension(coeffs, p, n):
    """#E(GF(p^n)) for E over GF(p): a brute count over GF(p), then the
    trace recurrence s_k = t*s_(k-1) - p*s_(k-2) of the Frobenius powers."""
    a1, a2, a3, a4, a6 = coeffs
    affine = sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
                 for x in range(p) for y in range(p))
    t = p - affine  # p + 1 - #E(GF(p))
    s = [2, t]
    while len(s) <= n:
        s.append(t * s[-1] - p * s[-2])
    return p**n + 1 - s[n]


@pytest.mark.parametrize("p,n", [(2, 9), (3, 5), (5, 4)])
def test_elements_keep_their_meaning_across_the_table_build(p, n):
    # elements made before the first walk of their field give the same
    # results after it, through Pohlig-Hellman before and the log table
    # after; the tables never change what an element's value means
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_CTX_CACHE", {})
        ctx = gf.field_create(p, n)
    rng = random.Random(p**n)
    a, b = (ctx.from_canon(rng.randrange(1, ctx.q)) for _ in range(2))
    small = (1, 0, 1, 1, 1) if p == 2 else (0, 0, 0, 1, 1)
    E = WeierstrassCurve(ctx, *small)
    F = WeierstrassCurve(ctx, *(ctx.from_canon(rng.randrange(ctx.q)) for _ in range(5)))

    def results():
        return ((a * b).coeffs, (a + b).coeffs, (a - b).coeffs, (-a).coeffs,
                (3 * a).coeffs, (a ** 1000).coeffs, a.inv().coeffs, (b / a).coeffs,
                [[r.coeffs for r in gf.nth_roots(a ** 6, m)] for m in (2, 3, 6)])

    before = results()
    assert ctx._log is None
    gf.enumerate_field(ctx)
    assert ctx._log is not None
    assert results() == before
    assert E.point_count() == _count_over_extension(small, p, n)
    assert F.is_smooth() and F.point_count() == len(F.enumerate_points())


def test_hash_agrees_with_int_equality():
    F5, F9 = gf.field_create(5), gf.field_create(3, 2)
    for ctx in (F5, F9):
        for k in range(ctx.p):
            e = ctx.scalar(k)
            assert e == k and hash(e) == hash(k)
    assert {F5.scalar(3): "three"}[3] == "three"
    # ints outside [0, p) compare after reduction mod p
    assert F5.scalar(3) == 8 and F5.scalar(3) == -2


def test_import_creates_no_field_and_no_table():
    code = (
        "import twistlab, twistlab.cli\n"
        "from twistlab import gf, gfkernels\n"
        "assert not gf._CTX_CACHE\n"
        "assert all(callable(v) or k.startswith('__')\n"
        "           for k, v in vars(gfkernels).items())  # no module-level table\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
