"""Field arithmetic: axioms checked exhaustively for every q <= 81."""

import ast
import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from twistlab import gf

from oracles import is_irreducible, modulus_candidates, smallest_modulus

SMALL_FIELDS = [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 1), (3, 2), (3, 3), (3, 4),
    (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1),
]


def _tables(ctx):
    """Addition and multiplication Cayley tables indexed by canon."""
    els = gf.enumerate_field(ctx)
    q = ctx.q
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            add[i, j] = (a + b).canon
            mul[i, j] = (a * b).canon
    return add, mul


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, n):
    ctx = gf.field_create(p, n)
    q = ctx.q
    els = gf.enumerate_field(ctx)
    assert [e.canon for e in els] == list(range(q))
    add, mul = _tables(ctx)
    idx = np.arange(q)
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities: 0 has canon 0, 1 has canon 1
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    assert np.array_equal(mul[0], np.zeros(q, dtype=np.int64))
    # associativity via gather: (a+b)+c == a+(b+c), same for *
    for t in (add, mul):
        left = t[t.reshape(q, q, 1), idx.reshape(1, 1, q)]
        right = t[idx.reshape(q, 1, 1), t.reshape(1, q, q)]
        assert np.array_equal(left, right)
    # distributivity: a*(b+c) == a*b + a*c
    left = mul[idx.reshape(q, 1, 1), add.reshape(1, q, q)]
    right = add[mul.reshape(q, q, 1), mul[idx.reshape(q, 1, 1), idx.reshape(1, 1, q)]]
    assert np.array_equal(left, right)
    # additive inverses: every row of add is a permutation hitting 0
    assert np.array_equal(np.sort(add, axis=1), np.tile(idx, (q, 1)))
    # multiplicative inverses for nonzero rows
    assert all(1 in set(mul[i][1:]) for i in range(1, q))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (3, 3), (5, 2), (7, 1)])
def test_inverse_and_division(p, n):
    ctx = gf.field_create(p, n)
    for e in gf.enumerate_field(ctx)[1:]:
        assert e * e.inv() == ctx.one
        assert (ctx.one / e) == e.inv()
        assert (e / e) == ctx.one
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inv()


def test_scalar_and_element_coercion():
    F9 = gf.field_create(3, 2)
    assert F9.scalar(4) == F9.one
    assert F9.scalar(-1) + F9.one == F9.zero
    assert F9.element(2) == F9.scalar(2)
    assert F9.element([1, 2]).coeffs == (1, 2)
    with pytest.raises(ValueError):
        F9.element([1, 2, 0])
    F3 = gf.field_create(3)
    with pytest.raises(ValueError):
        F9.element(F3.one)
    e = F9.element([0, 1])
    assert e + 1 == F9.element([1, 1])
    assert e - 1 == F9.element([2, 1])
    assert (1 - e) == -(e - 1)
    assert e * 2 == e + e


def test_canonical_order_round_trip():
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        ctx = gf.field_create(p, n)
        for k, e in enumerate(gf.enumerate_field(ctx)):
            assert e.canon == k
            assert ctx.from_canon(k) == e
    with pytest.raises(ValueError):
        gf.field_create(3, 2).from_canon(9)


@pytest.mark.parametrize("p,n", [(2, 64), (3, 40), (5, 20), (1048573, 3)],
                         ids=lambda v: str(v))
def test_canonical_indices_round_trip_on_large_fields(p, n):
    # canonical ints, coefficient vectors and packed values agree on
    # fields far too large to enumerate, at both ends of the index range
    # and on random indices; digit-wise sums confirm the digits' slots
    ctx = gf.field_create(p, n)
    rng = random.Random(p * n)
    ks = [0, 1, p - 1, p, p ** (n - 1), ctx.q - 2, ctx.q - 1]
    ks += [rng.randrange(ctx.q) for _ in range(40)]
    for k, m in zip(ks, reversed(ks)):
        e, f = ctx.from_canon(k), ctx.from_canon(m)
        assert e.canon == k and e.coeffs == gf._digits(k, p, n)
        assert ctx.element(list(e.coeffs)) == e
        assert (e + f).coeffs == tuple((a + b) % p for a, b in zip(e.coeffs, f.coeffs))
        assert (e < f) == (k < m)


@pytest.mark.parametrize("p,n", [(7, 1), (2, 5), (3, 3), (5, 2)])
def test_elements_order_canonically(p, n):
    # `<` on elements of one field is the canonical order; elements of
    # two fields do not order
    ctx = gf.field_create(p, n)
    els = gf.enumerate_field(ctx)
    assert sorted(gf.enumerate_field(ctx)) == els
    assert sorted(reversed(els)) == els
    shuffled = list(els)
    random.Random(p * n).shuffle(shuffled)
    assert sorted(shuffled) == els
    assert min(shuffled) == ctx.zero and max(shuffled) == els[-1]
    other = gf.field_create(11).one
    with pytest.raises(TypeError):
        els[1] < other
    with pytest.raises(TypeError):
        sorted([other, els[1]])


_ENCODING_ATTRS = {"v", "_add", "_sub", "_neg", "_mul", "_inv", "_pow", "_radix"}


def test_no_module_outside_gf_reads_the_packed_encoding():
    # gf and gfkernels alone know how an element is stored: no other
    # module reads `.v`, names `FieldElem` or touches a kernel
    package = Path(gf.__file__).parent
    modules = [path for path in sorted(package.glob("*.py"))
               if path.name not in ("gf.py", "gfkernels.py")]
    assert "autmap.py" in {path.name for path in modules}
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, key, None) for key in ("attr", "id", "name")}
            if ("FieldElem" in names
                    or isinstance(node, ast.Attribute) and node.attr in _ENCODING_ATTRS):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_moduli_are_frozen():
    # ascending coefficients, leading 1 last; n = 1 is the polynomial x
    expected = {
        (2, 1): (0, 1),
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (2, 4): (1, 1, 0, 0, 1),
        (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 3): (1, 2, 0, 1),
        (3, 4): (2, 1, 0, 0, 1),
        (5, 2): (2, 0, 1),
        (7, 2): (1, 0, 1),
    }
    for (p, n), mod in expected.items():
        assert gf.field_create(p, n).modulus == mod


def _primes_below(m):
    sieve = bytearray([1]) * m
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(m - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, m, i)))
    return [i for i in range(m) if sieve[i]]


def test_moduli_match_oracle_up_to_2_16():
    primes = _primes_below(1 << 16)
    assert [m for m in range(1 << 16) if gf.is_prime(m)] == primes
    for p in primes:
        n = 1
        while p**n <= 1 << 16:
            assert gf.field_create(p, n).modulus == smallest_modulus(p, n), (p, n)
            n += 1


@pytest.mark.parametrize("p,n", [
    (2, 20), (2, 21), (2, 24), (2, 28), (2, 40), (3, 12), (3, 15), (3, 18),
    (7, 6), (1019, 2), (2039, 2),
])
def test_large_moduli_match_oracle(p, n):
    assert gf.field_create(p, n).modulus == smallest_modulus(p, n)


@pytest.mark.parametrize("p,top", [(2, 12), (3, 7), (5, 5), (7, 4)])
def test_is_field_matches_oracle_on_every_candidate(p, top):
    for n in range(2, top + 1):
        for cand in modulus_candidates(p, n):
            ctx = gf.FieldCtx(p, n, cand)
            assert gf._is_field(ctx) == is_irreducible(cand, p), cand


def test_is_field_rejects_split_product_of_divisor_degrees():
    # (x + 1)(x^2 + x + 1)(x^3 + x + 1) over GF(2): squarefree with factor
    # degrees 1, 2 and 3, all dividing 6, so X^63 = 1 holds in the ring and
    # only the condition at the primes of 6 rejects it
    ctx = gf.FieldCtx(2, 6, (1, 1, 0, 0, 1, 0, 1))
    assert ctx._pow(ctx._radix, ctx.q - 1) == 1  # the class of x
    assert not gf._is_field(ctx)


def test_is_field_rejects_split_product_of_divisor_degrees_odd_p():
    # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) over GF(3), the same split on the
    # packed kernel, whose powers stay packed: X^80 = 1 in the ring, and
    # only the condition at the prime 2 of 4 rejects it
    ctx = gf.FieldCtx(3, 4, (2, 0, 0, 0, 1))
    assert ctx._pow(ctx._radix, ctx.q - 1) == 1  # the class of x
    assert not gf._is_field(ctx)


def test_rejected_candidates_are_not_cached(monkeypatch):
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    ctx = gf.field_create(3, 6)
    assert gf._CTX_CACHE == {(3, 6): ctx}
    assert ctx.modulus == smallest_modulus(3, 6)
    assert gf.field_create(3, 6) is ctx


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_generator_is_smallest_primitive_element(p, n):
    ctx = gf.field_create(p, n)

    def order(e):
        k, cur = 1, e
        while cur != ctx.one:
            cur, k = cur * e, k + 1
        return k

    primitive = [e for e in gf.enumerate_field(ctx)[1:] if order(e) == ctx.q - 1]
    assert gf.generator(ctx) == primitive[0]


def test_generator_scan_from_p_matches_scan_from_one():
    # for n > 1 the scan skips the constants 1..p-1, whose orders divide
    # p - 1; the first generator must not move
    for p in _primes_below(1 << 12):
        n = 1
        while p**n <= 1 << 12:
            ctx = gf.field_create(p, n)
            qm1 = ctx.q - 1
            exponents = [qm1 // ell for ell in _primes_below(qm1 + 1) if qm1 % ell == 0]
            first = next(k for k in range(1, ctx.q)
                         if all(ctx.from_canon(k) ** x != 1 for x in exponents))
            assert gf.generator(ctx).canon == first, (p, n)
            n += 1


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
def test_pohlig_hellman_matches_the_log_table(p, n):
    # the oracle is a log table of brute-force powers of the generator
    ctx = gf.field_create(p, n)
    g, power, log = gf.generator(ctx), ctx.one, {}
    for k in range(ctx.q - 1):
        log[power] = k
        power = power * g
    assert all(gf._dlog(e) == k for e, k in log.items())


@pytest.mark.parametrize("p,n", [(2, 28), (2, 40), (3, 24), (2039, 2)])
def test_pohlig_hellman_on_untabled_fields(monkeypatch, p, n):
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    ctx = gf.field_create(p, n)
    g = gf.generator(ctx)
    rng = random.Random(p * 100 + n)
    for _ in range(6):
        e = ctx.from_canon(rng.randrange(1, ctx.q))
        assert g ** gf._dlog(e) == e
        for m in (2, 3, 8, 24):
            target = e ** m
            roots = gf.nth_roots(target, m)
            assert len(roots) == math.gcd(m, ctx.q - 1)
            assert e in roots
            assert all(x ** m == target for x in roots)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (3, 3), (5, 2)])
def test_frobenius(p, n):
    ctx = gf.field_create(p, n)
    for e in gf.enumerate_field(ctx):
        fr = gf.frobenius(e)
        assert fr == e ** p
        assert gf.frobenius(e, n) == e
    # additivity and multiplicativity spot-checked exhaustively on pairs
    els = gf.enumerate_field(ctx)
    for a in els:
        for b in els:
            assert gf.frobenius(a + b) == gf.frobenius(a) + gf.frobenius(b)
            assert gf.frobenius(a * b) == gf.frobenius(a) * gf.frobenius(b)


def test_frobenius_fixed_points_count_subfields():
    import math
    ctx = gf.field_create(2, 6)
    for m in range(1, 7):
        fixed = sum(1 for e in gf.enumerate_field(ctx) if gf.frobenius(e, m) == e)
        assert fixed == 2 ** math.gcd(m, 6)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (7, 1), (13, 1), (2, 4)])
def test_squares_and_sqrt(p, n):
    ctx = gf.field_create(p, n)
    squares = {(x * x).canon for x in gf.enumerate_field(ctx)}
    for e in gf.enumerate_field(ctx):
        if e.canon in squares:
            assert gf.is_square(e)
            r = gf.sqrt(e)
            assert r * r == e
        else:
            assert not gf.is_square(e)
            assert gf.sqrt(e) is None
    if p == 2:
        assert len(squares) == ctx.q
    else:
        assert len(squares) == (ctx.q + 1) // 2


# every field with q <= 256
FIELDS_TO_256 = sorted(((p, n) for p in range(2, 257) if gf.is_prime(p)
                        for n in range(1, 9) if p ** n <= 256), key=lambda f: f[0] ** f[1])


@pytest.mark.parametrize("p,n", FIELDS_TO_256)
def test_nth_roots_match_scan(p, n):
    # every e and every m in 1..13, q - 1 and q + 1: the roots are the
    # sorted x with x^m == e, by one scan of the field per m
    ctx = gf.field_create(p, n)
    els = gf.enumerate_field(ctx)
    for m in [*range(1, 14), ctx.q - 1, ctx.q + 1]:
        want = {e: [] for e in els}
        for x in els:
            want[x ** m].append(x)
        for e in els:
            assert gf.nth_roots(e, m) == want[e], (m, e)


def test_non_residue_takes_no_discrete_log(monkeypatch):
    # e^((q-1)/gcd(m, q-1)) != 1 decides "no root" before any log
    def no_log(e):
        raise AssertionError(f"discrete log of {e}")

    monkeypatch.setattr(gf, "_dlog", no_log)
    for (p, n), e, m in (((7, 1), 3, 2), ((13, 1), 2, 3), ((2, 4), [0, 1, 0, 0], 3),
                         ((3, 2), [0, 1], 4), ((1048573, 1), 2, 2)):
        ctx = gf.field_create(p, n)
        assert gf.nth_roots(ctx.element(e), m) == []
    with pytest.raises(AssertionError, match="discrete log"):
        gf.nth_roots(gf.field_create(7, 1).scalar(2), 2)  # 2 = 3^2 has roots


@pytest.mark.parametrize("p,n,k", [(3, 2, 1), (2, 3, 1), (2, 3, 2), (3, 1, 1), (2, 4, 2)])
def test_linearized_roots_match_scan(p, n, k):
    # roots of x^(p^k) + a*x = rhs, exhaustively over all (a, rhs)
    ctx = gf.field_create(p, n)
    els = gf.enumerate_field(ctx)
    power = p ** k
    for a in els:
        for rhs in els:
            want = sorted(x.canon for x in els if x ** power + a * x == rhs)
            got = sorted(x.canon for x in gf.linearized_roots(a, rhs, k))
            assert got == want, (p, n, k, a.canon, rhs.canon)


def test_linearized_roots_solve_artin_schreier():
    # a = -1: the Artin-Schreier equation x^p - x = c
    for p, n in itertools.product((2, 3), (1, 2, 3, 4)):
        ctx = gf.field_create(p, n)
        minus_one = ctx.scalar(-1)
        for c in gf.enumerate_field(ctx):
            want = [x.canon for x in gf.enumerate_field(ctx) if x ** p - x == c]
            got = [x.canon for x in gf.linearized_roots(minus_one, c)]
            assert got == want
            # solvable exactly when the absolute trace vanishes
            assert bool(want) == (gf.absolute_trace(c) == 0)


SMALL_FIELDS = [(p, n) for p in range(2, 82) if gf.is_prime(p)
                for n in range(1, 7) if p ** n <= 81]


@pytest.mark.parametrize("p,n", SMALL_FIELDS, ids=lambda v: str(v))
def test_echelon_reduces_to_the_coset_minimum(p, n):
    # for f(x) = x^(p^k) + a x: reduce(v) is the least v - f(x) with an x
    # reaching it, residues() the least element of every coset of the
    # image, and kernel_coset(0) the kernel; all on field elements
    ctx = gf.field_create(p, n)
    els = gf.enumerate_field(ctx)
    for k in ((1, 2) if n > 1 else (1,)):
        for a in els:
            f = {x: gf.frobenius(x, k) + a * x for x in els}
            image = set(f.values())
            ech = gf.linearized_echelon(a, k)
            least = set()
            for v in els:
                residue, x = ech.reduce(v)
                assert residue == min(v - w for w in image), (k, a, v)
                assert v - f[x] == residue, (k, a, v)
                least.add(residue)
            assert ech.residues() == sorted(least), (k, a)
            assert ech.kernel_coset(ctx.zero) == [x for x in els if not f[x]], (k, a)
            # roots(v) is the full preimage of v, ascending
            preimages = {}
            for x in els:
                preimages.setdefault(f[x], []).append(x)
            for v in els:
                assert ech.roots(v) == preimages.get(v, []), (k, a, v)


def test_kernel_coset_takes_p_products_per_kernel_vector(monkeypatch):
    # x^27 - x on a fresh GF(3^6): its kernel is the copy of GF(27),
    # three basis vectors and a coset of 27 elements
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    ctx = gf.field_create(3, 6)
    ech = gf.linearized_echelon(ctx.scalar(-1), 3)
    assert len(ech.kernel) == 3
    calls, mul = [0], ctx._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(ctx, "_mul", counted)
    coset = ech.kernel_coset(ctx.zero)
    assert calls[0] <= ctx.p * len(ech.kernel)
    copy = (ctx.from_canon(k) for k in range(ctx.q))
    assert coset == sorted(x for x in copy if gf.frobenius(x, 3) == x)


def test_echelon_roots_reject_mixed_fields():
    ech = gf.linearized_echelon(gf.field_create(2, 3).one)
    for solve in (ech.roots, ech.reduce):
        with pytest.raises(ValueError, match="mixed fields"):
            solve(gf.field_create(2, 4).one)


def test_trivial_log_builds_no_baby_step_table(monkeypatch):
    # p - 1 = 2 * l with l a 40-bit prime: a baby-step table for l would
    # take about 2^20 products, but the log of 1 is 0 at every prime
    F = gf.field_create(2199023255867)
    assert sorted(F._unit_factors) == [2, (F.p - 1) // 2]
    calls, mul = [0], F._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(F, "_mul", counted)
    assert gf.nth_roots(F.one, 2) == [F.one, F.scalar(-1)]
    assert calls[0] < 1000
    monkeypatch.undo()
    assert F._mul is mul


def test_second_log_builds_no_baby_step_table(monkeypatch):
    # 5^13 - 1 = 4 * l with l = 305,175,781 prime: the baby-step table for l
    # takes about sqrt(l) ~ 17,500 products, once per field; the logs
    # below are small, so they take no giant step
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    F = gf.field_create(5, 13)
    ell = (F.q - 1) // 4
    assert sorted(F._unit_factors) == [2, ell]
    g = gf.generator(F)
    calls, mul = [0], F._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(F, "_mul", counted)
    for k, least in ((2, math.isqrt(ell)), (6, 0)):
        calls[0] = 0
        roots = gf.nth_roots(g ** k, 2)
        assert least <= calls[0] < least + 1000
        half = g ** (k // 2)
        assert set(roots) == {half, -half}
    assert sorted(F._dlog_steps) == [2, ell]


def test_absolute_trace():
    for p, n in [(2, 4), (3, 3), (5, 2)]:
        ctx = gf.field_create(p, n)
        values = set()
        for e in gf.enumerate_field(ctx):
            tr = gf.absolute_trace(e)
            assert isinstance(tr, int) and 0 <= tr < p
            conj = ctx.zero
            for k in range(n):
                conj = conj + gf.frobenius(e, k)
            assert ctx.scalar(tr) == conj  # sum of conjugates lands in GF(p)
            values.add(tr)
        assert values == set(range(p))  # trace is onto


def test_embeddings_are_homomorphic_and_tower_consistent():
    F2 = gf.field_create(2)
    F4 = gf.field_create(2, 2)
    F16 = gf.field_create(2, 4)
    for a in gf.enumerate_field(F4):
        for b in gf.enumerate_field(F4):
            assert gf.subfield_embed(a + b, F16) == (
                gf.subfield_embed(a, F16) + gf.subfield_embed(b, F16))
            assert gf.subfield_embed(a * b, F16) == (
                gf.subfield_embed(a, F16) * gf.subfield_embed(b, F16))
    # tower consistency: F2 -> F4 -> F16 equals F2 -> F16
    for e in gf.enumerate_field(F2):
        via = gf.subfield_embed(gf.subfield_embed(e, F4), F16)
        assert via == gf.subfield_embed(e, F16)
    F3, F9, F81 = gf.field_create(3), gf.field_create(3, 2), gf.field_create(3, 4)
    for e in gf.enumerate_field(F9):
        image = gf.subfield_embed(e, F81)
        # the image lies in the fixed field of Frobenius^2
        assert gf.frobenius(image, 2) == image
    with pytest.raises(ValueError):
        gf.subfield_embed(F9.one, gf.field_create(3, 3))
    with pytest.raises(ValueError):
        gf.subfield_embed(F4.one, F9)


def test_injective_embeddings():
    F9 = gf.field_create(3, 2)
    F81 = gf.field_create(3, 4)
    images = {gf.subfield_embed(e, F81).canon for e in gf.enumerate_field(F9)}
    assert len(images) == 9


def test_element_str_round_trip():
    for p, n in [(3, 2), (2, 4), (7, 1)]:
        ctx = gf.field_create(p, n)
        for e in gf.enumerate_field(ctx):
            s = gf.element_to_str(e)
            assert gf.element_from_str(s, ctx) == e
    assert gf.element_to_str(gf.field_create(7).scalar(3)) == "3"
    assert gf.element_to_str(gf.field_create(3, 2).element([0, 1])) == "3^2:0,1"
    with pytest.raises(ValueError):
        gf.element_from_str("5", None)
    with pytest.raises(ValueError):
        gf.element_from_str("3^2:0,1", gf.field_create(3))


@pytest.mark.parametrize("p,n", [
    (2, 1), (2, 2), (2, 5), (2, 8), (2, 20), (2, 40), (3, 1), (3, 2), (3, 7),
    (3, 12), (5, 9), (7, 6), (1019, 2), (23, 3),
], ids=lambda v: str(v))
def test_trace_form_is_the_sum_of_conjugates(p, n):
    # Newton's identities against n Frobenius powers, on the basis and on
    # random elements, also of fields too large to enumerate
    ctx = gf.field_create(p, n)

    def conjugate_sum(e):
        acc = ctx.zero
        for k in range(n):
            acc = acc + gf.frobenius(e, k)
        assert acc.v < p  # the sum lands in GF(p)
        return acc.v

    form = gf._trace_form(ctx)
    assert form == tuple(conjugate_sum(ctx.from_canon(p ** i)) for i in range(n))
    rng = random.Random(p ** n)
    for _ in range(20):
        e = ctx.from_canon(rng.randrange(ctx.q))
        assert gf.absolute_trace(e) == conjugate_sum(e)


def test_limits(monkeypatch):
    # the limit bounds walks, not field sizes
    monkeypatch.delenv(gf.LIMIT_ENV_VAR, raising=False)
    assert gf.working_limit() == gf.DEFAULT_LIMIT
    big = gf.field_create(2, 23)
    with pytest.raises(gf.LimitExceededError):
        gf.enumerate_field(big)
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "100")
    assert gf.working_limit() == 100
    # checked on every call, also once the field has been enumerated
    small = gf.field_create(11, 2)
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "121")
    assert len(gf.enumerate_field(small)) == 121
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "100")
    with pytest.raises(gf.LimitExceededError):
        gf.enumerate_field(small)
    # trial division stops past the limit only while a cofactor remains
    assert gf._factorize(10007) == {10007: 1}
    with pytest.raises(gf.LimitExceededError):
        gf._factorize(101 * 103)
    with pytest.raises(gf.LimitExceededError):
        gf.field_create(2, 61)  # 2^61 - 1 is prime
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "bogus")
    with pytest.raises(ValueError):
        gf.working_limit()
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "1")
    with pytest.raises(ValueError):
        gf.working_limit()


def test_large_prime_is_refused_before_it_is_tested(monkeypatch):
    # the primality test of p is trial division, so it too stops at the limit
    monkeypatch.delenv(gf.LIMIT_ENV_VAR, raising=False)
    start = time.perf_counter()
    with pytest.raises(gf.LimitExceededError):
        gf.field_create(10**18 + 3)
    assert time.perf_counter() - start < 5


def test_embedding_walks_count_against_the_limit(monkeypatch):
    K = gf.field_create(3, 6)
    x = gf.field_create(3, 3).gen()
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "26")
    monkeypatch.setattr(K, "_embed_cache", {})
    with pytest.raises(gf.LimitExceededError):
        gf.subfield_embed(x, K)
    monkeypatch.setenv(gf.LIMIT_ENV_VAR, "27")
    root = gf.subfield_embed(x, K)
    modulus = gf.field_create(3, 3).modulus
    assert sum(c * root**i for i, c in enumerate(modulus)) == K.zero


def test_field_create_errors():
    with pytest.raises(ValueError):
        gf.field_create(4)
    with pytest.raises(ValueError):
        gf.field_create(2, 0)
    with pytest.raises(ValueError):
        gf.field_create(2.0)


def test_cache_hit_skips_the_primality_test(monkeypatch):
    F9 = gf.field_create(3, 2)

    def unreachable(m):
        pytest.fail("a cached field was tested for primality")

    monkeypatch.setattr(gf, "is_prime", unreachable)
    assert gf.field_create(3, 2) is F9
    # a float never reaches the cache, where (2.0, 1) would hit (2, 1)
    with pytest.raises(ValueError):
        gf.field_create(2.0)


def test_context_identity_and_cache():
    a = gf.field_create(3, 2)
    b = gf.field_create(3, 2)
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert a != gf.field_create(3)
