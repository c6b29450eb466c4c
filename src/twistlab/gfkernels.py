"""Kernels on canonical ints behind `twistlab.gf`, one set per kind of field.

Each `*_kernels(ctx)` function fills a context's `_add`, `_sub`, `_neg`,
`_mul`, `_inv`, `_pow` and `_powers` (see `gf.FieldCtx`).  `table_kernels`
builds a field's exp/log tables from `_powers` once it has been enumerated
and, for n > 1, moves its products, inverses and powers onto lookups.  The
module docstring of `twistlab.gf` describes the encoding and when each set
is used.
"""

from array import array


def _square_and_multiply(mul):
    def power(a, e):
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return r
    return power


def _iterated_powers(mul):
    def powers(g, count):
        cur = 1
        for _ in range(count):
            yield cur
            cur = mul(cur, g)
    return powers


def prime_kernels(ctx):
    p = ctx.p
    ctx._add = lambda a, b: (a + b) % p
    ctx._sub = lambda a, b: (a - b) % p
    ctx._neg = lambda a: -a % p
    ctx._mul = lambda a, b: a * b % p
    ctx._inv = lambda a: pow(a, -1, p)
    ctx._pow = lambda a, e: pow(a, e, p)
    ctx._powers = _iterated_powers(ctx._mul)


def binary_kernels(ctx):
    n = ctx.n
    reduce_by = sum(c << i for i, c in enumerate(ctx.modulus))
    top = 1 << n

    def mul(a, b):
        if a < b:
            a, b = b, a
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= reduce_by
        return r

    power = _square_and_multiply(mul)
    qm2 = ctx.q - 2
    ctx._add = ctx._sub = int.__xor__
    ctx._neg = lambda a: a
    ctx._mul = mul
    ctx._inv = lambda a: power(a, qm2)
    ctx._pow = power
    ctx._powers = _iterated_powers(mul)


def packed_kernels(ctx):
    """Kronecker-substitution kernels for odd p and n > 1.

    An element's digits go into slots of w bits.  A product of two packed
    elements holds the product polynomial's coefficients slot by slot;
    folding its high slots by g, where x^n = g(x) mod the modulus, brings
    it down to n slots.  Every slot stays below 2^h, which sets w so that
    one multiplication by m = ceil(2^k / p) and a shift by k give each
    slot's quotient by p without spilling into its neighbours.  Chunks of
    c digits move between the canonical int and the packed form through
    two p^c-entry lookups.  Sums and differences skip the packing and go
    digit by digit (`_digitwise_kernels`).

    A reduced product is again a packed element, so a power packs its
    base once, squares and multiplies on packed ints, and unpacks once;
    `_powers` keeps the running power packed and unpacks each entry.  A
    constant base stays in GF(p) and takes the built-in `pow`.
    """
    p, n = ctx.p, ctx.n
    g = [(-c) % p for c in ctx.modulus[:n]]
    deg_g = max(i for i, c in enumerate(g) if c)
    bound, top = n * (p - 1) ** 2, 2 * n - 2
    while top >= n:
        bound += bound * sum(g)
        top += deg_g - n
    h = bound.bit_length()
    k = h + p.bit_length()
    w = k + h + 1
    m = -(-(1 << k) // p)
    ones = sum(1 << (w * i) for i in range(n))
    quotient_mask = ((1 << h) - 1) * ones
    low_bits = w * n
    low_mask = (1 << low_bits) - 1
    folded = sum(c << (w * i) for i, c in enumerate(g))
    c = 1
    while c < n and p ** (c + 1) <= 256:
        c += 1
    chunk, chunk_bits = p**c, w * c
    chunk_mask = (1 << chunk_bits) - 1
    if c == 1:
        spread = gather = range(p)
    else:
        spread = [0]
        for i in range(c):
            spread = [s + (d << (w * i)) for d in range(p) for s in spread]
        gather = {s: v for v, s in enumerate(spread)}

    def pack(v):
        s, shift = 0, 0
        while v:
            v, d = divmod(v, chunk)
            s |= spread[d] << shift
            shift += chunk_bits
        return s

    def unpack(s):
        """The canonical int of a packed element whose slots are below p."""
        v, place = 0, 1
        while s:
            v += gather[s & chunk_mask] * place
            s >>= chunk_bits
            place *= chunk
        return v

    def product(s, t):
        """The packed product of two packed elements: fold, then every slot
        (each below 2^h) mod p."""
        s *= t
        while s >> low_bits:
            s = (s & low_mask) + (s >> low_bits) * folded
        return s - (((s * m) >> k) & quotient_mask) * p

    def mul(a, b):
        if a < p:  # a constant packs to itself
            return unpack(product(pack(b), a))
        return unpack(product(pack(a), b if b < p else pack(b)))

    packed_power = _square_and_multiply(product)

    def power(a, e):
        if a < p:
            return pow(a, e, p)
        return unpack(packed_power(pack(a), e))

    def powers(g, count):
        s, t = 1, pack(g)
        for _ in range(count):
            yield unpack(s)
            s = product(s, t)

    qm2 = ctx.q - 2
    add, sub = _digitwise_kernels(p)
    ctx._add, ctx._sub = add, sub
    ctx._neg = lambda a: sub(0, a)
    ctx._mul = mul
    ctx._inv = lambda a: power(a, qm2)
    ctx._pow = power
    ctx._powers = powers


_DIGITWISE = {}


def _digitwise_kernels(p):
    """Digit-wise sum and difference of canonical ints over GF(p), per p.

    For p <= 7 the digits go c >= 2 at a time (P = p^c, P^2 <= 4096)
    through one P^2-entry table for sums and one for differences; larger
    p go one digit at a time.  The kernels do not depend on n, so every
    GF(p^n) shares them.
    """
    kernels = _DIGITWISE.get(p)
    if kernels is not None:
        return kernels
    c = 1
    while p ** (2 * c + 2) <= 4096:
        c += 1
    if c == 1:
        def add(a, b):
            r, place = 0, 1
            while a or b:
                d = a % p + b % p
                r += (d - p if d >= p else d) * place
                a //= p
                b //= p
                place *= p
            return r

        def sub(a, b):
            r, place = 0, 1
            while a or b:
                d = a % p - b % p
                r += (d + p if d < 0 else d) * place
                a //= p
                b //= p
                place *= p
            return r
    else:
        P = p**c
        add = _chunk_op(_digit_table(p, c, 1), P)
        sub = _chunk_op(_digit_table(p, c, -1), P)
    _DIGITWISE[p] = add, sub
    return add, sub


def _digit_table(p, c, sign):
    """t[x * p^c + y] = digit-wise x + sign * y mod p, for c-digit x and y."""
    table, size = [0], 1
    for _ in range(c):
        # the new lowest digits (xl, yl) go under the previous table's (xh, yh)
        table = [(xl + sign * yl) % p + p * table[xh * size + yh]
                 for xh in range(size) for xl in range(p)
                 for yh in range(size) for yl in range(p)]
        size *= p
    return table


def _chunk_op(table, P):
    def op(a, b):
        r, place = 0, 1
        while a or b:
            r += table[a % P * P + b % P] * place
            a //= P
            b //= P
            place *= P
        return r
    return op


def table_kernels(ctx, g):
    """Exp/log tables over the generator g, and the table kernels.

    exp is read off the context's own `_powers(g, q - 1)`, then repeated
    once: it has 2(q - 1) entries, so a sum of two logs needs no
    reduction.  Prime fields keep their native kernels and use the tables
    for roots.  For odd p, sums, differences and negation go through Zech
    logs.
    """
    p, q = ctx.p, ctx.q
    qm1 = q - 1
    exp = array("i", ctx._powers(g, qm1))
    log = array("i", [0]) * q
    for i, v in enumerate(exp):
        log[v] = i
    exp *= 2
    ctx._exp, ctx._log = exp, log
    if ctx.n == 1:
        return

    def mul(a, b):
        if a and b:
            return exp[log[a] + log[b]]
        return 0

    ctx._mul = mul
    ctx._inv = lambda a: exp[qm1 - log[a]]
    ctx._pow = lambda a, e: exp[log[a] * e % qm1]
    if p == 2:
        return
    # zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0
    zech = array("i", [0]) * qm1
    for i in range(qm1):
        v = exp[i]
        v = v + 1 if v % p != p - 1 else v - (p - 1)
        zech[i] = log[v] if v else -1
    half = qm1 // 2

    def add_logs(la, lb):
        z = zech[(lb - la) % qm1]
        return exp[la + z] if z >= 0 else 0

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        return add_logs(log[a], log[b])

    def sub(a, b):
        if not b:
            return a
        if not a:
            return exp[log[b] + half]
        return add_logs(log[a], log[b] + half)

    ctx._add = add
    ctx._sub = sub
    ctx._neg = lambda a: exp[log[a] + half] if a else 0
