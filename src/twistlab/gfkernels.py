"""Kernels behind `twistlab.gf`, one set per kind of field.

Each `*_kernels(ctx)` function fills a context's element kernels `_add`,
`_sub`, `_neg`, `_mul`, `_inv` and `_pow`, which work on the values that
`FieldElem`s store, and its encoding: `_radix`, `_pack` and `_unpack`
(see `gf.FieldCtx`).  Only `twistlab.gf` calls them.  The module
docstring of `twistlab.gf` describes the encoding and when each set is
used.
"""


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


def prime_kernels(ctx):
    """Native int arithmetic mod p; an element is its residue."""
    p = ctx.p
    ctx._radix, ctx._pack, ctx._unpack = p, int, int
    ctx._add = lambda a, b: (a + b) % p
    ctx._sub = lambda a, b: (a - b) % p
    ctx._neg = lambda a: -a % p
    ctx._mul = lambda a, b: a * b % p
    ctx._inv = lambda a: pow(a, -1, p)
    ctx._pow = lambda a, e: pow(a, e, p)


def packed_kernels(ctx):
    """Kronecker-substitution kernels for n > 1, p = 2 and odd p alike.

    An element is its packed int: digit i in the slot of w bits at bit
    w*i.  A product of two packed elements is one int multiply, which
    holds the product polynomial's coefficients slot by slot; folding its
    high slots by g, where x^n = g(x) mod the modulus, brings it down to
    n slots, every slot below 2^h.  Then every slot is reduced mod p at
    once.  For p = 2 that is a mask of each slot's low bit.  For odd p,
    w is wide enough that one multiplication by m = ceil(2^k / p) and a
    shift by k give each slot's quotient by p without spilling into its
    neighbours.  A sum is one slot-wise add and the same reduction (XOR
    for p = 2); a difference adds p to every slot first.  A constant
    packs to itself, and a constant base takes the built-in `pow`.

    `_pack` and `_unpack` convert canonical ints, c digits at a time
    through two p^c-entry lookups built on first use.
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
    w = h if p == 2 else k + h + 1
    ones = sum(1 << (w * i) for i in range(n))
    low_bits = w * n
    low_mask = (1 << low_bits) - 1
    folded = sum(c << (w * i) for i, c in enumerate(g))

    m = -(-(1 << k) // p)
    quotient_mask = ((1 << h) - 1) * ones

    def reduce(s):
        """Every slot (each below 2^h) mod p, for odd p."""
        return s - (((s * m) >> k) & quotient_mask) * p

    def mul(s, t):
        s *= t
        high = s >> low_bits
        while high:
            s = (s & low_mask) + high * folded
            high = s >> low_bits
        if p == 2:  # each slot's low bit
            return s & ones
        # reduce(s), written out: a call would cost about a tenth of a product
        return s - (((s * m) >> k) & quotient_mask) * p

    power = _square_and_multiply(mul)

    def pow_(a, e):
        if a < p:
            return pow(a, e, p)
        return power(a, e)

    c = 1
    while c < n and p ** (c + 1) <= 256:
        c += 1
    chunk, chunk_bits = p**c, w * c
    chunk_mask = (1 << chunk_bits) - 1
    spread = gather = None

    def build_tables():
        """spread[d] is the chunk of c digits d packed, gather its inverse.
        Built on first use: a rejected modulus candidate never converts."""
        nonlocal spread, gather
        if c == 1:  # a digit packs to itself, and p may be large
            spread = gather = range(p)
            return
        spread = [0]
        for i in range(c):
            spread = [s + (d << (w * i)) for d in range(p) for s in spread]
        gather = {s: v for v, s in enumerate(spread)}

    def pack(v):
        if spread is None:
            build_tables()
        s, shift = 0, 0
        while v:
            v, d = divmod(v, chunk)
            s |= spread[d] << shift
            shift += chunk_bits
        return s

    def unpack(s):
        if gather is None:
            build_tables()
        v, place = 0, 1
        while s:
            v += gather[s & chunk_mask] * place
            s >>= chunk_bits
            place *= chunk
        return v

    qm2 = ctx.q - 2
    if p == 2:
        ctx._add = ctx._sub = int.__xor__
        ctx._neg = lambda a: a
    else:
        p_ones = p * ones
        ctx._add = lambda a, b: reduce(a + b)
        ctx._sub = lambda a, b: reduce(a + p_ones - b)
        ctx._neg = lambda a: reduce(p_ones - a)
    ctx._mul = mul
    ctx._inv = lambda a: power(a, qm2)
    ctx._pow = pow_
    ctx._radix, ctx._pack, ctx._unpack = 1 << w, pack, unpack

