"""Kernels behind `twistlab.gf`, one set per kind of field.

Each `*_kernels(ctx)` function fills a context's element kernels `_add`,
`_sub`, `_neg`, `_mul`, `_inv` and `_pow`, which work on the packed values
that `FieldElem`s store, and its `_radix`, the radix of the packed digits
(see `gf.FieldCtx`).  This module holds packed arithmetic only: it never
sees a canonical index, which `twistlab.gf` alone converts.  Only
`twistlab.gf` calls these functions.  The module docstring of
`twistlab.gf` describes the encoding and when each set is used.
"""


def prime_kernels(ctx):
    """Native int arithmetic mod p; an element is its residue."""
    p = ctx.p
    ctx._radix = p
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

    def power(a, e):
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return r

    def pow_(a, e):
        if a < p:
            return pow(a, e, p)
        return power(a, e)

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
    ctx._radix = 1 << w

