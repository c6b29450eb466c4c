"""Exact arithmetic in small finite fields GF(p^n).

Encoding.  An element's canonical index is its coefficient vector over
GF(p) in a fixed polynomial basis (ascending powers) read as a base-p
integer.  The canonical order on elements is that index; "smallest"
always means smallest in that order.  The modulus for each (p, n) is the
lexicographically smallest monic irreducible polynomial of degree n
(coefficient vector read as a base-p integer), so construction is
deterministic, and `field_create` caches one context per (p, n): a field
is identified by its context object.

A `FieldElem` stores one int `v`, its packed value.  In a prime field
that is the residue itself.  For n > 1 it is the Kronecker-packed
vector: digit i in the bit slot i of w bits, so `v` is the vector read
in radix 2^w (`FieldCtx._radix`).  Digits are below p < 2^w, so packed
values order, and compare, exactly as canonical indices do; a constant
packs to itself.  Canonical ints appear only at the boundary: `canon`,
`from_canon`, `coeffs` and the text format, `generator`'s scan, the
exp/log tables and the walks that read them.  This module and
`twistlab.gfkernels` are the only code that knows the packed encoding:
no other module reads `.v`, builds a `FieldElem` or calls a kernel.
Elements of one field order by `<` in the canonical order, so other
modules sort them, take their minima and key dicts on them directly.

Modulus.  `field_create` walks the monic candidates with a nonzero
constant term in that order.  Each candidate gets a context of its own,
with the kernels below, and `_is_field` runs Rabin's irreducibility test
in GF(p)[x]/(f) on those kernels; the first candidate that passes keeps
its context, and no other candidate is cached.

Kernels.  Each context carries int-level kernels on packed values,
chosen by its kind (they live in `twistlab.gfkernels`):

- prime fields: native int arithmetic mod p, with the built-in `pow` for
  powers, inverses and Euler's criterion;
- n > 1, any p: Kronecker substitution (Harvey, J. Symbolic Comput. 44,
  2009).  A product is one int multiply, a fold by the modulus and a
  reduction of every slot at once (a mask for p = 2); a sum is one
  slot-wise add (XOR for p = 2); a power squares and multiplies on
  packed ints and is never unpacked.

Tables.  Following the lookup-table design of the `galois` library
(https://github.com/mhostetter/galois), the first walk of a whole field,
an O(q) cost its caller pays anyway (a point count's character sum,
which `twistlab.curve` takes only below its search threshold or when the
search decides nothing, and `enumerate_field` for the oracles of the
tests), builds exp and log tables over the canonical generator, stored
as compact arrays indexed by canonical ints, plus Zech logs when p is
odd and n > 1.  The exp table is one walk of the generator, which keeps
the running power packed.  The tables serve only the character sums,
through the canonical kernels `_walk_kernels`; they never replace the
element kernels, so an element's `v` keeps its meaning.  Only
`enumerate_field` also builds the list of every element as a
`FieldElem`; a character sum reads canonical ints and never does.
Fields used only for roots, linear algebra, embeddings and point counts
by the search are never tabled.  Discrete logs use Pohlig-Hellman on
every field, tabled or not, so a log never depends on which fields were
walked before it.  Importing the module creates no field and builds no
table.

Limit.  The working limit is the most elements one step may walk; the
size of a field is not limited.  Three steps walk: a whole field
(`enumerate_field` and a point count's character sum, both through
`_walk_tables`), `_embedding_root` (a whole subfield) and `_factorize`
(trial divisors).  A point count by the baby-step giant-step search walks
no field; it holds only its baby steps, about 2*q^(1/4) points, to the
limit.
"""

import contextvars
import math
import os

from . import gfkernels

DEFAULT_LIMIT = 1 << 22
LIMIT_ENV_VAR = "TWISTLAB_LIMIT"
# A limit set for the current context (the CLI's --limit); read before the
# environment, so a command never has to write TWISTLAB_LIMIT.
LIMIT_OVERRIDE = contextvars.ContextVar("twistlab_limit", default=None)


class LimitExceededError(Exception):
    """A requested computation exceeds the configured working limit."""


def working_limit():
    """Current working limit: the most elements any one step may walk.

    The value set in `LIMIT_OVERRIDE` wins; then TWISTLAB_LIMIT; then
    DEFAULT_LIMIT.
    """
    override = LIMIT_OVERRIDE.get()
    if override is not None:
        return override
    raw = os.environ.get(LIMIT_ENV_VAR)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{LIMIT_ENV_VAR} must be an integer, got {raw!r}")
    if value < 2:
        raise ValueError(f"{LIMIT_ENV_VAR} must be at least 2")
    return value


def is_prime(m):
    return m > 1 and _factorize(m) == {m: 1}


def _factorize(m):
    """Prime factorization of m >= 1 by trial division, as {prime: exponent}.

    Stops with LimitExceededError once a divisor passes the working limit
    with a cofactor left, so every prime it returns is below limit^2."""
    factors, limit = {}, working_limit()
    d = 2
    while d * d <= m:
        if d > limit:
            # by bit length: the digits of a large m are long, and past
            # 4300 of them int-to-str conversion itself raises ValueError
            raise LimitExceededError(f"factoring a {m.bit_length()}-bit number "
                                     f"needs divisors past the limit {limit}")
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _is_field(ctx):
    """Rabin's test, run on ctx's own kernels: is its modulus f irreducible?

    In R = GF(p)[x]/(f), X^(q-1) = 1 for the class X of x makes f a
    squarefree product of irreducibles whose degrees divide n, so R is a
    product of fields GF(p^d), d | n.  Then f is irreducible exactly when
    X^(p^(n/l)) - X is a unit of R for every prime l | n, which is
    Rabin's condition gcd(x^(p^(n/l)) - x, f) = 1.  A candidate context
    is never tabled, so its `_pow` takes any base, zero included, and any
    exponent, q - 1 included.

    Written with the exponent q - 1, the second condition alone already
    forces f to be irreducible, so no test can tell the first one apart.
    It stays because the argument above rests on it, and it rejects most
    reducible candidates with a single power.
    """
    p, n, qm1, power = ctx.p, ctx.n, ctx.q - 1, ctx._pow
    x = ctx._radix  # the packed value of the class of x
    if power(x, qm1) != 1:
        return False
    return all(
        power(ctx._sub(power(x, p ** (n // ell)), x), qm1) == 1
        for ell in _factorize(n)
    )


def _smallest_field(p, n):
    """GF(p^n) over the smallest monic irreducible modulus of degree n.

    Candidates are monic with a nonzero constant term, in the order of
    their coefficient vectors read as base-p integers.
    """
    if n == 1:
        return FieldCtx(p, 1, (0, 1))  # x; elements of GF(p) are plain residues
    for k in range(1, p**n):
        if k % p:
            ctx = FieldCtx(p, n, _digits(k, p, n) + (1,))
            if _is_field(ctx):
                return ctx
    # unreachable: every degree has a monic irreducible
    raise RuntimeError(f"no irreducible polynomial of degree {n} over GF({p})")


_CTX_CACHE = {}


def field_create(p, n=1):
    """Construct (or fetch the cached) GF(p^n) context.

    The cache is read only for int arguments, since a float key such as
    (2.0, 1) would hit the (2, 1) entry, and p is tested for primality only
    on a miss.  Then q - 1 is factored, for `generator` and `_dlog`, so a
    field out of the limit's reach fails before its modulus search.
    """
    if isinstance(p, int) and isinstance(n, int):
        ctx = _CTX_CACHE.get((p, n))
        if ctx is not None:
            return ctx
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    factors = _factorize(p**n - 1)
    ctx = _CTX_CACHE[(p, n)] = _smallest_field(p, n)
    ctx._unit_factors = factors
    return ctx


def _digits(v, p, n):
    """The n base-p digits of v, least significant first."""
    out = []
    for _ in range(n):
        v, d = divmod(v, p)
        out.append(d)
    return tuple(out)


def _from_digits(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


class FieldCtx:
    """A finite field GF(p^n) with a fixed polynomial-basis encoding.

    `field_create` keeps one context per (p, n), so contexts compare by
    identity; the candidate contexts it tests and rejects are discarded.
    `_add`, `_sub`, `_neg`, `_mul`, `_inv` and `_pow` are the field's
    element kernels, on packed values; `_pow` takes a nonzero base and an
    exponent already reduced mod q - 1.  `_radix` is the radix of the
    packed digits (p itself for a prime field), and `_pack` and `_unpack`
    convert canonical ints to packed values and back.  None of these is
    read outside `twistlab.gf` and `twistlab.gfkernels`.  A walk of the
    whole field adds `_exp`, `_log` and `_walk_kernels`
    (`gfkernels.table_kernels`), which serve the character sums only;
    `_dlog_steps` keeps the baby-step table of each prime `_subgroup_log`
    has met, for the discrete logs of every field.
    """

    __slots__ = (
        "p", "n", "q", "modulus", "_zero", "_one", "_elements",
        "_generator", "_unit_factors", "_embed_cache", "_dlog_steps", "_exp",
        "_log", "_walk_kernels", "_trace_form", "_add", "_sub", "_neg",
        "_mul", "_inv", "_pow", "_radix", "_pack", "_unpack",
    )

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._zero = FieldElem(self, 0)
        self._one = FieldElem(self, 1)
        self._elements = None
        self._generator = None
        self._unit_factors = None
        self._embed_cache = {}
        self._dlog_steps = {}
        self._exp = None
        self._log = None
        self._walk_kernels = None
        self._trace_form = None
        if n == 1:
            gfkernels.prime_kernels(self)
        else:
            gfkernels.packed_kernels(self)

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def gen(self):
        """The basis generator (the class of x); equals 1 when n == 1."""
        if self.n == 1:
            return self._one
        return FieldElem(self, self._radix)

    def scalar(self, k):
        """The constant k mod p as a field element."""
        return FieldElem(self, k % self.p)

    def element(self, value):
        """Build an element from an int (scalar mod p) or coefficient list."""
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise ValueError(f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            return self.scalar(value)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) != self.n:
            raise ValueError(f"need {self.n} coefficients for {self}, got {len(coeffs)}")
        return FieldElem(self, _from_digits(coeffs, self._radix))

    def from_canon(self, k):
        """Element whose coefficient vector is the base-p expansion of k."""
        if not 0 <= k < self.q:
            raise ValueError(f"canonical index {k} out of range for {self}")
        return FieldElem(self, self._pack(k))


class FieldElem:
    """An element of a FieldCtx, stored as its packed value `v`.

    Packed values order as canonical indices do, and a constant packs to
    itself.  So `<` on two elements of one field is the canonical order
    (elements of two fields, or an element and an int, do not order), an
    element equals an int k when it is the constant k mod p, ints outside
    [0, p) compare after reduction mod p, and the hash, that of `v`, is
    the same for an element and an int in [0, p) that compare equal.
    """

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v):
        self.ctx = ctx
        self.v = v

    @property
    def canon(self):
        """Coefficient vector read as a base-p integer (the canonical order)."""
        return self.ctx._unpack(self.v)

    @property
    def coeffs(self):
        """Coefficient vector over GF(p), ascending powers."""
        return _digits(self.v, self.ctx._radix, self.ctx.n)

    def is_zero(self):
        return not self.v

    def __bool__(self):
        return self.v != 0

    def _coerce(self, other):
        """Packed value of `other` in this field, or None if not a field value.

        The operators test the common case, an element of the same field,
        inline before calling this.
        """
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise ValueError(f"mixed fields: {self.ctx} and {other.ctx}")
            return other.v
        if isinstance(other, int):
            return other % self.ctx.p
        return None

    def __add__(self, other):
        ctx = self.ctx
        if other.__class__ is FieldElem and other.ctx is ctx:
            return FieldElem(ctx, ctx._add(self.v, other.v))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(ctx, ctx._add(self.v, o))

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        return FieldElem(ctx, ctx._neg(self.v))

    def __sub__(self, other):
        ctx = self.ctx
        if other.__class__ is FieldElem and other.ctx is ctx:
            return FieldElem(ctx, ctx._sub(self.v, other.v))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(ctx, ctx._sub(self.v, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        return FieldElem(ctx, ctx._sub(o, self.v))

    def __mul__(self, other):
        ctx = self.ctx
        if other.__class__ is FieldElem and other.ctx is ctx:
            return FieldElem(ctx, ctx._mul(self.v, other.v))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(ctx, ctx._mul(self.v, o))

    __rmul__ = __mul__

    def inv(self):
        if not self.v:
            raise ZeroDivisionError(f"inverse of zero in {self.ctx}")
        ctx = self.ctx
        return FieldElem(ctx, ctx._inv(self.v))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError(f"inverse of zero in {self.ctx}")
        ctx = self.ctx
        return FieldElem(ctx, ctx._mul(self.v, ctx._inv(o)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.ctx, o) * self.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        ctx = self.ctx
        if e == 0:
            return ctx.one  # includes 0^0 = 1 by convention
        if not self.v:
            if e < 0:
                raise ZeroDivisionError(f"inverse of zero in {ctx}")
            return self
        return FieldElem(ctx, ctx._pow(self.v, e % (ctx.q - 1)))

    def __eq__(self, other):
        if other.__class__ is FieldElem:
            return self.ctx is other.ctx and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.ctx.p
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is FieldElem and other.ctx is self.ctx:
            return self.v < other.v
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return element_to_str(self)


def _walk_tables(ctx):
    """Ready ctx for a walk over all q of its elements.

    Every walk is checked against the working limit, on every call; the
    first one builds the field's tables.
    """
    limit = working_limit()
    if ctx.q > limit:
        raise LimitExceededError(f"enumerating {ctx} walks {ctx.q} elements, "
                                 f"over the limit {limit}")
    if ctx._log is None:
        gfkernels.table_kernels(ctx, generator(ctx).v)


def enumerate_field(ctx):
    """All elements of ctx in canonical order, as a list of `FieldElem`s.

    A walk of q elements (`_walk_tables`); the first call also builds the
    element list, which is kept.
    """
    _walk_tables(ctx)
    if ctx._elements is None:
        ctx._elements = [FieldElem(ctx, v) for v in map(ctx._pack, range(ctx.q))]
    return list(ctx._elements)


def frobenius(e, k=1):
    """The k-fold p-power Frobenius: e |-> e^(p^k)."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"frobenius power must be a nonnegative integer, got {k}")
    return e ** (e.ctx.p ** k)


def generator(ctx):
    """Canonically smallest generator of the unit group."""
    if ctx._generator is not None:
        return ctx._generator
    qm1 = ctx.q - 1
    exponents = [qm1 // ell for ell in ctx._unit_factors]
    power = ctx._pow
    # constants have order | p - 1
    for v in map(ctx._pack, range(ctx.p if ctx.n > 1 else 1, ctx.q)):
        if all(power(v, x) != 1 for x in exponents):
            ctx._generator = FieldElem(ctx, v)
            return ctx._generator
    raise RuntimeError(f"no generator found in {ctx}")  # unreachable


def _dlog(e):
    """Discrete log base the canonical generator, by Pohlig-Hellman (IEEE
    Trans. Inf. Theory 24, 1978) on every field, tabled or not, so the
    answer never depends on which fields earlier calls walked.

    For each l^k exactly dividing q - 1, the log mod l^k one base-l digit
    at a time, each digit a log in the subgroup of prime order
    l < limit^2; the Chinese remainder theorem joins them.
    """
    ctx = e.ctx
    if e.is_zero():
        raise ZeroDivisionError(f"discrete log of zero in {ctx}")
    qm1, power, mul = ctx.q - 1, ctx._pow, ctx._mul
    g, x = generator(ctx).v, 0
    for ell, k in ctx._unit_factors.items():
        x_ell = 0
        for j in range(k):  # x_ell is the log mod ell^j
            c = qm1 // ell ** (j + 1)
            h = mul(power(e.v, c), power(g, -x_ell * c % qm1))
            x_ell += _subgroup_log(ctx, h, ell) * ell**j
        cofactor = qm1 // ell**k
        x += x_ell * cofactor * pow(cofactor, -1, ell**k)
    return x % qm1


def _subgroup_log(ctx, h, ell):
    """The d in [0, ell) with gamma^d == h, for gamma = g^((q-1)/ell) of
    prime order ell and g the canonical generator.

    0 at once when h == 1, with no table built: a log of an element whose
    order is prime to ell, such as the 1 of every automorphism search's
    `nth_roots(1, m)`, is then free.  Otherwise baby-step giant-step: the
    m ~ sqrt(ell) baby steps are taken once per field and ell and kept in
    `ctx._dlog_steps`, and each log takes at most m giant steps.
    """
    if h == 1:
        return 0
    mul = ctx._mul
    steps = ctx._dlog_steps.get(ell)
    if steps is None:
        gamma = ctx._pow(generator(ctx).v, (ctx.q - 1) // ell)
        m = math.isqrt(ell - 1) + 1
        baby, acc = {}, 1
        for j in range(m):
            baby.setdefault(acc, j)
            acc = mul(acc, gamma)
        steps = ctx._dlog_steps[ell] = m, baby, ctx._inv(acc)  # gamma^-m
    m, baby, step = steps
    for i in range(m):
        j = baby.get(h)
        if j is not None:
            return i * m + j
        h = mul(h, step)
    raise RuntimeError(f"discrete log failed in {ctx}")  # unreachable


def nth_roots(e, m):
    """All x with x^m == e, in canonical order."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"root degree must be a positive integer, got {m}")
    ctx = e.ctx
    if e.is_zero():
        return [ctx.zero]
    qm1 = ctx.q - 1
    g = generator(ctx)
    k = _dlog(e)
    d = math.gcd(m, qm1)
    if k % d != 0:
        return []
    step = qm1 // d
    e0 = (k // d) * pow(m // d, -1, step) % step if step > 1 else 0
    return sorted(g ** (e0 + j * step) for j in range(d))


def is_square(e):
    """Whether e is a square, by Euler's criterion e^((q-1)/2) == 1;
    everything is a square when p == 2."""
    ctx = e.ctx
    if ctx.p == 2 or e.is_zero():
        return True
    return ctx._pow(e.v, (ctx.q - 1) // 2) == 1


def sqrt(e):
    """The least square root of e, or None.

    For p == 2 squaring is a bijection of order n, so the root is unique
    and is one power, e^(2^(n-1)).  For odd p it costs one Pohlig-Hellman
    discrete log."""
    ctx = e.ctx
    if ctx.p == 2:
        return frobenius(e, ctx.n - 1)
    roots = nth_roots(e, 2)
    return roots[0] if roots else None


# ---------------------------------------------------------------------------
# GF(p)-linear maps of a field to itself, on packed values

class Echelon:
    """Row echelon form of a GF(p)-linear map f from a field to itself.

    Built from the packed images of the basis elements x^i; its public
    methods take and return field elements, and its rows and `kernel`, a
    GF(p) basis of f's kernel, are packed values.  Each row's image leads
    with digit 1 at its pivot weight R^i, where R is the field's `_radix`
    and i the slot of its most significant nonzero digit; no two rows
    share a pivot.  A row keeps d times its image and a preimage for
    every digit d, so reducing by it takes no product.
    """

    __slots__ = ("ctx", "rows", "kernel")

    def __init__(self, ctx, images):
        p, mul, sub = ctx.p, ctx._mul, ctx._sub
        weights = [ctx._radix**i for i in range(ctx.n)]
        pivots = {}
        self.ctx, self.kernel = ctx, []
        for pre, img in zip(weights, images):  # img is f(pre) throughout
            while img:
                w = next(w for w in reversed(weights) if img >= w)
                lead, row = img // w, pivots.get(w)
                if row is None:
                    scale = pow(lead, -1, p)
                    img, pre = mul(scale, img), mul(scale, pre)
                    pivots[w] = ([mul(d, img) for d in range(p)],
                                 [mul(d, pre) for d in range(p)])
                    break
                img, pre = sub(img, row[0][lead]), sub(pre, row[1][lead])
            else:
                self.kernel.append(pre)
        self.rows = [(w,) + pivots[w] for w in sorted(pivots, reverse=True)]

    def _packed(self, e):
        """e's packed value; e must be an element of this field."""
        if e.ctx is not self.ctx:
            raise ValueError(f"mixed fields: {self.ctx} and {e.ctx}")
        return e.v

    def reduce(self, e):
        """(e - f(x), x) for an x that makes e - f(x) least in canonical order.

        Clears e's digit at every pivot, most significant first; a row
        changes no digit above its pivot.  Every nonzero element of the
        image leads at a pivot, so the one element of e's coset that is
        zero at all pivots is its least.
        """
        ctx, v = self.ctx, self._packed(e)
        radix, add, sub, x = ctx._radix, ctx._add, ctx._sub, 0
        for w, imgs, pres in self.rows:
            d = v // w % radix
            if d:
                v = sub(v, imgs[d])
                x = add(x, pres[d])
        return FieldElem(ctx, v), FieldElem(ctx, x)

    def kernel_coset(self, x):
        """x plus every element of the kernel, ascending.

        Takes p products per kernel vector, its multiples, and only sums
        after that.
        """
        ctx = self.ctx
        add, mul, out = ctx._add, ctx._mul, [self._packed(x)]
        for k in self.kernel:
            multiples = [mul(d, k) for d in range(ctx.p)]
            out = [add(y, dk) for y in out for dk in multiples]
        return [FieldElem(ctx, y) for y in sorted(out)]

    def roots(self, rhs):
        """Every x with f(x) == rhs, ascending."""
        residue, x = self.reduce(rhs)
        return [] if residue else self.kernel_coset(x)

    def residues(self):
        """The least element of each coset of the image, ascending.

        These are the elements whose digits vanish at every pivot.
        """
        ctx, pivots, out = self.ctx, {row[0] for row in self.rows}, [0]
        p = ctx.p
        for w in (ctx._radix**i for i in range(ctx.n)):
            if w not in pivots:  # every earlier element is below w
                out = [y + d * w for d in range(p) for y in out]
        return [FieldElem(ctx, y) for y in out]


def linearized_echelon(a, k=1):
    """The `Echelon` of x |-> x^(p^k) + a*x on a's field."""
    ctx = a.ctx
    basis = (FieldElem(ctx, ctx._radix**i) for i in range(ctx.n))
    return Echelon(ctx, [(frobenius(b, k) + a * b).v for b in basis])


def linearized_roots(a, rhs, k=1):
    """All x in the field with x^(p^k) + a*x == rhs, ascending.

    The left side is GF(p)-linear in x, so this is exact linear algebra on
    packed values; it works at any field size in scope.  A caller that
    solves with one (a, k) for several right sides builds
    `linearized_echelon(a, k)` once and calls its `roots`.
    """
    return linearized_echelon(a, k).roots(rhs)


def _trace_form(ctx):
    """The canonical int whose base-p digits are Tr(x^i), i < n (cached).

    Tr(x^i) is the i-th power sum of the roots of the monic modulus f,
    which Newton's identities give from f's coefficients alone: Tr(1) = n
    and, for 0 < k < n,
    Tr(x^k) = -(k*f[n-k] + sum over 0 < j < k of f[n-j]*Tr(x^(k-j))).
    The trace is GF(p)-linear, so these n values determine it.
    """
    form = ctx._trace_form
    if form is None:
        p, n, f = ctx.p, ctx.n, ctx.modulus
        sums = [n % p]
        for k in range(1, n):
            s = k * f[n - k] + sum(f[n - j] * sums[k - j] for j in range(1, k))
            sums.append(-s % p)
        form = ctx._trace_form = _from_digits(sums, p)
    return form


def absolute_trace(e):
    """Trace from GF(p^n) down to GF(p), returned as an int in [0, p).

    The sum of e's digits times those of the trace form, mod p; for p = 2
    the parity of the bits e shares with it.
    """
    ctx = e.ctx
    p, v, form = ctx.p, e.canon, _trace_form(ctx)
    if p == 2:
        return (v & form).bit_count() & 1
    acc = 0
    while v:
        v, d = divmod(v, p)
        form, t = divmod(form, p)
        acc += d * t
    return acc % p


def subfield_embed(e, super_ctx):
    """Image of e under the canonical embedding of its field into super_ctx.

    The embedding sends the subfield's basis generator to the canonically
    smallest root of the subfield modulus inside super_ctx.
    """
    sub = e.ctx
    if sub.p != super_ctx.p:
        raise ValueError(f"no embedding {sub} -> {super_ctx}: different characteristic")
    if super_ctx.n % sub.n != 0:
        raise ValueError(f"no embedding {sub} -> {super_ctx}: degree does not divide")
    if sub.n == super_ctx.n:
        return super_ctx.element(e)
    if sub.n == 1:
        return super_ctx.scalar(e.v)
    powers = super_ctx._embed_cache.get(sub.n)
    if powers is None:
        root = _embedding_root(sub, super_ctx)
        powers = [super_ctx.one]
        for _ in range(sub.n - 1):
            powers.append(powers[-1] * root)
        super_ctx._embed_cache[sub.n] = powers
    acc = super_ctx.zero
    for c, pw in zip(e.coeffs, powers):
        if c:
            acc = acc + pw * c
    return acc


def _embedding_root(sub, super_ctx):
    """Canonically smallest root of sub's modulus inside super_ctx: the
    first one met on an ascending walk of the copy of sub, the kernel of
    x^(p^m) - x for m = sub.n."""
    limit = working_limit()
    if sub.q > limit:
        raise LimitExceededError(f"embedding {sub} into {super_ctx} walks "
                                 f"{sub.q} elements, over the limit {limit}")
    for x in linearized_roots(super_ctx.scalar(-1), super_ctx.zero, k=sub.n):
        acc = super_ctx.zero
        for c in reversed(sub.modulus):
            acc = acc * x + c
        if acc.is_zero():
            return x
    raise RuntimeError(f"no root of {sub} modulus in {super_ctx}")  # unreachable


# ---------------------------------------------------------------------------
# textual element format: "p^n:c0,c1,...,c_{n-1}", prime fields may use the
# bare residue integer

def element_to_str(e):
    ctx = e.ctx
    if ctx.n == 1:
        return str(e.v)
    return f"{ctx.p}^{ctx.n}:" + ",".join(str(c) for c in e.coeffs)


def element_from_str(s, ctx=None):
    """Parse the textual element format; bare integers need an explicit ctx."""
    s = s.strip()
    if ":" in s:
        head, _, tail = s.partition(":")
        if "^" not in head:
            raise ValueError(f"bad element literal {s!r}")
        p_str, _, n_str = head.partition("^")
        p, n = int(p_str), int(n_str)
        target = field_create(p, n)
        if ctx is not None and target is not ctx:
            raise ValueError(f"element literal {s!r} does not live in {ctx}")
        coeffs = [int(t) for t in tail.split(",")]
        return target.element(coeffs)
    if ctx is None:
        raise ValueError(f"bare integer literal {s!r} needs a field context")
    return ctx.scalar(int(s))
