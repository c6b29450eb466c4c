"""Exact arithmetic in small finite fields GF(p^n).

Encoding.  An element is stored as one int, its canonical index: the
coefficient vector over GF(p) in a fixed polynomial basis (ascending
powers) read as a base-p integer.  The canonical order on elements is
that index; "smallest" always means smallest in that order, and
`FieldElem.coeffs` derives the vector from it.  The modulus for each
(p, n) is the lexicographically smallest monic irreducible polynomial of
degree n (coefficient vector read as a base-p integer), so construction
is deterministic, and `field_create` caches one context per (p, n): a
field is identified by its context object.

Kernels.  Each context carries int-level kernels chosen by its kind
(they live in `twistlab.gfkernels`):

- prime fields: native int arithmetic mod p, with the built-in `pow` for
  powers, inverses and Euler's criterion;
- p = 2, n > 1: addition is XOR, and the product is a shift-and-XOR
  carry-less multiply reduced by the modulus;
- odd p, n > 1: Kronecker substitution for products.  The digit vectors
  are packed into wide bit slots, multiplied as one int, folded by the
  modulus and reduced mod p in every slot at once.  Sums and differences
  go digit by digit, several digits per step through small tables when
  p <= 7.

Tables.  Following the lookup-table design of the `galois` library
(https://github.com/mhostetter/galois), the first enumeration of a field,
an O(q) cost its caller pays anyway (point counts, orbit floods, the
census), builds exp and log tables over the canonical generator, stored
as compact arrays, plus Zech logs when p is odd and n > 1.  From then on
products, inverses and powers in GF(p^n), n > 1, are table lookups, odd-p
sums go through the Zech logs, and `is_square`, `sqrt`, `nth_roots` and
the discrete log read the log table.  Fields used only for roots, linear
algebra and embeddings are never tabled; their discrete logs use
baby-step giant-step.  Importing the module creates no field and builds
no table.
"""

import contextvars
import math
import os

from . import gfkernels

DEFAULT_LIMIT = 1 << 22
SPLIT_LIMIT = 1 << 24
LIMIT_ENV_VAR = "TWISTLAB_LIMIT"
# A limit set for the current context (the CLI's --limit); read before the
# environment, so a command never has to write TWISTLAB_LIMIT.
LIMIT_OVERRIDE = contextvars.ContextVar("twistlab_limit", default=None)


class LimitExceededError(Exception):
    """A requested computation exceeds the configured working limit."""


def working_limit():
    """Current working limit on field size.

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


def split_limit():
    """Raised limit used only inside splitting-degree searches."""
    return max(working_limit(), SPLIT_LIMIT)


def is_prime(m):
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over GF(p), used for modulus construction only

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by monic mod
    n = len(mod) - 1
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] = (out[i - n + j] - c * mod[j]) % p
    return _ptrim(out)


def _ppowmod(a, e, mod, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b, b monic-normalized on the fly
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]
        r = list(a)
        while len(r) >= len(bm) and r:
            c = r[-1]
            if c:
                shift = len(r) - len(bm)
                for j in range(len(bm)):
                    r[shift + j] = (r[shift + j] - c * bm[j]) % p
            _ptrim(r)
            if not r:
                break
            if len(r) < len(bm):
                break
        a, b = b, _ptrim(r)
    return a


def _is_irreducible(coeffs, p):
    """Rabin test for a monic polynomial over GF(p), coeffs ascending."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        return False
    if n == 1:
        return True
    mod = list(coeffs)
    x = [0, 1]
    # x^(p^n) == x (mod f)
    if _ppowmod(x, p**n, mod, p) != x:
        return False
    # gcd(x^(p^(n/l)) - x, f) == 1 for every prime l | n
    m = n
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    for ell in primes:
        xp = _ppowmod(x, p ** (n // ell), mod, p)
        diff = list(xp)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(mod, _ptrim(diff), p)
        if len(g) != 1:
            return False
    return True


def _smallest_modulus(p, n):
    """Lexicographically smallest monic irreducible of degree n over GF(p)."""
    if n == 1:
        return (0, 1)  # x; elements of GF(p) are plain residues
    for k in range(p**n):
        digits = []
        m = k
        for _ in range(n):
            digits.append(m % p)
            m //= p
        cand = digits + [1]
        if cand[0] == 0:
            continue  # divisible by x
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {n} over GF({p})")


_MODULUS_CACHE = {}
_CTX_CACHE = {}


def field_create(p, n=1, limit=None):
    """Construct (or fetch the cached) GF(p^n) context.

    The limit check applies per call, so a cached context is re-verified
    against the limit in force at call time.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    q = p**n
    lim = working_limit() if limit is None else limit
    if q > lim:
        raise LimitExceededError(f"field size {p}^{n} = {q} exceeds limit {lim}")
    ctx = _CTX_CACHE.get((p, n))
    if ctx is None:
        modulus = _MODULUS_CACHE.get((p, n))
        if modulus is None:
            modulus = _smallest_modulus(p, n)
            _MODULUS_CACHE[(p, n)] = modulus
        ctx = FieldCtx(p, n, modulus)
        _CTX_CACHE[(p, n)] = ctx
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

    Built only by `field_create`, which keeps one context per (p, n), so
    contexts compare by identity.  `_add`, `_sub`, `_neg`, `_mul`, `_inv`
    and `_pow` are the field's kernels on canonical ints; `_pow` takes a
    nonzero base and an exponent already reduced mod q - 1.
    """

    __slots__ = (
        "p", "n", "q", "modulus", "_zero", "_one", "_elements",
        "_generator", "_qm1_factors", "_baby_steps", "_baby_count",
        "_giant_step", "_embed_cache", "_exp", "_log", "_as_basis",
        "_add", "_sub", "_neg", "_mul", "_inv", "_pow",
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
        self._qm1_factors = None
        self._baby_steps = None
        self._baby_count = None
        self._giant_step = None
        self._embed_cache = {}
        self._exp = None
        self._log = None
        self._as_basis = None
        if n == 1:
            gfkernels.prime_kernels(self)
        elif p == 2:
            gfkernels.binary_kernels(self)
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
        return FieldElem(self, self.p)

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
        return FieldElem(self, _from_digits(coeffs, self.p))

    def from_canon(self, k):
        """Element whose coefficient vector is the base-p expansion of k."""
        if not 0 <= k < self.q:
            raise ValueError(f"canonical index {k} out of range for {self}")
        return FieldElem(self, k)


class FieldElem:
    """An element of a FieldCtx, stored as its canonical index `v`.

    Equal to an int k when it is the constant k mod p, so ints outside
    [0, p) compare after reduction mod p; the hash is that of the index,
    so an element and an int in [0, p) that compare equal hash alike.
    """

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v):
        self.ctx = ctx
        self.v = v

    @property
    def canon(self):
        """Coefficient vector read as a base-p integer (the canonical order)."""
        return self.v

    @property
    def coeffs(self):
        """Coefficient vector over GF(p), ascending powers."""
        return _digits(self.v, self.ctx.p, self.ctx.n)

    def is_zero(self):
        return not self.v

    def __bool__(self):
        return self.v != 0

    def _coerce(self, other):
        """Canonical index of `other` in this field, or None if not a field value.

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

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return element_to_str(self)


def enumerate_field(ctx):
    """All elements of ctx in canonical order, as a list.

    The first call pays O(q) for the list and builds the field's tables
    at the same time.
    """
    if ctx._elements is None:
        gfkernels.table_kernels(ctx, generator(ctx).v)
        ctx._elements = [FieldElem(ctx, k) for k in range(ctx.q)]
    return list(ctx._elements)


def frobenius(e, k=1):
    """The k-fold p-power Frobenius: e |-> e^(p^k)."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"frobenius power must be a nonnegative integer, got {k}")
    return e ** (e.ctx.p ** k)


def _factorize(m):
    factors = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def generator(ctx):
    """Canonically smallest generator of the unit group."""
    if ctx._generator is not None:
        return ctx._generator
    qm1 = ctx.q - 1
    if ctx._qm1_factors is None:
        ctx._qm1_factors = _factorize(qm1) if qm1 > 1 else {}
    exponents = [qm1 // ell for ell in ctx._qm1_factors]
    power = ctx._pow
    for k in range(1, ctx.q):
        if all(power(k, x) != 1 for x in exponents):
            ctx._generator = FieldElem(ctx, k)
            return ctx._generator
    raise RuntimeError(f"no generator found in {ctx}")  # unreachable


def _dlog(e):
    """Discrete log base the canonical generator.

    A table lookup on tabled fields; baby-step giant-step elsewhere.
    """
    ctx = e.ctx
    if e.is_zero():
        raise ZeroDivisionError(f"discrete log of zero in {ctx}")
    if ctx._log is not None:
        return ctx._log[e.v]
    qm1 = ctx.q - 1
    mul = ctx._mul
    if ctx._baby_steps is None:
        g = generator(ctx).v
        m = math.isqrt(qm1) + 1
        table = {}
        acc = 1
        for j in range(m):
            table.setdefault(acc, j)
            acc = mul(acc, g)
        ctx._baby_steps = table
        ctx._baby_count = m
        ctx._giant_step = ctx._pow(ctx._inv(g), m % qm1)
    table, m, step = ctx._baby_steps, ctx._baby_count, ctx._giant_step
    cur = e.v
    for i in range(m + 1):
        j = table.get(cur)
        if j is not None:
            return (i * m + j) % qm1
        cur = mul(cur, step)
    raise RuntimeError(f"discrete log failed in {ctx}")  # unreachable


def nth_roots(e, m):
    """All x with x^m == e, in canonical order."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"root degree must be a positive integer, got {m}")
    ctx = e.ctx
    if e.is_zero():
        return [ctx.zero]
    qm1 = ctx.q - 1
    if qm1 == 1:
        return [ctx.one]
    g = generator(ctx)
    k = _dlog(e)
    d = math.gcd(m, qm1)
    if k % d != 0:
        return []
    step = qm1 // d
    e0 = (k // d) * pow(m // d, -1, step) % step if step > 1 else 0
    roots = [g ** (e0 + j * step) for j in range(d)]
    roots.sort(key=lambda x: x.v)
    return roots


def is_square(e):
    """Whether e is a square: a log-table parity test on tabled fields,
    Euler's criterion elsewhere; everything is a square when p == 2."""
    ctx = e.ctx
    if ctx.p == 2 or e.is_zero():
        return True
    if ctx._log is not None:
        return ctx._log[e.v] % 2 == 0
    return ctx._pow(e.v, (ctx.q - 1) // 2) == 1


def sqrt(e):
    """A square root of e, or None.

    For odd p the canonically smaller of the two roots is returned; for
    p == 2 squaring is a bijection and the root is unique.
    """
    ctx = e.ctx
    if ctx.p == 2:
        return e ** (2 ** (ctx.n - 1))
    if e.is_zero():
        return ctx.zero
    log = ctx._log
    if log is None:
        roots = nth_roots(e, 2)
        return roots[0] if roots else None
    k = log[e.v]
    if k % 2:
        return None
    r = ctx._exp[k // 2]
    return FieldElem(ctx, min(r, ctx._neg(r)))


# ---------------------------------------------------------------------------
# GF(p)-linear solves: equations of the form x^(p^k) + a*x = rhs

def _solve_gfp_system(columns, rhs, p):
    """Solve M*v = rhs over GF(p) given M's columns; return (particular, kernel)."""
    n = len(rhs)
    m = len(columns)
    rows = [[columns[j][i] for j in range(m)] + [rhs[i]] for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        sel = None
        for r in range(row, n):
            if rows[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        inv_piv = pow(rows[row][col], p - 2, p)
        rows[row] = [(c * inv_piv) % p for c in rows[row]]
        for r in range(n):
            if r != row and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if rows[r][m] % p:
            return None, []
    particular = [0] * m
    for r, col in enumerate(pivots):
        particular[col] = rows[r][m]
    free = [c for c in range(m) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [0] * m
        vec[fc] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rows[r][fc]) % p
        kernel.append(vec)
    return particular, kernel


def linearized_roots(a, rhs, k=1):
    """All x in the field with x^(p^k) + a*x == rhs.

    The left side is GF(p)-linear in x, so this is exact linear algebra on
    coefficient vectors; it works at any field size in scope.
    """
    ctx = a.ctx
    if rhs.ctx is not ctx:
        raise ValueError(f"mixed fields: {ctx} and {rhs.ctx}")
    p, n = ctx.p, ctx.n
    columns = []
    for i in range(n):
        basis = FieldElem(ctx, p**i)
        image = frobenius(basis, k) + a * basis
        columns.append(list(image.coeffs))
    particular, kernel = _solve_gfp_system(columns, list(rhs.coeffs), p)
    if particular is None:
        return []
    roots = []
    dim = len(kernel)
    for mask in range(p**dim):
        vec = list(particular)
        mm = mask
        for kv in kernel:
            c = mm % p
            mm //= p
            if c:
                for i in range(n):
                    vec[i] = (vec[i] + c * kv[i]) % p
        roots.append(FieldElem(ctx, _from_digits(vec, p)))
    roots.sort(key=lambda x: x.v)
    return roots


def artin_schreier_roots(c):
    """All w with w^p - w == c, for p in {2, 3}.

    Nonempty exactly when the absolute trace of c vanishes; then there are
    exactly p roots differing by GF(p).  For p = 2 the solve reduces c
    against the field's cached basis of the image of w |-> w^2 + w.
    """
    ctx = c.ctx
    if ctx.p == 3:
        return linearized_roots(ctx.scalar(-1), c, k=1)
    if ctx.p != 2:
        raise ValueError(f"Artin-Schreier solve needs characteristic 2 or 3, got {ctx.p}")
    rows = _artin_schreier_basis(ctx)
    v, w = c.v, 0
    while v:
        row = rows.get(v.bit_length() - 1)
        if row is None:
            return []
        v ^= row[0]
        w ^= row[1]
    w &= ~1  # the roots are w and w + 1
    return [FieldElem(ctx, w), FieldElem(ctx, w | 1)]


def _artin_schreier_basis(ctx):
    """Echelon basis of the image of w |-> w^2 + w on GF(2^n).

    Maps the leading bit of each basis image to (image, a preimage), so
    reducing c against it by XOR also builds a root.  The map depends only
    on the field, so the basis is built once per field.
    """
    if ctx._as_basis is None:
        rows = {}
        for i in range(ctx.n):
            pre = 1 << i
            img = ctx._mul(pre, pre) ^ pre
            while img:
                row = rows.get(img.bit_length() - 1)
                if row is None:
                    rows[img.bit_length() - 1] = (img, pre)
                    break
                img ^= row[0]
                pre ^= row[1]
        ctx._as_basis = rows
    return ctx._as_basis


def absolute_trace(e):
    """Trace from GF(p^n) down to GF(p), returned as an int in [0, p)."""
    acc = e
    cur = e
    for _ in range(e.ctx.n - 1):
        cur = frobenius(cur, 1)
        acc = acc + cur
    return acc.v


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
    """Canonically smallest root of sub's modulus inside super_ctx."""
    p, m = sub.p, sub.n
    # the degree-m subfield of super_ctx is the kernel of x^(p^m) - x
    minus_one = super_ctx.scalar(-1)
    members = linearized_roots(minus_one, super_ctx.zero, k=m)
    mod = sub.modulus
    best = None
    for x in members:
        acc = super_ctx.zero
        for c in reversed(mod):
            acc = acc * x + c
        if acc.is_zero() and (best is None or x.v < best.v):
            best = x
    if best is None:
        raise RuntimeError(f"no root of {sub} modulus in {super_ctx}")  # unreachable
    return best


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
