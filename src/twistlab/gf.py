"""Exact arithmetic in small finite fields GF(p^n).

Elements are coefficient vectors over GF(p) in a fixed polynomial basis,
ascending powers.  The modulus for each (p, n) is the lexicographically
smallest monic irreducible polynomial of degree n (coefficient vector read
as a base-p integer), so construction is deterministic: two contexts built
for the same (p, n) are the same field with the same element encoding.

The canonical order on elements is their coefficient vector read as a
base-p integer; "smallest" always means smallest in that order.
"""

import math
import os

DEFAULT_LIMIT = 1 << 22
SPLIT_LIMIT = 1 << 24
LIMIT_ENV_VAR = "TWISTLAB_LIMIT"


class LimitExceededError(Exception):
    """A requested computation exceeds the configured working limit."""


def working_limit():
    """Current working limit on field size (env override via TWISTLAB_LIMIT)."""
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


class FieldCtx:
    """A finite field GF(p^n) with a fixed polynomial-basis encoding."""

    __slots__ = (
        "p", "n", "q", "modulus", "_zero", "_one", "_elements",
        "_generator", "_qm1_factors", "_baby_steps", "_baby_count",
        "_giant_step", "_sqrt_table", "_embed_cache",
    )

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._zero = FieldElem(self, (0,) * n)
        self._one = FieldElem(self, (1,) + (0,) * (n - 1))
        self._elements = None
        self._generator = None
        self._qm1_factors = None
        self._baby_steps = None
        self._baby_count = None
        self._giant_step = None
        self._sqrt_table = None
        self._embed_cache = {}

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other):
        if isinstance(other, FieldCtx):
            return self.p == other.p and self.n == other.n
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.n))

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
        return FieldElem(self, (0, 1) + (0,) * (self.n - 2))

    def scalar(self, k):
        """The constant k mod p as a field element."""
        return FieldElem(self, (k % self.p,) + (0,) * (self.n - 1))

    def element(self, value):
        """Build an element from an int (scalar mod p) or coefficient list."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise ValueError(f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            return self.scalar(value)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.n:
            raise ValueError(f"need {self.n} coefficients for {self}, got {len(coeffs)}")
        return FieldElem(self, coeffs)

    def from_canon(self, k):
        """Element whose coefficient vector is the base-p expansion of k."""
        if not 0 <= k < self.q:
            raise ValueError(f"canonical index {k} out of range for {self}")
        digits = []
        for _ in range(self.n):
            digits.append(k % self.p)
            k //= self.p
        return FieldElem(self, tuple(digits))


class FieldElem:
    """An element of a FieldCtx; immutable coefficient vector."""

    __slots__ = ("ctx", "coeffs", "_hash")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs
        self._hash = None

    @property
    def canon(self):
        """Coefficient vector read as a base-p integer (the canonical order)."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.ctx.p + c
        return k

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise ValueError(f"mixed fields: {self.ctx} and {other.ctx}")
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        p, n = ctx.p, ctx.n
        if n == 1:
            return FieldElem(ctx, ((self.coeffs[0] * o.coeffs[0]) % p,))
        a, b = self.coeffs, o.coeffs
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        mod = ctx.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = out[i] % p
            if c:
                for j in range(n):
                    out[i - n + j] -= c * mod[j]
            out[i] = 0
        return FieldElem(ctx, tuple(c % p for c in out[:n]))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self.ctx}")
        return self ** (self.ctx.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return self.ctx.one  # includes 0^0 = 1 by convention
        if e < 0:
            return self.inv() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.ctx.scalar(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.p, self.ctx.n, self.coeffs))
        return self._hash

    def __repr__(self):
        return element_to_str(self)


def enumerate_field(ctx):
    """All elements of ctx in canonical order, as a list."""
    if ctx._elements is None:
        elems = []
        p, n = ctx.p, ctx.n
        coeffs = [0] * n
        for _ in range(ctx.q):
            elems.append(FieldElem(ctx, tuple(coeffs)))
            for i in range(n):
                coeffs[i] += 1
                if coeffs[i] < p:
                    break
                coeffs[i] = 0
        ctx._elements = elems
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
    primes = list(ctx._qm1_factors)
    for k in range(1, ctx.q):
        cand = ctx.from_canon(k)
        if all(cand ** (qm1 // ell) != ctx.one for ell in primes):
            ctx._generator = cand
            return cand
    raise RuntimeError(f"no generator found in {ctx}")  # unreachable


def _dlog(e):
    """Discrete log base the canonical generator, via baby-step giant-step."""
    ctx = e.ctx
    if e.is_zero():
        raise ZeroDivisionError(f"discrete log of zero in {ctx}")
    g = generator(ctx)
    qm1 = ctx.q - 1
    if ctx._baby_steps is None:
        m = math.isqrt(qm1) + 1
        table = {}
        acc = ctx.one
        for j in range(m):
            table.setdefault(acc.coeffs, j)
            acc = acc * g
        ctx._baby_steps = table
        ctx._baby_count = m
        ctx._giant_step = g.inv() ** m
    table, m, step = ctx._baby_steps, ctx._baby_count, ctx._giant_step
    cur = e
    for i in range(m + 1):
        j = table.get(cur.coeffs)
        if j is not None:
            return (i * m + j) % qm1
        cur = cur * step
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
    roots.sort(key=lambda x: x.canon)
    return roots


def is_square(e):
    """Euler criterion for odd p; everything is a square when p == 2."""
    ctx = e.ctx
    if ctx.p == 2 or e.is_zero():
        return True
    return e ** ((ctx.q - 1) // 2) == ctx.one


_SQRT_TABLE_MAX = 1 << 16


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
    if ctx.q <= _SQRT_TABLE_MAX:
        if ctx._sqrt_table is None:
            table = {}
            for x in enumerate_field(ctx):
                sq = (x * x).coeffs
                if sq not in table:
                    table[sq] = x
            ctx._sqrt_table = table
        return ctx._sqrt_table.get(e.coeffs)
    roots = nth_roots(e, 2)
    return roots[0] if roots else None


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
    if rhs.ctx != ctx:
        raise ValueError(f"mixed fields: {ctx} and {rhs.ctx}")
    p, n = ctx.p, ctx.n
    columns = []
    for i in range(n):
        basis = FieldElem(ctx, tuple(1 if j == i else 0 for j in range(n)))
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
        roots.append(FieldElem(ctx, tuple(vec)))
    roots.sort(key=lambda x: x.canon)
    return roots


def artin_schreier_roots(c):
    """All w with w^p - w == c, for p in {2, 3}.

    Nonempty exactly when the absolute trace of c vanishes; then there are
    exactly p roots differing by GF(p).
    """
    ctx = c.ctx
    if ctx.p not in (2, 3):
        raise ValueError(f"Artin-Schreier solve needs characteristic 2 or 3, got {ctx.p}")
    return linearized_roots(ctx.scalar(-1), c, k=1)


def absolute_trace(e):
    """Trace from GF(p^n) down to GF(p), returned as an int in [0, p)."""
    acc = e
    cur = e
    for _ in range(e.ctx.n - 1):
        cur = frobenius(cur, 1)
        acc = acc + cur
    return acc.coeffs[0]


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
        return super_ctx.element(e.coeffs)
    if sub.n == 1:
        return super_ctx.scalar(e.coeffs[0])
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
        if acc.is_zero() and (best is None or x.canon < best.canon):
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
        return str(e.coeffs[0])
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
        if ctx is not None and target != ctx:
            raise ValueError(f"element literal {s!r} does not live in {ctx}")
        coeffs = [int(t) for t in tail.split(",")]
        return target.element(coeffs)
    if ctx is None:
        raise ValueError(f"bare integer literal {s!r} needs a field context")
    return ctx.scalar(int(s))
