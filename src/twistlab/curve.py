"""Weierstrass curves over small finite fields.

A curve is a long Weierstrass equation

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

with coefficients in one FieldCtx.  Points are None (the point at
infinity) or (x, y) tuples of field elements.  Everything here is exact.
A point count over a field of at least `_BSGS_MIN_Q` elements is Mestre's
baby-step giant-step search in the Hasse interval, on a few points of the
curve and of its quadratic twist, and walks nothing.  Below that size, and
when the search cannot single the count out, it is one walk of the q
values of x that counts the y of each with one root test, with no point
and no element list built.
`enumerate_points` is the exhaustive listing, for callers that need the
points themselves.  A curve is never changed after construction, so its
discriminant, j-invariant, point count and points are each computed once,
on first use.
"""

import itertools
import math

from . import gf

# Counts over smaller fields walk them.  Break-even of the walk against the
# search, median of 20 random curves per field (none undecided): GF(2^5)
# 0.49 against 0.48 ms, GF(2^6) 0.98 against 0.61 ms, GF(2^7) 2.4 against
# 0.79 ms, GF(61) 0.51 against 0.41 ms, GF(1021) 8.7 against 0.91 ms.
_BSGS_MIN_Q = 64
# points of the curve, then of its quadratic twist, that one search tries
_BSGS_POINTS = 3


class WeierstrassCurve:
    """A long Weierstrass equation over a fixed finite field."""

    __slots__ = ("ctx", "a1", "a2", "a3", "a4", "a6", "_disc", "_j", "_count",
                 "_points")

    def __init__(self, ctx, a1, a2, a3, a4, a6):
        self.ctx = ctx
        coeffs = []
        for a in (a1, a2, a3, a4, a6):
            e = ctx.element(a)
            coeffs.append(e)
        self.a1, self.a2, self.a3, self.a4, self.a6 = coeffs
        self._disc = None
        self._j = None
        self._count = None
        self._points = None

    @property
    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other):
        if isinstance(other, WeierstrassCurve):
            return self.ctx == other.ctx and self.coefficients == other.coefficients
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.coefficients))

    def __repr__(self):
        names = ("a1", "a2", "a3", "a4", "a6")
        parts = ", ".join(f"{nm}={c}" for nm, c in zip(names, coefficient_strs(self)))
        return f"WeierstrassCurve({self.ctx}, {parts})"

    # standard quantities attached to the equation
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.coefficients
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self):
        if self._disc is None:
            b2, b4, b6, b8 = self.b_invariants()
            self._disc = -(b2 * b2 * b8) - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
        return self._disc

    def is_smooth(self):
        return not self.discriminant().is_zero()

    def j_invariant(self):
        if self._j is None:
            disc = self.discriminant()
            if disc.is_zero():
                raise ValueError("j-invariant undefined: singular equation")
            c4, _ = self.c_invariants()
            self._j = (c4 ** 3) / disc
        return self._j

    # points
    def contains(self, point):
        if point is None:
            return True
        x, y = point
        a1, a2, a3, a4, a6 = self.coefficients
        lhs = y * y + a1 * x * y + a3 * y
        rhs = x ** 3 + a2 * x * x + a4 * x + a6
        return lhs == rhs

    def enumerate_points(self):
        """All affine points plus infinity, x-column by x-column (cached).

        The exhaustive listing: it builds every field element and every
        point, so counting uses `point_count` instead.  Each x costs one
        root step (`_columns`).
        """
        if self._points is None:
            points = [None]
            for x, ys in _columns(self.ctx, self.coefficients,
                                  gf.enumerate_field(self.ctx)):
                points.extend((x, y) for y in ys)
            self._points = points
        return list(self._points)

    def point_count(self):
        """#E(F_q), the point at infinity included (cached).

        For a smooth curve over a field of at least `_BSGS_MIN_Q`
        elements, `_bsgs_count`: it walks nothing, and only its baby
        steps, about 2*q^(1/4), are held to the working limit.  When that
        search decides nothing, and over smaller fields, `_walk_count`,
        which walks the q values of x and so is held to the working limit
        like `gf.enumerate_field`.
        """
        if self._count is None:
            count = None
            if self.ctx.q >= _BSGS_MIN_Q and self.is_smooth():
                count = _bsgs_count(self)
            self._count = _walk_count(self) if count is None else count
        return self._count

    def trace_of_frobenius(self):
        return self.ctx.q + 1 - self.point_count()

    def is_supersingular(self):
        if not self.is_smooth():
            raise ValueError("supersingularity undefined: singular equation")
        return self.trace_of_frobenius() % self.ctx.p == 0

    def base_change(self, super_ctx):
        """The same equation viewed over an extension field (self over its own)."""
        if super_ctx is self.ctx:
            return self
        return WeierstrassCurve(
            super_ctx, *(gf.subfield_embed(a, super_ctx) for a in self.coefficients)
        )


def coefficient_strs(E):
    """a1, a2, a3, a4 and a6 of E in the textual element format."""
    return [gf.element_to_str(a) for a in E.coefficients]


def _negate(a, P):
    """-P on the long equation with coefficients a (Silverman III.2.3)."""
    if P is None:
        return None
    x, y = P
    return x, -y - a[0] * x - a[2]


def _add(a, P, Q):
    """P + Q on the long equation with coefficients a (Silverman III.2.3)."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, _ = a
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        # Q is P or -P; the denominator is 2*y1 + a1*x1 + a3 when Q = P
        den = y1 + y2 + a1 * x2 + a3
        if den.is_zero():
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * (lam + a1) - a2 - x1 - x2
    return x3, lam * (x1 - x3) - y1 - a1 * x3 - a3


def _multiple(a, m, P):
    """mP for m >= 0, by double-and-add."""
    R = None
    for bit in bin(m)[2:]:
        R = _add(a, R, R)
        if bit == "1":
            R = _add(a, R, P)
    return R


def _columns(ctx, a, xs):
    """(x, every y with (x, y) on the long equation a) for each x of xs.

    One root step per x.  Odd p: complete the square,
    (y + alpha/2)^2 = rhs + (alpha/2)^2 with alpha = a1*x + a3, then
    Euler's criterion and a square root.  p = 2: one y when alpha = 0,
    since squaring is bijective; otherwise y = alpha*w for the roots w of
    w^2 + w = rhs / alpha^2, on one echelon built before the walk.
    """
    a1, a2, a3, a4, a6 = a
    ech = gf.linearized_echelon(ctx.one) if ctx.p == 2 else None
    half = ctx.scalar((ctx.p + 1) // 2)  # 1/2 when p is odd
    for x in xs:
        rhs = ((x + a2) * x + a4) * x + a6
        alpha = a1 * x + a3
        if ech is not None:
            if alpha.is_zero():
                yield x, [gf.sqrt(rhs)]
            else:
                yield x, [alpha * w for w in ech.roots(rhs / (alpha * alpha))]
            continue
        shift = alpha * half
        rhs = rhs + shift * shift
        if rhs.is_zero():
            yield x, [-shift]
        elif gf.is_square(rhs):
            r = gf.sqrt(rhs)
            yield x, [r - shift, -r - shift]
        else:
            yield x, []


def _points(ctx, a):
    """Affine points of the long equation a: for each x in canonical order
    that has a y, (x, the least such y), with x outside GF(p) when n > 1.

    A curve defined over GF(p) has its points with x in GF(p) in
    E(GF(p^2)), whose orders are too small to decide a count, so for
    n > 1 the walk starts at the class of x.
    """
    xs = map(ctx.from_canon, range(ctx.p if ctx.n > 1 else 0, ctx.q))
    for x, ys in _columns(ctx, a, xs):
        if ys:
            yield x, min(ys)


def _twin_coefficients(E):
    """The long equation of E's quadratic twist E', whose count is
    2q + 2 - #E.

    Odd p: with d the least non-square, y^2 = d^3 * g(x/d) for g the
    completed square of E, g = x^3 + (b2/4)x^2 + (b4/2)x + b6/4.  p = 2:
    with d the least element of trace 1, E's equation plus
    d*(a1*x + a3)^2 on the right, which flips Tr(c) at every x with
    a1*x + a3 != 0.
    """
    ctx = E.ctx
    a1, a2, a3, a4, a6 = E.coefficients
    units = map(ctx.from_canon, range(1, ctx.q))
    if ctx.p == 2:
        d = next(u for u in units if gf.absolute_trace(u) == 1)
        return a1, a2 + d * a1 * a1, a3, a4, a6 + d * a3 * a3
    d = next(u for u in units if not gf.is_square(u))
    b2, b4, b6, _ = E.b_invariants()
    return 0, d * b2 / 4, 0, d * d * b4 / 2, d ** 3 * b6 / 4


def _interval_orders(a, P, lo, width):
    """Every m in [lo, lo + width] with mP = O, ascending, in about
    2*sqrt(width) group operations; None when P's order is below the
    number of baby steps, so that too many m qualify to list.

    Baby steps jP, 0 <= j < s, are distinct when no 0 < j < s has jP = O;
    then m = lo + k*s + j has mP = O exactly when jP = -(lo + k*s)P, which
    the giant steps look up.
    """
    s = math.isqrt(width) + 1
    baby, R = {}, None
    for j in range(s):
        if j and R is None:
            return None
        baby[R] = j
        R = _add(a, R, P)
    step, G = _negate(a, R), _negate(a, _multiple(a, lo, P))
    found = []
    for i in range(0, width + 1, s):
        j = baby.get(G)
        if j is not None and i + j <= width:
            found.append(lo + i + j)
        G = _add(a, G, step)
    return found


def _bsgs_count(E):
    """#E(F_q) for a smooth E by Mestre's baby-step giant-step method, or
    None when its points and its twin's leave more than one candidate.

    Every point P of E has #E * P = O, and #E lies in the Hasse interval
    [q + 1 - 2*sqrt(q), q + 1 + 2*sqrt(q)], so when exactly one m in the
    interval has mP = O for every point tried, m is #E (Schoof, JTNB 7,
    1995, section 3).  The first point whose order is not tiny lists its
    m by `_interval_orders`; later points keep the candidates m with
    mP = O.  After `_BSGS_POINTS` points of E (`_points`), as many points
    of its quadratic twist E' keep the m with (2q + 2 - m)P' = O; by
    Mestre's theorem, over a prime above 229 one of E and E' has a point
    that decides (Cremona and Sutherland, JTNB 22, 2010).  The baby steps,
    about 2*q^(1/4) points held at once, are held to the working limit.
    """
    ctx = E.ctx
    q = ctx.q
    half = math.isqrt(4 * q)
    width = 2 * half
    steps = math.isqrt(width) + 1  # as in `_interval_orders`
    gf._check_walk(steps, f"counting points over {ctx} takes {steps} baby steps")
    candidates = None
    for twin in (False, True):
        a = _twin_coefficients(E) if twin else E.coefficients
        for P in itertools.islice(_points(ctx, a), _BSGS_POINTS):
            if candidates is None:
                found = _interval_orders(a, P, q + 1 - half, width)
                if found is None:
                    continue
                candidates = [2 * q + 2 - m for m in found] if twin else found
            else:
                candidates = [m for m in candidates if _multiple(
                    a, 2 * q + 2 - m if twin else m, P) is None]
            if len(candidates) == 1:
                return candidates[0]
    return None


def _walk_count(E):
    """#E as 1 + (the number of y at each x, summed over x), on one walk
    of the field's elements; no point and no element list is built.

    - Odd p: with h1 = a1/2 and h3 = a3/2, completing the square gives
      (y + h1*x + h3)^2 = x^3 + (a2 + h1^2)x^2 + (a4 + 2*h1*h3)x + a6 + h3^2,
      so x has one y where the right side is 0, two where it is a nonzero
      square and none elsewhere.
    - p = 2: with alpha = a1*x + a3, x has one y when alpha = 0 (squaring
      is bijective); otherwise y = alpha*w turns the equation into
      w^2 + w = rhs / alpha^2, with two roots when its absolute trace is 0
      and none when it is 1.
    """
    ctx = E.ctx
    xs = gf._field_walk(ctx)
    a1, a2, a3, a4, a6 = E.coefficients
    ys = 0
    if ctx.p == 2:
        trace = gf.absolute_trace
        for x in xs:
            alpha = a1 * x + a3
            if not alpha:
                ys += 1
            elif not trace((((x + a2) * x + a4) * x + a6) / (alpha * alpha)):
                ys += 2
        return 1 + ys
    half = ctx.scalar((ctx.p + 1) // 2)
    h1, h3 = a1 * half, a3 * half
    c2, c1, c0 = a2 + h1 * h1, a4 + 2 * h1 * h3, a6 + h3 * h3
    is_square = gf.is_square
    for x in xs:
        v = ((x + c2) * x + c1) * x + c0
        if not v:
            ys += 1
        elif is_square(v):
            ys += 2
    return 1 + ys


def from_short(ctx, a, b):
    """Curve from a two-parameter short form.

    Odd characteristic: y^2 = x^3 + a*x + b.  Characteristic 2 has no such
    smooth model, so the convention is y^2 + y = x^3 + a*x + b there.
    """
    a = ctx.element(a)
    b = ctx.element(b)
    if ctx.p == 2:
        return WeierstrassCurve(ctx, 0, 0, 1, a, b)
    return WeierstrassCurve(ctx, 0, 0, 0, a, b)
