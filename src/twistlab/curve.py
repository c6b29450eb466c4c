"""Weierstrass curves over small finite fields.

A curve is a long Weierstrass equation

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

with coefficients in one FieldCtx.  Points are None (the point at
infinity) or (x, y) tuples of field elements.  Everything here is exact.
A point count is a character sum over the field's canonical ints, one
walk of q values with no point built; `enumerate_points` is the
exhaustive listing, for callers that need the points themselves.  A curve
is never changed after construction, so its discriminant, j-invariant,
point count and points are each computed once, on first use.
"""

from . import gf


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
        parts = ", ".join(f"{nm}={gf.element_to_str(a)}" for nm, a in zip(names, self.coefficients))
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
        root step: a square root (None when there is none) for odd p, and
        for p = 2 the `roots` of w^2 + w = c on one echelon built before
        the walk.
        """
        if self._points is not None:
            return list(self._points)
        ctx = self.ctx
        a1, a2, a3, a4, a6 = self.coefficients
        points = [None]
        if ctx.p == 2:
            ech = gf.linearized_echelon(ctx.one)
            for x in gf.enumerate_field(ctx):
                rhs = ((x + a2) * x + a4) * x + a6
                alpha = a1 * x + a3
                if alpha.is_zero():
                    # y^2 = rhs: unique root since squaring is bijective
                    points.append((x, gf.sqrt(rhs)))
                else:
                    # substitute y = alpha*w: w^2 + w = rhs / alpha^2
                    for w in ech.roots(rhs / (alpha * alpha)):
                        points.append((x, alpha * w))
        else:
            inv2 = ctx.scalar(2).inv()
            for x in gf.enumerate_field(ctx):
                # complete the square: (y + (a1*x + a3)/2)^2 = rhs + ((a1*x + a3)/2)^2
                shift = (a1 * x + a3) * inv2
                rhs = ((x + a2) * x + a4) * x + a6 + shift * shift
                if rhs.is_zero():
                    points.append((x, -shift))
                    continue
                r = gf.sqrt(rhs)
                if r is not None:
                    points.append((x, r - shift))
                    points.append((x, -r - shift))
        self._points = points
        return list(points)

    def point_count(self):
        """#E(F_q), the point at infinity included (cached).

        N = 1 + (the number of y at each x, summed over x), which is q + 1
        plus a character sum, computed on canonical ints with the kernels
        that read the field's tables (`_walk_kernels`): no point and no
        `FieldElem` is built.  It walks the q values of x, so it is held
        to the working limit like `gf.enumerate_field`, and the first walk
        of a field builds its tables.

        - Odd p: (2y + a1*x + a3)^2 = 4x^3 + b2*x^2 + 2*b4*x + b6, so x
          has 1 + chi(right side) values of y, chi the quadratic
          character: the parity of the log, 0 at 0.
        - p = 2: with alpha = a1*x + a3, x has one y when alpha = 0
          (squaring is bijective); otherwise y = alpha*w turns the
          equation into w^2 + w = c, c = rhs / alpha^2, with two roots
          when Tr(c) = 0 and none when it is 1.  Tr(c) is the parity of
          the bits c shares with the field's trace form.
        """
        if self._count is None:
            ctx = self.ctx
            gf._walk_tables(ctx)
            total = (_trace_character_sum(self) if ctx.p == 2
                     else _quadratic_character_sum(self))
            self._count = ctx.q + 1 + total
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


def _quadratic_character_sum(E):
    """Sum over x of chi(4x^3 + b2*x^2 + 2*b4*x + b6): odd p, tabled field."""
    ctx = E.ctx
    p, q, log = ctx.p, ctx.q, ctx._log
    b2, b4, b6, _ = E.b_invariants()
    c3, c2, c1, c0 = 4 % p, b2.canon, (2 * b4).canon, b6.canon
    if ctx.n == 1:
        values = ((((c3 * x + c2) * x + c1) * x + c0) % p for x in range(p))
    else:
        mul, add, _ = ctx._walk_kernels
        values = (add(mul(add(mul(add(mul(c3, x), c2), x), c1), x), c0)
                  for x in range(q))
    odd = zeros = 0
    for v in values:
        if v:
            odd += log[v] & 1
        else:
            zeros += 1
    return q - zeros - 2 * odd


def _trace_character_sum(E):
    """Sum over x with alpha = a1*x + a3 nonzero of (-1)^Tr(rhs / alpha^2):
    p = 2, tabled field."""
    ctx = E.ctx
    (mul, add, inv), form = ctx._walk_kernels, gf._trace_form(ctx)
    a1, a2, a3, a4, a6 = (a.canon for a in E.coefficients)
    units = odd = 0
    for x in range(ctx.q):
        alpha = add(mul(a1, x), a3)
        if alpha:
            rhs = add(mul(add(mul(add(x, a2), x), a4), x), a6)
            units += 1
            odd += (mul(rhs, inv(mul(alpha, alpha))) & form).bit_count() & 1
    return units - 2 * odd


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
