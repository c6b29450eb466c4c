"""Reference implementations that only the tests compare against."""

import functools

from twistlab import gf
from twistlab.autmap import CurveIsomorphism, find_isomorphisms, transform_coefficients
from twistlab.curve import WeierstrassCurve


def schoolbook_mul(a, b, ctx):
    """Product of two coefficient vectors of ctx, by polynomial arithmetic.

    The field product before elements were stored as integers: multiply
    the polynomials, reduce by the monic modulus, and take every
    coefficient mod p.
    """
    p, n = ctx.p, ctx.n
    if n == 1:
        return ((a[0] * b[0]) % p,)
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
    return tuple(c % p for c in out[:n])


def schoolbook_pow(a, e, ctx):
    """a^e on coefficient vectors by square-and-multiply over schoolbook_mul."""
    result = (1,) + (0,) * (ctx.n - 1)
    while e:
        if e & 1:
            result = schoolbook_mul(result, a, ctx)
        a = schoolbook_mul(a, a, ctx)
        e >>= 1
    return result


def exhaustive_isomorphisms(E1, E2, field):
    """Isomorphism search by direct parameter scan; oracle for small fields.

    Scans (u, s, r) with early pruning on the a1 and a2 relations; the
    remaining parameter t is pinned by a linear or linearized equation.
    """
    if field.q ** 3 > gf.split_limit():
        raise gf.LimitExceededError(
            f"parameter scan over {field} exceeds the configured limit"
        )
    if E1.ctx != E2.ctx:
        raise ValueError("curves must share a base field")
    S = E1.base_change(field)
    T = E2.base_change(field)
    a1s, a2s, a3s, a4s, a6s = S.coefficients
    a1t, a2t, a3t, a4t, a6t = T.coefficients
    elements = gf.enumerate_field(field)
    p = field.p
    out = []
    for u in elements[1:]:
        for s in elements:
            b1 = u * a1s - 2 * s
            if b1 != a1t:
                continue
            for r in elements:
                b2 = u ** 2 * a2s + s * b1 - 3 * r + s * s
                if b2 != a2t:
                    continue
                if p != 2:
                    ts = [(u ** 3 * a3s - r * b1 - a3t) / 2]
                else:
                    b3 = u ** 3 * a3s - r * b1
                    if b3 != a3t:
                        continue
                    if not b1.is_zero():
                        ts = [(a4t + u ** 4 * a4s + s * b3 + r * s * b1 + r * r) / b1]
                    elif u ** 4 * a4s + s * b3 + r * r != a4t:
                        continue
                    else:
                        rhs = a6t + u ** 6 * a6s + r * a4t + r * r * a2t + r ** 3
                        ts = gf.linearized_roots(a3t, rhs, k=1)
                for t in ts:
                    if transform_coefficients(S.coefficients, u, r, s, t) == T.coefficients:
                        out.append(CurveIsomorphism(field, S, T, u, r, s, t))
    out.sort(key=CurveIsomorphism.param_key)
    return out


def short_grid(E, base):
    """The short models over `base` sharing j(E), by a full coefficient scan.

    Each short-form shape that `autmap.reduction_isomorphism` targets for
    (p, j) has its free coefficients run over the field in canonical
    order; the smooth curves with j(E) are yielded.  Reference for
    `twists._short_family`.
    """
    p = base.p
    j = E.base_change(base).j_invariant()
    elements = gf.enumerate_field(base)
    nonzero = elements[1:]
    zero, one = base.zero, base.one
    if p == 2 and j.is_zero():
        grid = ((zero, zero, a3, a4, a6)
                for a3 in nonzero for a4 in elements for a6 in elements)
    elif p == 2:
        grid = ((one, a2, zero, zero, j.inv()) for a2 in elements)
    elif p == 3 and j.is_zero():
        grid = ((zero, zero, zero, a4, a6) for a4 in nonzero for a6 in elements)
    elif p == 3:
        grid = ((zero, a2, zero, a4, a6)
                for a2 in nonzero for a4 in elements for a6 in elements)
    elif j.is_zero():
        grid = ((zero, zero, zero, zero, a6) for a6 in nonzero)
    elif j == 1728:
        grid = ((zero, zero, zero, a4, zero) for a4 in nonzero)
    else:
        grid = ((zero, zero, zero, a4, a6) for a4 in nonzero for a6 in nonzero)
    for coeffs in grid:
        T = WeierstrassCurve(base, *coeffs)
        if T.is_smooth() and T.j_invariant() == j:
            yield T


def grid_class_representatives(E, base):
    """The first `short_grid` curve of each base-isomorphism class.

    A grid curve starts a new class unless `find_isomorphisms` over `base`
    links it to an earlier representative.  Reference for
    `twists._class_representatives`.
    """
    reps = []
    for T in short_grid(E, base):
        if not any(find_isomorphisms(R, T, base) for R in reps):
            reps.append(T)
    return reps


def assert_transforms(f):
    """f's parameters carry its source equation exactly onto its target.

    The identity the isomorphism constructor checks, asserted for maps the
    library derives without checking it.
    """
    assert f.source.ctx is f.field and f.target.ctx is f.field
    computed = transform_coefficients(f.source.coefficients, *f.params)
    assert computed == f.target.coefficients, f


# integer polynomials in (a1, a2, a3, a4, a6): {exponent tuple: coefficient}

def _poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_lin(*terms):
    """Sum of c * f over (c, f) pairs."""
    out = {}
    for c, f in terms:
        for m, k in f.items():
            out[m] = out.get(m, 0) + c * k
    return {m: k for m, k in out.items() if k}


@functools.lru_cache(maxsize=None)
def _c4_and_discriminant():
    """c4 and the discriminant over Z, the latter as (c4^3 - c6^2) / 1728.

    This route never uses b8 or the b-invariant discriminant formula of
    `curve`; the division is exact over Z, so the result is valid in every
    characteristic once its coefficients are reduced.
    """
    a1, a2, a3, a4, a6 = (
        {tuple(int(i == k) for i in range(5)): 1} for k in range(5)
    )
    b2 = _poly_lin((1, _poly_mul(a1, a1)), (4, a2))
    b4 = _poly_lin((2, a4), (1, _poly_mul(a1, a3)))
    b6 = _poly_lin((1, _poly_mul(a3, a3)), (4, a6))
    b2b2 = _poly_mul(b2, b2)
    c4 = _poly_lin((1, b2b2), (-24, b4))
    c6 = _poly_lin((-1, _poly_mul(b2b2, b2)), (36, _poly_mul(b2, b4)), (-216, b6))
    num = _poly_lin((1, _poly_mul(_poly_mul(c4, c4), c4)), (-1, _poly_mul(c6, c6)))
    assert all(c % 1728 == 0 for c in num.values())
    return c4, {m: c // 1728 for m, c in num.items()}


def _evaluate(poly, coeffs):
    ctx = coeffs[0].ctx
    acc = ctx.zero
    for m, c in poly.items():
        term = ctx.scalar(c)
        for a, e in zip(coeffs, m):
            term = term * a ** e
        acc = acc + term
    return acc


def discriminant_oracle(E):
    return _evaluate(_c4_and_discriminant()[1], E.coefficients)


def j_invariant_oracle(E):
    """c4^3 / discriminant, or None for a singular equation."""
    c4, disc = (_evaluate(f, E.coefficients) for f in _c4_and_discriminant())
    return None if disc.is_zero() else c4 ** 3 / disc
