"""Reference implementations that only the tests compare against."""

import functools

from twistlab import gf
from twistlab.autmap import (
    CurveIsomorphism, compose, find_isomorphisms, transform_coefficients,
)
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


# dense polynomials over GF(p) as coefficient lists, ascending powers

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


def is_irreducible(coeffs, p):
    """Rabin's test for a monic polynomial over GF(p), coeffs ascending.

    Polynomial arithmetic mod f with a gcd, as `gf` picked its moduli
    before it ran the test on the field kernels.  Reference for
    `gf._is_field`.
    """
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


def modulus_candidates(p, n):
    """Monic degree-n candidates with a nonzero constant term, in order."""
    for k in range(p**n):
        digits = []
        m = k
        for _ in range(n):
            digits.append(m % p)
            m //= p
        if digits[0]:
            yield tuple(digits) + (1,)


def smallest_modulus(p, n):
    """Lexicographically smallest monic irreducible of degree n over GF(p)."""
    if n == 1:
        return (0, 1)
    return next(c for c in modulus_candidates(p, n) if is_irreducible(c, p))


def exhaustive_isomorphisms(E1, E2, field):
    """Isomorphism search by direct parameter scan; oracle for small fields.

    Scans (u, s, r) with early pruning on the a1 and a2 relations; the
    remaining parameter t is pinned by a linear or linearized equation.
    """
    if field.q ** 3 > gf.working_limit():
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
    order; the smooth curves with j(E) are yielded.  The family whose
    classes `twists._short_classes` finds.
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
    `twists._short_classes`.
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


# walks over an automorphism group's Cayley table, one loop per question

# curves whose groups the walks are compared on, as (p, n, coefficients):
# j = 0 in characteristic 2 and 3, j = 0 and 1728 for p >= 5, and generic j
WALK_CURVES = (
    [(2, n, (0, 0, 1, 0, 0)) for n in range(1, 5)]
    + [(3, n, (0, 0, 0, -1, 0)) for n in range(1, 5)]
    + [(p, 1, c) for p in (5, 7, 13) for c in ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0))]
    + [(2, 3, (1, 0, 0, 0, 1)), (3, 3, (0, 1, 0, 0, 1))]
)


def brute_force_cayley(elements):
    """Cayley table of a group of automorphisms by composing every pair.

    Entry [a][b] is the index of elements[a] o elements[b]; KeyError when
    a product falls outside the set.
    """
    index = {f.param_key(): i for i, f in enumerate(elements)}
    return tuple(
        tuple(index[compose(a, b).param_key()] for b in elements) for a in elements
    )


def is_group_automorphism(table, perm):
    """Whether perm is a permutation of the indices of a Cayley table with
    perm(a * b) = perm(a) * perm(b) for every pair: n^2 lookups."""
    n = len(table)
    return sorted(perm) == list(range(n)) and all(
        perm[table[a][b]] == table[perm[a]][perm[b]] for a in range(n) for b in range(n)
    )


def power_order(G, i):
    """Order of element i: multiply by i until the identity comes back."""
    k, cur = 1, i
    while cur != 0:
        cur = G.cayley[cur][i]
        k += 1
    return k


def conjugacy_classes(G):
    """Classes {g * t * g^-1 : g in G}, each sorted, by least element."""
    table, inv, n = G.cayley, G.inverses, G.order
    seen, classes = set(), []
    for t in range(n):
        if t not in seen:
            orbit = tuple(sorted({table[table[g][t]][inv[g]] for g in range(n)}))
            seen.update(orbit)
            classes.append(orbit)
    return classes


def center(G):
    """The elements commuting with every element, by a full table scan."""
    table, n = G.cayley, G.order
    return tuple(i for i in range(n) if all(table[i][j] == table[j][i] for j in range(n)))


def _product_closure(table, elems):
    """The subgroup generated by elems: add pairwise products until none is new."""
    elems = set(elems) | {0}
    while True:
        new = {table[a][b] for a in elems for b in elems} - elems
        if not new:
            return frozenset(elems)
        elems |= new


def fixpoint_subgroups(G):
    """Every subgroup as (indices, order, is_cyclic, is_normal), sorted.

    Found by closing each known subgroup together with one more element
    until no new subgroup appears, which assumes nothing about the number
    of generators; cyclic when an element's power order is the subgroup
    order, normal when every conjugate of a member is a member.
    """
    table, inv, n = G.cayley, G.inverses, G.order
    found = {frozenset({0})}
    queue = [frozenset({0})]
    while queue:
        H = queue.pop()
        for g in range(n):
            if g not in H:
                K = _product_closure(table, H | {g})
                if K not in found:
                    found.add(K)
                    queue.append(K)
    out = []
    for H in found:
        indices = tuple(sorted(H))
        order = len(indices)
        is_cyclic = any(power_order(G, h) == order for h in indices)
        is_normal = all(table[table[g][h]][inv[g]] in H for g in range(n) for h in indices)
        out.append((indices, order, is_cyclic, is_normal))
    return sorted(out, key=lambda s: (s[1], s[0]))


def twisted_partition(A, members):
    """Classes {s^-1 * t * Fr(s) : s in members} of a Frobenius-stable
    subgroup, each sorted, by least element."""
    table, inv, perm = A.group.cayley, A.group.inverses, A.perm
    seen, classes = set(), []
    for t in sorted(members):
        if t not in seen:
            orbit = tuple(sorted({table[table[inv[s]][t]][perm[s]] for s in members}))
            seen.update(orbit)
            classes.append(orbit)
    return sorted(classes)


def coboundary_sets(A):
    """B_r = {s^-1 * Fr^r(s) : s in G} for r = 0 .. action order - 1."""
    table, inv, n = A.group.cayley, A.group.inverses, A.group.order
    sets = []
    for r in range(A.order):
        images = range(n)
        for _ in range(r):
            images = [A.perm[i] for i in images]
        sets.append(frozenset(table[inv[s]][images[s]] for s in range(n)))
    return sets


def cocycle_walk(A, phi):
    """(cocycle order, splitting degree) of the cocycle with value phi at
    Frobenius, from v(j + 1) = v(j) * Fr^j(phi) over |G| * m steps."""
    table, perm = A.group.cayley, A.perm
    cob = coboundary_sets(A)
    order = degree = None
    value, fr_phi = 0, phi
    for j in range(1, A.group.order * A.order + 1):
        value = table[value][fr_phi]
        fr_phi = perm[fr_phi]
        if order is None and value == 0:
            order = j
        if degree is None and value in cob[j % A.order]:
            degree = j
    return order, degree


def cocycle_value(c, j):
    """Value of the cocycle c at Fr^j, the left-to-right product
    Phi * Fr(Phi) * ... * Fr^(j-1)(Phi) of Phi = c.image; j = 0 gives the
    identity."""
    if not isinstance(j, int) or j < 0:
        raise ValueError(f"cocycle arguments are nonnegative integers, got {j}")
    table, perm = c.action.group.cayley, c.action.perm
    value, fr_phi = 0, c.index
    for _ in range(j):
        value = table[value][fr_phi]
        fr_phi = perm[fr_phi]
    return c.action.group.elements[value]


# certificates that check class data without an isomorphism search between
# distinct curves; neither catches two classes of equal size swapping labels

def frobenius_fixed_classes(A):
    """The conjugacy classes C of A.group with Fr(C) == C.

    Brauer's permutation lemma: Frobenius permutes the conjugacy classes
    and the twisted classes alike, so there are as many fixed conjugacy
    classes as twisted classes {s^-1 * t * Fr(s)}.
    """
    return [C for C in conjugacy_classes(A.group)
            if sorted(A.perm[i] for i in C) == list(C)]


def orbit_stabilizer_products(report):
    """Per twist entry, its class size times the order of Aut(T) over the base.

    The stabilizer of t under s: t -> s^-1 * t * Fr(s) is Aut(T) over the
    base for the twist T of t, so each product is the order of Aut(E).
    """
    return [e.frob_class.size * len(find_isomorphisms(e.curve, e.curve, report.base))
            for e in report.entries]
