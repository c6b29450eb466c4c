"""Isomorphisms between Weierstrass curves and automorphism groups.

An isomorphism is the standard change of variables

    (x, y) |-> (u^2*x + r, u^3*y + u^2*s*x + t),  u != 0,

with parameters in a field that may extend the curves' base field.  The
identity transform_coefficients(source, u, r, s, t) == target proves that
the map carries every source point onto the target, and every map here
satisfies it.  Each map is either checked or derived:

- checked: built from parameters that are new, through the public
  constructor, which verifies the identity exactly.  These are the maps a
  caller builds, `identity_map`, `minus_one_map` and `galois_apply` (whose
  identity holds only when both curves are defined over `base`);
- derived: built by `CurveIsomorphism._derived`, which does not re-verify,
  from parameters whose identity is already known.  The (u, r, s, t) maps
  form a group under `_compose_params`, so `compose` and `invert` of maps
  that satisfy the identity satisfy it too; `embed_isomorphism` applies a
  field embedding, a ring homomorphism, to both sides of it; and
  `reduction_isomorphism` defines its target as the transform's image.
  The cores of `_reduced_isomorphisms` are plain (u, r, s, t) tuples
  between two short models of one j-invariant, each solving the
  identity's equations one by one (the last equation, where it is not
  solved, is forced by the equal j); `find_isomorphisms`,
  `automorphism_group` and the twist labelling in `twists` compose them
  with the reduction maps.

Automorphism groups are computed over the minimal extension carrying all
of them.  Their shape is known from (p, j): u maps Aut(E) onto the m-th
roots of unity with a kernel of order k (`_aut_shape`), so the search
tries only the degrees dividing m*k that carry those roots, and the group
is the closure of at most two cores conjugated back to the curve, one
whose u has order m and one in the kernel.  It keeps one walk from the
identity, every other element written as a word parent(e) o g_j (see
`automorphism_group`).  The walk has two readers: the Cayley table,
filled by at most 2n compositions and lookups, and in `twistcoh` the
Frobenius action, which looks up the images of the generators only.
Structure analysis reads the table through two walks:

- the closure `_subgroup_closure(table, seed)`, the subgroup a seed
  generates: element orders, cyclic subgroups and the lattice;
- the twisted class `_twisted_class(G, t, members, perm)`, the set
  {s^-1 * t * perm(s) : s in members} for an automorphism perm of G on
  indices: conjugacy classes (perm the identity), normality, and in
  `twistcoh` the Frobenius-twisted classes and coboundary sets.

Every group that occurs (C2, C4, C6, the order-12 group at p = 3 and
SL(2,3) at p = 2) has every subgroup generated by two elements, so the
lattice is the set of closures of pairs; since <a, b> depends only on
<a> and <b>, one generator per cyclic subgroup suffices.
"""

import itertools
import math

from . import gf
from .curve import WeierstrassCurve, coefficient_strs

def _fault(E, field, stage, what):
    """An invariant failure that names the curve, the field and the stage."""
    curve = ",".join(coefficient_strs(E))
    return RuntimeError(f"{stage} of {curve} over {field}: {what}")


def transform_coefficients(coeffs, u, r, s, t):
    """Coefficients of the image curve under (u,r,s,t) applied to `coeffs`."""
    a1, a2, a3, a4, a6 = coeffs
    b1 = u * a1 - 2 * s
    b2 = u ** 2 * a2 + s * b1 - 3 * r + s * s
    b3 = u ** 3 * a3 - r * b1 - 2 * t
    b4 = u ** 4 * a4 + s * b3 - 2 * r * b2 + (t + r * s) * b1 - 3 * r * r + 2 * s * t
    b6 = u ** 6 * a6 - r * b4 - r * r * b2 - r ** 3 + t * b3 + t * t + r * t * b1
    return (b1, b2, b3, b4, b6)


class CurveIsomorphism:
    """A change of variables carrying one Weierstrass curve onto another.

    The constructor is the checked path: curves given over a subfield are
    base-changed into `field`, and the parameters must transform the
    source equation exactly into the target equation, or ValueError is
    raised.  `_derived` is the unchecked path for maps whose identity
    is already known (see the module docstring).
    """

    __slots__ = ("field", "source", "target", "u", "r", "s", "t")

    def __init__(self, field, source, target, u, r, s, t):
        self.field = field
        self.source = source.base_change(field)
        self.target = target.base_change(field)
        self.u = field.element(u)
        self.r = field.element(r)
        self.s = field.element(s)
        self.t = field.element(t)
        if self.u.is_zero():
            raise ValueError("isomorphism scale u must be nonzero")
        computed = transform_coefficients(
            self.source.coefficients, self.u, self.r, self.s, self.t
        )
        if computed != self.target.coefficients:
            raise ValueError("parameters do not transform the source into the target")

    @classmethod
    def _derived(cls, field, source, target, u, r, s, t):
        """A map whose identity is already proved; nothing is re-verified.

        The curves must already be over `field` and the parameters be
        elements of it.
        """
        f = object.__new__(cls)
        f.field, f.source, f.target = field, source, target
        f.u, f.r, f.s, f.t = u, r, s, t
        return f

    def apply(self, point):
        """Image of a source point; None is the point at infinity."""
        if point is None:
            return None
        x, y = point
        u2 = self.u * self.u
        return (u2 * x + self.r, self.u * u2 * y + u2 * self.s * x + self.t)

    @property
    def params(self):
        return (self.u, self.r, self.s, self.t)

    def param_key(self):
        """Canonical sort key: parameter coefficient vectors as integers."""
        return (self.u.canon, self.r.canon, self.s.canon, self.t.canon)

    def is_identity(self):
        return (
            self.u == self.field.one
            and self.r.is_zero()
            and self.s.is_zero()
            and self.t.is_zero()
        )

    def __eq__(self, other):
        if isinstance(other, CurveIsomorphism):
            return (
                self.field == other.field
                and self.source == other.source
                and self.target == other.target
                and self.params == other.params
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.params))

    def __repr__(self):
        return f"CurveIsomorphism{isomorphism_to_str(self)}"


def isomorphism_to_str(f):
    """Textual form `(u,r,s,t)@p^m` with parameters in gf element format."""
    body = ",".join(gf.element_to_str(x) for x in f.params)
    return f"({body})@{f.field.p}^{f.field.n}"


def identity_map(E, field=None):
    ctx = E.ctx if field is None else field
    return CurveIsomorphism(ctx, E, E, 1, 0, 0, 0)


def minus_one_map(E, field=None):
    """The negation automorphism (x,y) |-> (x, -y - a1*x - a3)."""
    ctx = E.ctx if field is None else field
    Ef = E.base_change(ctx)
    return CurveIsomorphism(ctx, Ef, Ef, ctx.scalar(-1), 0, -Ef.a1, -Ef.a3)


def embed_isomorphism(f, field):
    """The same map viewed over an extension of its field of definition."""
    if field == f.field:
        return f
    return CurveIsomorphism._derived(
        field,
        f.source.base_change(field),
        f.target.base_change(field),
        *(gf.subfield_embed(x, field) for x in f.params),
    )


def compose(f, g):
    """f o g: apply g first, then f.  Requires g.target = f.source."""
    field = f.field
    if g.field != field:
        if g.field.p != field.p:
            raise ValueError("cannot compose maps over different characteristics")
        field = gf.field_create(field.p, math.lcm(field.n, g.field.n))
        f = embed_isomorphism(f, field)
        g = embed_isomorphism(g, field)
    if g.target != f.source:
        raise ValueError("chain mismatch: g.target differs from f.source")
    return CurveIsomorphism._derived(
        field, g.source, f.target, *_compose_params(f.params, g.params)
    )


def _compose_params(f_params, g_params):
    """The (u, r, s, t) of f o g from those of f and g over one field."""
    fu, fr, fs, ft = f_params
    gu, gr, gs, gt = g_params
    fu2 = fu * fu
    return (fu * gu, fu2 * gr + fr, fu * gs + fs, fu2 * fu * gt + fu2 * fs * gr + ft)


def invert(f):
    u_inv = f.u.inv()
    u_inv2 = u_inv * u_inv
    r = -f.r * u_inv2
    s = -f.s * u_inv
    t = (f.s * f.r - f.t) * u_inv2 * u_inv
    return CurveIsomorphism._derived(f.field, f.target, f.source, u_inv, r, s, t)


def galois_apply(f, base, k=1):
    """Apply the q-power Frobenius of `base` to the map parameters, k times.

    Both curves must be defined over `base` (coefficients fixed by the
    q-power map); otherwise the new parameters do not carry the source onto
    the target, and the constructor rejects them.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"Frobenius power must be a nonnegative integer, got {k}")
    if base.p != f.field.p or f.field.n % base.n != 0:
        raise ValueError(f"{base} is not a subfield of {f.field}")
    shift = base.n * k
    u, r, s, t = (gf.frobenius(x, shift) for x in f.params)
    return CurveIsomorphism(f.field, f.source, f.target, u, r, s, t)


# ---------------------------------------------------------------------------
# reduction to per-characteristic short forms

def reduction_isomorphism(E):
    """An isomorphism from E to its short model over E's own field.

    Target shapes: p >= 5 gives y^2 = x^3 + a4*x + a6; p = 3 gives
    y^2 = x^3 + a2*x^2 + a4*x + a6 (a2 = 0 exactly when j = 0); p = 2 gives
    y^2 + a3*y = x^3 + a4*x + a6 when j = 0 and
    y^2 + x*y = x^3 + a2*x^2 + a6 when j != 0.
    """
    ctx = E.ctx
    p = ctx.p
    a1, a2, a3, a4, _ = E.coefficients
    if p == 2:
        if a1.is_zero():
            params = (ctx.one, a2, ctx.zero, ctx.zero)
        else:
            u = a1.inv()
            r = u ** 3 * a3
            params = (u, r, ctx.zero, u ** 4 * a4 + r * r)
    elif p == 3:
        params = (ctx.one, ctx.zero, -a1, -a3)
    else:
        s = a1 / 2
        params = (ctx.one, (a2 + s * s) / 3, s, a3 / 2)
    target = WeierstrassCurve(ctx, *transform_coefficients(E.coefficients, *params))
    return CurveIsomorphism._derived(ctx, E, target, *params)


def _reduced_isomorphisms(R1, R2):
    """The (u, r, s, t) of every isomorphism between two short models over
    their common field, as tuples of field elements.

    The models must be smooth with one j-invariant.  Each branch writes
    out b1..b6 of `transform_coefficients` on its short forms and solves
    them in order: first the unit u from a root-of-unity style equation,
    then the additive parameters from linearized equations, each through
    one `gf.Echelon` built before the loops.  An equation that is not
    solved is forced by the equal j-invariants, as each branch comment
    shows, so every tuple satisfies the identity without a test or a
    re-check.  `find_isomorphisms` conjugates every solution by the two
    reduction maps; `automorphism_group` counts them to pick its degree
    and conjugates the one or two that generate the group.
    """
    ctx = R1.ctx
    p = ctx.p
    zero = ctx.zero
    if p == 2:
        if R1.a1.is_zero():
            # j = 0, forms y^2 + a3*y = x^3 + a4*x + a6; b1 = 0 always and
            #   b2 = s^2 + r: r = s^2 makes it 0,
            #   b3 = u^3*a3S: u is a cube root of a3T/a3S,
            #   b4 = u^4*a4S + s^4 + a3T*s: s from the k = 2 linearized solve,
            #   b6 = u^6*a6S + r*a4T + r^3 + t^2 + a3T*t: t from the k = 1 solve
            solve_s = gf.linearized_echelon(R2.a3, 2)
            solve_t = gf.linearized_echelon(R2.a3, 1)
            for u in gf.nth_roots(R2.a3 / R1.a3, 3):
                for s in solve_s.roots(R2.a4 + u ** 4 * R1.a4):
                    r = s * s
                    for t in solve_t.roots(R2.a6 + u ** 6 * R1.a6 + r * R2.a4 + r ** 3):
                        yield (u, r, s, t)
        else:
            # j != 0, forms y^2 + x*y = x^3 + a2*x^2 + a6; b1 = u forces
            # u = 1, b3 = r forces r = 0, then b4 = t forces t = 0;
            #   b2 = a2S + s^2 + s: s from the k = 1 solve with a = 1,
            #   b6 = a6S: equals a6T, since j = 1/a6 on both forms
            for s in gf.linearized_roots(ctx.one, R1.a2 + R2.a2):
                yield (ctx.one, zero, s, zero)
    elif p == 3:
        # b1 = s forces s = 0, then b3 = t forces t = 0
        if R1.a2.is_zero():
            # j = 0, forms y^2 = x^3 + a4*x + a6 with a4 != 0; b2 = 0 always,
            #   b4 = u^4*a4S: u is a fourth root of a4T/a4S,
            #   b6 = u^6*a6S - r^3 - a4T*r: r from the k = 1 solve
            solve_r = gf.linearized_echelon(R2.a4, 1)
            for u in gf.nth_roots(R2.a4 / R1.a4, 4):
                for r in solve_r.roots(u ** 6 * R1.a6 - R2.a6):
                    yield (u, r, zero, zero)
        else:
            # j != 0, forms y^2 = x^3 + a2*x^2 + a4*x + a6 with a2 != 0;
            #   b2 = u^2*a2S: u is a square root of a2T/a2S,
            #   b4 = u^4*a4S + a2T*r: r by one division,
            #   b6 = u^6*a6S - a4T*r - a2T*r^2 - r^3: equals a6T, since
            #   j = a2^6/disc and disc is linear in a6 with coefficient
            #   -a2^3 != 0, so equal a2, a4 and j force equal a6
            for u in gf.nth_roots(R2.a2 / R1.a2, 2):
                yield (u, (R2.a4 - u ** 4 * R1.a4) / R2.a2, zero, zero)
    else:
        # forms y^2 = x^3 + A*x + B; b1 = -2s forces s = 0, then b2 = -3r
        # and b3 = -2t force r = t = 0; u is a root picked by the zero
        # pattern of A and B, and b4 = u^4*A_s, b6 = u^6*B_s equal A_t,
        # B_t: j = 0 is A = 0 and j = 1728 is B = 0 on both forms, and
        # otherwise equal j gives A_s^3/B_s^2 = A_t^3/B_t^2, so with
        # u^2 = (B_t/B_s)/(A_t/A_s) also u^4 = A_t/A_s and u^6 = B_t/B_s
        A_s, B_s = R1.a4, R1.a6
        A_t, B_t = R2.a4, R2.a6
        if A_s.is_zero():
            units = gf.nth_roots(B_t / B_s, 6)
        elif B_s.is_zero():
            units = gf.nth_roots(A_t / A_s, 4)
        else:
            units = gf.nth_roots((B_t * A_s) / (B_s * A_t), 2)
        for u in units:
            yield (u, zero, zero, zero)


def find_isomorphisms(E1, E2, field):
    """All isomorphisms E1 -> E2 defined over `field`, canonically sorted.

    Empty list means the curves are not isomorphic over `field`.  Each
    result is red2^-1 o core o red1, with red1 and red2 the reduction maps
    of the two curves and core a solution of `_reduced_isomorphisms`; its
    parameters are composed directly and the result is a derived map.
    The order is ascending `param_key`, so the first entry is the same on
    every run.
    """
    if E1.ctx != E2.ctx:
        raise ValueError("curves must share a base field")
    if field.p != E1.ctx.p or field.n % E1.ctx.n != 0:
        raise ValueError(f"{field} does not extend {E1.ctx}")
    if not E1.is_smooth() or not E2.is_smooth():
        raise ValueError("isomorphism search requires smooth equations")
    if E1.j_invariant() != E2.j_invariant():
        return []
    S = E1.base_change(field)
    T = E2.base_change(field)
    red1 = reduction_isomorphism(S)
    red2_inv = invert(reduction_isomorphism(T))
    isos = [
        CurveIsomorphism._derived(
            field, S, T,
            *_compose_params(red2_inv.params, _compose_params(core, red1.params)),
        )
        for core in _reduced_isomorphisms(red1.target, red2_inv.source)
    ]
    isos.sort(key=lambda f: f.params)
    return isos


def minimal_isomorphism_degree(E1, E2, max_degree):
    """Least d <= max_degree with isomorphisms over the degree-d extension,
    by `find_isomorphisms` at d = 1, 2, ... in turn.

    Returns None when no such degree exists within the bound.
    """
    if not isinstance(max_degree, int) or max_degree < 1:
        raise ValueError(f"max_degree must be a positive integer, got {max_degree}")
    for d in range(1, max_degree + 1):
        if find_isomorphisms(E1, E2, gf.field_create(E1.ctx.p, E1.ctx.n * d)):
            return d
    return None


# ---------------------------------------------------------------------------
# automorphism groups

# (m, k) by (min(p, 5), j), with None for every j other than 0 and 1728
# (1728 is 0 in characteristics 2 and 3): u maps Aut(E) onto the m-th roots
# of unity with a kernel of order k, which is Q8, C3, C2 or trivial
# (Silverman, AEC, Appendix A)
_AUT_SHAPES = {
    (2, 0): (3, 8), (3, 0): (4, 3), (5, 0): (6, 1), (5, 1728): (4, 1),
    (2, None): (1, 2), (3, None): (2, 1), (5, None): (2, 1),
}


def _aut_shape(p, j):
    """(m, k): Aut(E) has the m-th roots of unity as its u-values, each
    taken by the k elements of one coset of the kernel of u."""
    kind = 0 if j.is_zero() else 1728 if j == j.ctx.scalar(1728) else None
    return _AUT_SHAPES[min(p, 5), kind]


class AutGroup:
    """The automorphism group of a curve over its minimal field of definition.

    `elements` are sorted by parameters, as `find_isomorphisms(E, E,
    field)` sorts them, and `index` maps each element's parameters
    (u, r, s, t) to its position in `elements`.  `generators` are the
    indices of the group's one or two generators g_j, the conjugated cores
    that built it (see `automorphism_group`), and `walk` lists every
    element e but the identity as (e, parent, j) with e = parent o g_j,
    each parent before the elements it leads to.
    """

    __slots__ = ("curve", "field", "elements", "cayley", "inverses",
                 "generators", "walk", "_index", "_subgroups", "_structure")

    def __init__(self, curve, field, elements, cayley, index, generators, walk):
        self.curve = curve
        self.field = field
        self.elements = tuple(elements)
        self.cayley = cayley
        self.generators, self.walk = generators, walk
        self.inverses = tuple(row.index(0) for row in cayley)
        self._index = index
        self._subgroups = None
        self._structure = None
        if not self.elements[0].is_identity():
            raise _fault(curve, field, "automorphism group",
                         "canonical order must place the identity first")

    @property
    def order(self):
        return len(self.elements)

    def index_of(self, f):
        """Index of an automorphism with the same parameters, or None."""
        return self._index.get(f.params)

    def index_of_params(self, params):
        """Index of the automorphism with parameters (u, r, s, t), or None."""
        return self._index.get(tuple(params))

    def element_order(self, i):
        return len(_subgroup_closure(self.cayley, (i,)))

    def __repr__(self):
        return f"AutGroup(order={self.order}, field={self.field})"


def automorphism_group(E):
    """All automorphisms of E over the separable closure.

    Realized over the minimal extension of E's field that carries every
    automorphism.  u is a homomorphism of Aut(E) onto the m-th roots of
    unity with a kernel of order k, both fixed by (p, j) (`_aut_shape`):
    Q8 at p = 2 and j = 0, where Aut(E) is SL(2,3); C3 at p = 3 and j = 0;
    C2 at p = 2 and j != 0; trivial otherwise.  The search counts the
    cores, the solutions of `_reduced_isomorphisms` from E's short model
    R to itself, at each degree d until there are m*k of them.  It tries
    only the divisors d of m*k: Frobenius permutes Aut(E) as a group
    automorphism, every automorphism of these groups has an order that
    divides the group order, and the field of Aut(E) has the degree of
    that permutation's order.  A degree with m not dividing q^d - 1
    cannot carry the u-values and is skipped unsearched.

    The group is the closure of at most two cores conjugated back to E as
    red^-1 o core o red, two compositions each; conjugation by the
    reduction map red keeps u.  The unit generator, when m > 1, is the
    first core whose u has order m.  The kernel generator, when k > 1, is
    the first core with u = 1 and r or s nonzero: not the identity, nor
    -1 when j = 0, whose r and s are 0 on the short model too.  For p >= 5
    u is injective and the unit generator alone generates; at p = 2 and
    j != 0 the kernel generator is -1 and generates C2.  At p = 3 and
    j = 0 the kernel generator generates the kernel C3 and the unit
    generator maps onto the units, so the two reach all 12 elements.  In
    SL(2,3) the unit generator permutes Q8/{1, -1} by a 3-cycle, so the
    kernel generator's conjugates by its powers generate Q8, and with it
    the group.

    The closure grows by the products x o g_j, each an entry of the
    Cayley table, so the build costs 2c + c*n compositions for c
    generators.  Closure under the generators proves closure under
    composition, because composition of maps is associative and every
    element is a word in the generators; every generator is an
    automorphism, so the n elements reached are all of Aut(E).  A product
    that would take the closure past m*k elements, or a closure that
    stops short of it, is a fault.

    The closure is sorted by parameters, the order of
    `find_isomorphisms(E, E, field)`, and its products, generators and
    walk are relabelled.  The walk writes every element e as
    parent(e) o g_j, each parent before the elements it leads to, and
    each row of the table follows by lookups only:
    a o e = (a o parent(e)) o g_j.  The group keeps the generators and
    the walk, which `twistcoh.frobenius_action` reads too.
    """
    if not E.is_smooth():
        raise ValueError("singular equations have no automorphism group here")
    p = E.ctx.p
    m, k = _aut_shape(p, E.j_invariant())
    target = m * k
    for d in range(1, target + 1):  # m divides q^d - 1 at d = target
        if target % d or (E.ctx.q ** d - 1) % m:
            continue
        field = gf.field_create(p, E.ctx.n * d)
        S = E.base_change(field)
        red = reduction_isomorphism(S)
        cores = list(_reduced_isomorphisms(red.target, red.target))
        if len(cores) == target:
            break
    else:
        raise _fault(E, E.ctx, "automorphism group",
                     f"automorphism search found {len(cores)} of {target} elements")
    one, zero = field.one, field.zero
    picked = []
    if m > 1:  # u of order m: no u^(m/l) is 1 for a prime l dividing m
        picked.append(next(c for c in cores if all(
            c[0] ** (m // ell) != one for ell in (2, 3) if m % ell == 0)))
    if k > 1:  # u = 1 and (r, s) != (0, 0): not 1, nor -1 when j = 0,
        # which with the unit generator would generate a cyclic group
        picked.append(next(c for c in cores if c[0] == one
                           and not (c[1].is_zero() and c[2].is_zero())))
    red_inv = invert(red)
    gens = [_compose_params(red_inv.params, _compose_params(c, red.params))
            for c in picked]
    # params and walk list the closure in the order reached, e = parent o
    # g_j for (e, parent, j) in walk; products[j][x] is the index of x o g_j
    identity = (one, zero, zero, zero)
    params, index, walk = [identity], {identity: 0}, []
    products = [[] for _ in gens]
    for x, a in enumerate(params):  # reaches the elements appended below
        for j, g in enumerate(gens):
            e = _compose_params(a, g)
            i = index.get(e)
            if i is None:
                if len(params) == target:
                    raise _fault(E, field, "automorphism group",
                                 "automorphism set is not closed under composition")
                i = index[e] = len(params)
                params.append(e)
                walk.append((i, x, j))
            products[j].append(i)
    if len(params) < target:
        raise _fault(E, field, "automorphism group",
                     f"generators close to {len(params)} of {target} elements")
    # relabel everything in the canonical order of the parameters
    n = len(params)
    order = sorted(range(n), key=params.__getitem__)
    new = {old: i for i, old in enumerate(order)}
    elements = [CurveIsomorphism._derived(field, S, S, *params[old]) for old in order]
    index = {params[old]: i for i, old in enumerate(order)}
    products = [[new[right[old]] for old in order] for right in products]
    generators = tuple(right[0] for right in products)
    walk = tuple((new[e], new[parent], j) for e, parent, j in walk)
    cayley = []
    for a in range(n):
        row = [None] * n
        row[0] = a
        for e, parent, j in walk:
            row[e] = products[j][row[parent]]
        cayley.append(tuple(row))
    return AutGroup(E, field, elements, tuple(cayley), index, generators, walk)


class SubgroupInfo:
    """A subgroup given by sorted element indices, with basic tags."""

    __slots__ = ("indices", "order", "is_cyclic", "is_normal")

    def __init__(self, indices, order, is_cyclic, is_normal):
        self.indices = indices
        self.order = order
        self.is_cyclic = is_cyclic
        self.is_normal = is_normal

    def __repr__(self):
        kind = "cyclic" if self.is_cyclic else "non-cyclic"
        return f"SubgroupInfo(order={self.order}, {kind}, indices={self.indices})"


def _subgroup_closure(table, seed):
    """The subgroup generated by `seed`, as the identity's closure under right
    multiplication by the seed: in a finite group inverses are powers."""
    elems, order = {0}, [0]
    for a in order:
        for s in seed:
            c = table[a][s]
            if c not in elems:
                elems.add(c)
                order.append(c)
    return frozenset(elems)


def _twisted_class(G, t, members, perm):
    """{s^-1 * t * perm(s) : s in members}, for perm an automorphism of G
    on indices; perm the identity gives t's conjugacy class."""
    table, inv = G.cayley, G.inverses
    return frozenset(table[table[inv[s]][t]][perm[s]] for s in members)


def _twisted_classes(G, members, perm):
    """The partition of a subgroup's indices into twisted classes under
    conjugation by its own members, sorted by least element.

    ValueError when a class leaves the set, which perm must carry to
    itself."""
    members = sorted(members)
    member_set = frozenset(members)
    seen, classes = set(), []
    for t in members:
        if t not in seen:
            orbit = _twisted_class(G, t, members, perm)
            if not orbit <= member_set:
                raise ValueError("index set is not closed under twisted conjugation")
            seen |= orbit
            classes.append(orbit)
    return classes


def all_subgroups(G):
    """Every subgroup of G, as SubgroupInfo, sorted by (order, indices).

    Every group here has every subgroup generated by two elements (see
    the module docstring), so the lattice is the set of closures of pairs.
    The closure of (a, b) depends only on the cyclic subgroups <a> and
    <b>, so after the n cyclic closures one generator of each of the c
    cyclic subgroups is closed pair by pair: n + c(c-1)/2 closures in
    all.  A subgroup is normal exactly when it is a union of conjugacy
    classes.
    """
    if G._subgroups is not None:
        return list(G._subgroups)
    table, n = G.cayley, G.order
    cyclic = {_subgroup_closure(table, (a,)): a for a in range(n)}
    found = {_subgroup_closure(table, pair)
             for pair in itertools.combinations(cyclic.values(), 2)}
    classes = _twisted_classes(G, range(n), range(n))
    infos = [
        SubgroupInfo(tuple(sorted(H)), len(H), H in cyclic,
                     all(c <= H or H.isdisjoint(c) for c in classes))
        for H in found | cyclic.keys()
    ]
    infos.sort(key=lambda s: (s.order, s.indices))
    G._subgroups = infos
    return list(infos)


class GroupStructure:
    """Cayley-table facts about an automorphism group."""

    __slots__ = ("order", "is_abelian", "element_orders", "conjugacy_classes",
                 "center", "subgroups", "subgroup_counts", "unique_subgroups",
                 "minus_one_index")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


def group_structure(G):
    """Order, commutativity, conjugacy, center, subgroup lattice, and the
    negation element of an automorphism group."""
    if G._structure is not None:
        return G._structure
    n = G.order
    conj_classes = tuple(
        tuple(sorted(c)) for c in _twisted_classes(G, range(n), range(n))
    )
    center = tuple(c[0] for c in conj_classes if len(c) == 1)
    subgroups = all_subgroups(G)
    counts = {}
    for s in subgroups:
        counts[s.order] = counts.get(s.order, 0) + 1
    unique = {s.order: s for s in subgroups if counts[s.order] == 1}
    minus = minus_one_map(G.curve, G.field)
    minus_index = G.index_of(minus)
    if minus_index is None:
        raise _fault(G.curve, G.field, "group structure",
                     "negation automorphism missing from the group")
    structure = GroupStructure(
        order=n,
        is_abelian=len(center) == n,
        element_orders=tuple(G.element_order(i) for i in range(n)),
        conjugacy_classes=conj_classes,
        center=center,
        subgroups=tuple(subgroups),
        subgroup_counts=counts,
        unique_subgroups=unique,
        minus_one_index=minus_index,
    )
    G._structure = structure
    return structure
