"""Isomorphisms between Weierstrass curves and automorphism groups.

An isomorphism is the standard change of variables

    (x, y) |-> (u^2*x + r, u^3*y + u^2*s*x + t),  u != 0,

with parameters in a field that may extend the curves' base field.  The
identity transform_coefficients(source, u, r, s, t) == target proves that
the map carries every source point onto the target, and every map here
satisfies it.  Each map is either checked or derived:

- checked: built from parameters that are new, through the public
  constructor, which verifies the identity exactly.  These are the maps a
  caller builds, the cores that `_reduced_isomorphisms` solves for,
  `identity_map`, `minus_one_map` and `galois_apply` (whose identity holds
  only when both curves are defined over `base`);
- derived: built by `CurveIsomorphism._derived`, which does not re-verify,
  from maps whose identity is already known.  The (u, r, s, t) maps form
  a group under `_compose_params`, so `compose` and `invert` of maps that
  satisfy the identity satisfy it too; `embed_isomorphism` applies a field
  embedding, a ring homomorphism, to both sides of it; and
  `reduction_isomorphism` defines its target as the transform's image.
  `find_isomorphisms` composes its checked cores with two reduction maps
  the same way.

Automorphism groups are computed over the minimal extension carrying all
of them, with a Cayley table by element index; structure analysis
(orders, conjugacy, center, the full subgroup lattice) works on that
table alone.
"""

import math

from . import gf
from .curve import WeierstrassCurve

_AUT_DEGREES_CHAR2 = (1, 2, 3, 4, 6, 8, 12, 24)
_AUT_DEGREES_ODD = (1, 2, 3, 4, 6, 12)


def _fault(E, field, stage, what):
    """An invariant failure that names the curve, the field and the stage."""
    curve = ",".join(gf.element_to_str(a) for a in E.coefficients)
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
    follows from maps already checked (see the module docstring).
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
        return hash((self.field.p, self.field.n) + self.param_key())

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
    """Every isomorphism between two short models over their common field.

    Solves the triangular coefficient system appropriate to the
    characteristic and the j-class: first the unit u from a root-of-unity
    style equation, then the additive parameters from linearized
    equations.  Each solution is a checked map; the models must be smooth
    with one j-invariant.  `find_isomorphisms`, the only caller, takes
    every solution.
    """
    ctx = R1.ctx
    p = ctx.p
    zero = ctx.zero
    if p == 2:
        if R1.a1.is_zero():
            # forms y^2 + a3*y = x^3 + a4*x + a6; constraints:
            #   u^3 = a3T/a3S,  s^4 + a3T*s = a4T + u^4*a4S,  r = s^2,
            #   t^2 + a3T*t = a6T + u^6*a6S + r*a4T + r^3
            for u in gf.nth_roots(R2.a3 / R1.a3, 3):
                for s in gf.linearized_roots(R2.a3, R2.a4 + u ** 4 * R1.a4, k=2):
                    r = s * s
                    rhs = R2.a6 + u ** 6 * R1.a6 + r * R2.a4 + r ** 3
                    for t in gf.linearized_roots(R2.a3, rhs, k=1):
                        yield CurveIsomorphism(ctx, R1, R2, u, r, s, t)
        else:
            # forms y^2 + x*y = x^3 + a2*x^2 + a6; u = 1, r = t = 0 forced,
            # a6 must agree, s from s^2 + s = a2S + a2T
            if R1.a6 == R2.a6:
                for s in gf.artin_schreier_roots(R1.a2 + R2.a2):
                    yield CurveIsomorphism(ctx, R1, R2, ctx.one, zero, s, zero)
    elif p == 3:
        if R1.a2.is_zero():
            # j = 0 forms y^2 = x^3 + a4*x + a6 with a4 != 0:
            #   u^4 = a4T/a4S, then r^3 + a4T*r = u^6*a6S - a6T
            for u in gf.nth_roots(R2.a4 / R1.a4, 4):
                rhs = u ** 6 * R1.a6 - R2.a6
                for r in gf.linearized_roots(R2.a4, rhs, k=1):
                    yield CurveIsomorphism(ctx, R1, R2, u, r, zero, zero)
        else:
            # j != 0 forms y^2 = x^3 + a2*x^2 + a4*x + a6 with a2 != 0:
            #   u^2 = a2T/a2S, r determined, a6 relation checked
            for u in gf.nth_roots(R2.a2 / R1.a2, 2):
                r = (R2.a4 - u ** 4 * R1.a4) / R2.a2
                if R2.a6 == u ** 6 * R1.a6 - r * R2.a4 - r * r * R2.a2 - r ** 3:
                    yield CurveIsomorphism(ctx, R1, R2, u, r, zero, zero)
    else:
        # forms y^2 = x^3 + A*x + B; r = s = t = 0 forced
        A_s, B_s = R1.a4, R1.a6
        A_t, B_t = R2.a4, R2.a6
        if A_s.is_zero():
            candidates = gf.nth_roots(B_t / B_s, 6)
        elif B_s.is_zero():
            candidates = gf.nth_roots(A_t / A_s, 4)
        else:
            candidates = gf.nth_roots((B_t * A_s) / (B_s * A_t), 2)
        for u in candidates:
            if u ** 4 * A_s == A_t and u ** 6 * B_s == B_t:
                yield CurveIsomorphism(ctx, R1, R2, u, zero, zero, zero)


def find_isomorphisms(E1, E2, field):
    """All isomorphisms E1 -> E2 defined over `field`, canonically sorted.

    Empty list means the curves are not isomorphic over `field`.  Each
    result is red2^-1 o core o red1, with red1 and red2 the reduction maps
    of the two curves and core a checked solution of
    `_reduced_isomorphisms`; its parameters are composed directly and the
    result is a derived map.  The order is ascending `param_key`, so the
    first entry is the same on every run.
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
            *_compose_params(red2_inv.params, _compose_params(core.params, red1.params)),
        )
        for core in _reduced_isomorphisms(red1.target, red2_inv.source)
    ]
    isos.sort(key=CurveIsomorphism.param_key)
    return isos


def first_isomorphism_degree(E1, E2, degrees):
    """First d in `degrees` with an isomorphism E1 -> E2 over degree d.

    Returns (d, those isomorphisms), or (None, []) when no listed degree
    has any.
    """
    for d in degrees:
        ext = gf.field_create(E1.ctx.p, E1.ctx.n * d)
        isos = find_isomorphisms(E1, E2, ext)
        if isos:
            return d, isos
    return None, []


def minimal_isomorphism_degree(E1, E2, max_degree):
    """Least d <= max_degree with isomorphisms over the degree-d extension.

    Returns None when no such degree exists within the bound.
    """
    if not isinstance(max_degree, int) or max_degree < 1:
        raise ValueError(f"max_degree must be a positive integer, got {max_degree}")
    return first_isomorphism_degree(E1, E2, range(1, max_degree + 1))[0]


# ---------------------------------------------------------------------------
# automorphism groups

def _max_automorphism_order(p, j):
    if j.is_zero():
        if p == 2:
            return 24
        if p == 3:
            return 12
        return 6
    if p >= 5 and j == j.ctx.scalar(1728):
        return 4
    return 2


class AutGroup:
    """The automorphism group of a curve over its minimal field of definition."""

    __slots__ = ("curve", "field", "elements", "cayley", "inverses",
                 "_index", "_subgroups", "_structure")

    def __init__(self, curve, field, elements, cayley):
        self.curve = curve
        self.field = field
        self.elements = tuple(elements)
        self.cayley = cayley
        self.inverses = tuple(row.index(0) for row in cayley)
        self._index = {f.param_key(): i for i, f in enumerate(self.elements)}
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
        return self._index.get(f.param_key())

    def index_of_key(self, key):
        """Index of the automorphism whose `param_key` is key, or None."""
        return self._index.get(key)

    def element_order(self, i):
        k = 1
        cur = i
        while cur != 0:
            cur = self.cayley[cur][i]
            k += 1
        return k

    def __repr__(self):
        return f"AutGroup(order={self.order}, field={self.field})"


def automorphism_group(E):
    """All automorphisms of E over the separable closure.

    Realized over the minimal extension of E's field that carries every
    automorphism, found by searching extension degrees until the count
    reaches the maximum allowed by (p, j).
    """
    if not E.is_smooth():
        raise ValueError("singular equations have no automorphism group here")
    p = E.ctx.p
    target = _max_automorphism_order(p, E.j_invariant())
    degrees = _AUT_DEGREES_CHAR2 if p == 2 else _AUT_DEGREES_ODD
    for d in degrees:
        field = gf.field_create(p, E.ctx.n * d)
        elements = find_isomorphisms(E, E, field)
        if len(elements) == target:
            break
    else:
        raise _fault(E, E.ctx, "automorphism group",
                     f"automorphism search found {len(elements)} of {target} elements")
    params = [f.params for f in elements]
    index = {f.param_key(): i for i, f in enumerate(elements)}
    cayley = []
    for a in params:
        row = []
        for b in params:
            k = index.get(tuple(x.canon for x in _compose_params(a, b)))
            if k is None:
                raise _fault(E, field, "automorphism group",
                             "automorphism set is not closed under composition")
            row.append(k)
        cayley.append(tuple(row))
    return AutGroup(E, field, elements, tuple(cayley))


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


def all_subgroups(G):
    """Every subgroup of G, as SubgroupInfo, sorted by (order, indices).

    Found by closing each known subgroup together with one extra element
    until no new subgroups appear; feasible because the groups here have
    order at most 24.
    """
    if G._subgroups is not None:
        return list(G._subgroups)
    table = G.cayley
    found = {frozenset({0})}
    queue = [frozenset({0})]
    while queue:
        H = queue.pop()
        for g in range(G.order):
            if g not in H:
                K = _subgroup_closure(table, H | {g})
                if K not in found:
                    found.add(K)
                    queue.append(K)
    infos = []
    for H in found:
        indices = tuple(sorted(H))
        order = len(indices)
        is_cyclic = any(G.element_order(g) == order for g in indices)
        is_normal = all(
            table[table[g][h]][G.inverses[g]] in H
            for g in range(G.order)
            for h in indices
        )
        infos.append(SubgroupInfo(indices, order, is_cyclic, is_normal))
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
    table = G.cayley
    n = G.order
    is_abelian = all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    element_orders = tuple(G.element_order(i) for i in range(n))
    seen = [False] * n
    conj_classes = []
    for j in range(n):
        if seen[j]:
            continue
        orbit = sorted({table[table[i][j]][G.inverses[i]] for i in range(n)})
        for m in orbit:
            seen[m] = True
        conj_classes.append(tuple(orbit))
    center = tuple(
        i for i in range(n) if all(table[i][j] == table[j][i] for j in range(n))
    )
    subgroups = all_subgroups(G)
    counts = {}
    for s in subgroups:
        counts[s.order] = counts.get(s.order, 0) + 1
    unique = {s.order: s for s in subgroups if counts[s.order] == 1}
    minus = minus_one_map(G.curve, G.field)
    minus_index = G.index_of(minus)
    if minus_index is None:
        raise RuntimeError("negation automorphism missing from the group")
    structure = GroupStructure(
        order=n,
        is_abelian=is_abelian,
        element_orders=element_orders,
        conjugacy_classes=tuple(conj_classes),
        center=center,
        subgroups=tuple(subgroups),
        subgroup_counts=counts,
        unique_subgroups=unique,
        minus_one_index=minus_index,
    )
    G._structure = structure
    return structure
