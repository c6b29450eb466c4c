"""Twists of elliptic curves over finite fields, as explicit equations.

A twist of E/F_q is a curve over F_q that becomes isomorphic to E over an
extension.  Twists correspond to the Frobenius-twisted conjugacy classes
of Aut(E).  For psi from E to a twist T, psi^-1 o Fr(psi) is a cocycle
value of T's class; `enumerate_twists` labels T with (Fr(psi))^-1 o psi
instead.  That is the label the golden files pin, and a known defect:
it can give two twists one label (the strict xfail
`test_twists_of_cubic_twists_over_f3`).

This module finds one curve per base-isomorphism class by flooding
orbits in the short-form family of one j-invariant, provides the
standard one-parameter twist constructors (quadratic, Artin-Schreier,
unit), separates twists by point counts, and checks the expected
count/degree/census tables for characteristic 2 and 3.
"""

import itertools
import math

from . import autmap, gf, twistcoh
from .curve import WeierstrassCurve


class TwistEntry:
    """One twist class: its curve over the base, class, degree, count."""

    __slots__ = ("curve", "frob_class", "split_degree", "point_count")

    def __init__(self, curve, frob_class, split_degree, point_count):
        self.curve = curve
        self.frob_class = frob_class
        self.split_degree = split_degree
        self.point_count = point_count

    def __repr__(self):
        return (
            f"TwistEntry(curve={self.curve!r}, split_degree={self.split_degree}, "
            f"points={self.point_count})"
        )


class TwistReport:
    """All twists of one curve over one ground field."""

    __slots__ = ("base", "source", "entries")

    def __init__(self, base, source, entries):
        self.base = base
        self.source = source
        self.entries = tuple(entries)

    def __repr__(self):
        return f"TwistReport(base={self.base}, entries={len(self.entries)})"


def _short_family(base, j):
    """The short models over `base` of j-invariant j, and moves between them.

    Returns (prefix, nodes, moves).  `nodes` yields, in order of the free
    coefficients, each model that `autmap.reduction_isomorphism` targets
    with j-invariant j, as the canonical ints of the coefficients after
    the fixed leading ones, `prefix`.  `moves(node)` yields node's images
    under generators of the isomorphisms over `base` that keep the shape:
    a scale by the canonical generator g and shifts along a GF(p) basis.
    Every isomorphism between two short models keeps the shape, so the
    orbits of the moves are the base-isomorphism classes.
    """
    p, q = base.p, base.q
    elements = gf.enumerate_field(base)  # tables the field for the kernels
    mul, add, sub = base._mul, base._add, base._sub
    basis = [base.gen() ** i for i in range(base.n)]
    g = gf.generator(base)
    g2, g3, g4, g6 = ((g ** k).v for k in (2, 3, 4, 6))
    units = range(1, q)
    if p == 2 and j.is_zero():
        # y^2 + a3 y = x^3 + a4 x + a6
        prefix, nodes = (0, 0), itertools.product(units, range(q), range(q))
        shifts = [(s.v, (s * s).v, (s ** 4).v, (s ** 6).v) for s in basis]

        def moves(node):
            a3, a4, a6 = node
            yield mul(g3, a3), mul(g4, a4), mul(g6, a6)
            for s, s2, s4, s6 in shifts:
                b4 = add(add(a4, mul(s, a3)), s4)
                yield a3, b4, add(add(a6, mul(s2, b4)), s6)
            for t, t2, _, _ in shifts:
                yield a3, a4, add(add(a6, mul(t, a3)), t2)
    elif p == 2:
        # y^2 + x y = x^3 + a2 x^2 + 1/j; a2 moves by s^2 + s
        a6 = j.inv().v
        prefix, nodes = (1,), ((a2, 0, 0, a6) for a2 in range(q))
        steps = [(s * s + s).v for s in basis]

        def moves(node):
            for w in steps:
                yield add(node[0], w), 0, 0, a6
    elif p == 3:
        # y^2 = x^3 + a2 x^2 + a4 x + a6, with a2 = 0 exactly when j = 0
        shifts = [(r.v, (r * r).v, (r ** 3).v) for r in basis]
        if j.is_zero():
            prefix, nodes = (0, 0, 0), itertools.product(units, range(q))

            def moves(node):
                a4, a6 = node
                yield mul(g4, a4), mul(g6, a6)
                for r, _, r3 in shifts:
                    yield a4, sub(sub(a6, mul(r, a4)), r3)
        else:
            # the discriminant a2^2 a4^2 - a4^3 - a2^3 a6 is a2^6 / j, which
            # fits one a6 to each (a2, a4)
            prefix, nodes = (0,), (
                (a2.v, 0, a4.v, (((a2 * a4) ** 2 - a4 ** 3 - a2 ** 6 / j) / a2 ** 3).v)
                for a2 in elements[1:] for a4 in elements
            )

            def moves(node):
                a2, _, a4, a6 = node
                yield mul(g2, a2), 0, mul(g4, a4), mul(g6, a6)
                for r, r2, r3 in shifts:
                    b4 = add(a4, mul(r, a2))
                    yield a2, 0, b4, sub(sub(sub(a6, mul(r, b4)), mul(r2, a2)), r3)
    else:
        # y^2 = x^3 + a4 x + a6; a6^2 = c a4^3, so c = 0 gives j = 1728
        prefix = (0, 0, 0)
        if j.is_zero():
            nodes = ((0, a6) for a6 in units)
        else:
            c = 4 * (1728 - j) / (27 * j)
            nodes = ((a4, a6.v) for a4 in units
                     for a6 in gf.nth_roots(c * elements[a4] ** 3, 2))

        def moves(node):
            yield mul(g4, node[0]), mul(g6, node[1])
    return prefix, nodes, moves


def _class_representatives(base, j, want=None):
    """One curve per base-isomorphism class of short models of j-invariant j.

    Floods, under the family's moves, the orbit of the first node not yet
    seen, so each class is represented by its first node in the family's
    order.  Stops after `want` classes when it is given.
    """
    prefix, nodes, moves = _short_family(base, j)
    reps = []
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        reps.append(WeierstrassCurve(base, *map(base.from_canon, prefix + start)))
        if len(reps) == want:
            break
        seen.add(start)
        stack = [start]
        while stack:
            for nxt in moves(stack.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return reps


def _class_data(E, base):
    """Aut(E), its Frobenius classes over `base`, and each class's split degree."""
    group = autmap.automorphism_group(E)
    action = twistcoh.frobenius_action(group, base)
    classes = twistcoh.frobenius_classes(action)
    cocycles = (twistcoh.Cocycle(action, c.rep_index) for c in classes)
    return group, classes, [twistcoh.splitting_degree(c) for c in cocycles]


def _fault(E, base, stage, what):
    """An invariant failure that names the curve, the field and the stage."""
    curve = ",".join(gf.element_to_str(a) for a in E.coefficients)
    return RuntimeError(f"{stage} twists of {curve} over {base}: {what}")


def _label_class(E, T, base, group, g_classes, degrees):
    """The class that labels T among the twists of E, plus its split degree.

    T meets E first over the split degree of its own class, so searching the
    classes' ascending `degrees` finds it and a psi: E -> T there; forms
    (Fr(psi))^-1 o psi and locates it in the automorphism group inside a
    common extension field.  That is the label the golden files pin, not
    the cocycle value psi^-1 o Fr(psi); see the module docstring.
    """
    d, isos = autmap.first_isomorphism_degree(E, T, degrees)
    if d is None:
        raise _fault(E, base, "labelling", f"no isomorphism over split degrees {degrees}")
    psi = isos[0]
    phi = autmap.compose(autmap.invert(autmap.galois_apply(psi, base)), psi)
    comp = gf.field_create(
        base.p, math.lcm(phi.field.n, group.field.n), limit=gf.split_limit()
    )
    phi_key = autmap.embed_isomorphism(phi, comp).param_key()
    index = None
    for k, g in enumerate(group.elements):
        if autmap.embed_isomorphism(g, comp).param_key() == phi_key:
            index = k
            break
    if index is None:
        raise _fault(E, base, "labelling", "twist label is not an automorphism of the source")
    for cls in g_classes:
        if index in cls.indices:
            return cls, d
    raise _fault(E, base, "labelling", "automorphism missing from the class partition")


def enumerate_twists(E, base):
    """One representative curve per twist class of E over `base`.

    First creates each class's split-degree field, ascending, so an input
    over the split limit fails before any search.  Then floods the
    base-isomorphism classes of the short models with j(E), stopping at
    the count from the twisted-class partition; each class is represented
    by its first model in the family's order.  Each representative is
    labelled by `_label_class`.  Entries follow the class order, trivial
    class first.
    """
    if base.p != E.ctx.p or base.n % E.ctx.n != 0:
        raise ValueError(f"{base} does not extend {E.ctx}")
    E = E.base_change(base)
    if not E.is_smooth():
        raise ValueError("twist enumeration requires a smooth curve")
    group, g_classes, class_degrees = _class_data(E, base)
    degrees = sorted(set(class_degrees))
    for d in degrees:
        gf.field_create(base.p, base.n * d, limit=gf.split_limit())
    want = len(g_classes)
    reps = _class_representatives(base, E.j_invariant(), want)
    if len(reps) < want:
        raise _fault(E, base, "flood",
                     f"short family exhausted with {len(reps)} of {want} classes found")
    by_class = {}
    for T in reps:
        cls, degree = _label_class(E, T, base, group, g_classes, degrees)
        if cls.rep_index in by_class:
            raise _fault(E, base, "labelling",
                         "two non-isomorphic curves received one class label")
        by_class[cls.rep_index] = TwistEntry(
            curve=T,
            frob_class=cls,
            split_degree=degree,
            point_count=T.point_count(),
        )
    entries = [by_class[cls.rep_index] for cls in g_classes]
    return TwistReport(base=base, source=E, entries=entries)


def quadratic_twist(E, d):
    """The quadratic twist of an odd-characteristic curve by d != 0.

    E is first completed to its short form; the twist scales the short
    coefficients by d, d^2, d^3 along the weights of x and the constant
    term, so it is isomorphic to E over base(sqrt(d)) via u^2 = d, and
    over the base itself exactly when d is a square.
    """
    ctx = E.ctx
    if ctx.p == 2:
        raise ValueError("use artin_schreier_twist in characteristic 2")
    d = ctx.element(d)
    if d.is_zero():
        raise ValueError("twist parameter must be nonzero")
    R = autmap.reduction_isomorphism(E).target
    return WeierstrassCurve(
        ctx, 0, d * R.a2, 0, d * d * R.a4, d ** 3 * R.a6
    )


def artin_schreier_twist(E, d):
    """The characteristic-2 quadratic twist of an ordinary curve.

    E is completed to y^2 + xy = x^3 + a2 x^2 + a6 and a2 is shifted by
    d.  The result is a nontrivial twist exactly when d has absolute
    trace 1, which callers verify with find_isomorphisms rather than
    assume.
    """
    ctx = E.ctx
    if ctx.p != 2:
        raise ValueError("Artin-Schreier twists require characteristic 2")
    if E.j_invariant().is_zero():
        raise ValueError("ordinary curve required; j must be nonzero")
    d = ctx.element(d)
    R = autmap.reduction_isomorphism(E).target
    return WeierstrassCurve(ctx, R.a1, R.a2 + d, R.a3, R.a4, R.a6)


def unit_twist(E, m):
    """The twist of a j = 0 curve y^2 = x^3 + b by a unit: y^2 = x^3 + bm.

    The class over the base depends only on m modulo sixth powers;
    m in squares gives the cubic sub-family, m in cubes the quadratic
    one.  Requires p >= 5.
    """
    ctx = E.ctx
    if ctx.p < 5:
        raise ValueError("unit twists require characteristic at least 5")
    if not E.j_invariant().is_zero():
        raise ValueError("unit twists require j = 0")
    m = ctx.element(m)
    if m.is_zero():
        raise ValueError("twist parameter must be nonzero")
    R = autmap.reduction_isomorphism(E).target
    return WeierstrassCurve(ctx, 0, 0, 0, 0, R.a6 * m)


def point_count_table(report):
    """Point counts per entry and which pairs of twists they fail to split."""
    counts = [e.point_count for e in report.entries]
    unseparated = [
        [i, j]
        for i in range(len(counts))
        for j in range(i + 1, len(counts))
        if counts[i] == counts[j]
    ]
    return {
        "counts": counts,
        "unseparated": unseparated,
        "all_distinct": not unseparated,
    }


def j_zero_class_representatives(base):
    """One smooth j = 0 curve per base-isomorphism class, smallest first.

    Counted independently of the cohomology machinery, by the orbit flood
    of `_class_representatives` over the short j = 0 family.  The flood
    visits every node of the family, so their number is checked against
    the working limit first.
    """
    p, q = base.p, base.q
    if p not in (2, 3):
        raise ValueError("census implemented for characteristic 2 and 3")
    nodes = (q - 1) * q ** (2 if p == 2 else 1)
    limit = gf.working_limit()
    if nodes > limit:
        raise gf.LimitExceededError(
            f"census over {base} needs {nodes} grid nodes, limit {limit}"
        )
    return _class_representatives(base, base.zero)


def j_zero_class_census(base):
    """Number of base-isomorphism classes of smooth j = 0 curves over base."""
    return len(j_zero_class_representatives(base))


class LineItem:
    """One compared quantity in a verdict report."""

    __slots__ = ("name", "expected", "computed", "ok")

    def __init__(self, name, expected, computed):
        self.name = name
        self.expected = expected
        self.computed = computed
        self.ok = expected == computed

    def __repr__(self):
        mark = "pass" if self.ok else "FAIL"
        return f"LineItem({self.name}: expected {self.expected}, got {self.computed} [{mark}])"


class VerdictReport:
    """Pass/fail line items for the expected twist tables over one field."""

    __slots__ = ("base", "items")

    def __init__(self, base, items):
        self.base = base
        self.items = tuple(items)

    @property
    def ok(self):
        return all(item.ok for item in self.items)

    def __repr__(self):
        status = "ok" if self.ok else "FAILED"
        return f"VerdictReport(base={self.base}, items={len(self.items)}, {status})"


_J0_CURVES = {2: (0, 0, 1, 0, 0), 3: (0, 0, 0, -1, 0)}
_JNZ_CURVES = {2: (1, 0, 0, 0, 1), 3: (0, 1, 0, 0, -1)}
_EXPECTED_COUNTS = {2: (3, 7), 3: (4, 6)}
_EXPECTED_J0_DEGREES = {
    2: ([1, 8, 8], [1, 2, 3, 3, 4, 6, 6]),
    3: ([1, 2, 3, 3], [1, 2, 3, 4, 4, 6]),
}


def verify_twist_tables(p, n):
    """Check twist counts, split degrees, and the j = 0 census over F_{p^n}.

    Covers characteristic 2 and 3: a j = 0 curve and a j != 0 curve are
    classified and the results compared with the expected tables (counts
    3/7 or 4/6 by parity for j = 0, always 2 otherwise).  Failures are
    reported as data, not raised.
    """
    if p not in (2, 3):
        raise ValueError("verification tables cover characteristic 2 and 3")
    if n < 1:
        raise ValueError("extension degree must be positive")
    base = gf.field_create(p, n)
    parity = n % 2
    expected_count = _EXPECTED_COUNTS[p][0 if parity else 1]
    expected_degrees = _EXPECTED_J0_DEGREES[p][0 if parity else 1]
    E0 = WeierstrassCurve(base, *_J0_CURVES[p])
    _, classes0, degrees0 = _class_data(E0, base)
    E1 = WeierstrassCurve(base, *_JNZ_CURVES[p])
    _, classes1, degrees1 = _class_data(E1, base)
    items = [
        LineItem("j_zero_twist_count", expected_count, len(classes0)),
        LineItem("j_zero_split_degrees", expected_degrees, sorted(degrees0)),
        LineItem("j_nonzero_twist_count", 2, len(classes1)),
        LineItem("j_nonzero_split_degrees", [1, 2], sorted(degrees1)),
        LineItem("j_zero_class_census", expected_count, j_zero_class_census(base)),
    ]
    return VerdictReport(base=f"{p}^{n}", items=items)


def twist_report_json(report):
    """JSON-ready form of a TwistReport, with stable key order."""
    def coeffs(curve):
        return [gf.element_to_str(c) for c in curve.coefficients]

    return {
        "base": f"{report.base.p}^{report.base.n}",
        "source": coeffs(report.source),
        "twists": [
            {
                "curve": coeffs(e.curve),
                "class_rep": autmap.isomorphism_to_str(e.frob_class.representative),
                "split_degree": e.split_degree,
                "points": e.point_count,
            }
            for e in report.entries
        ],
    }


def verdict_report_json(report):
    """JSON-ready form of a VerdictReport, with stable key order."""
    return {
        "base": report.base,
        "ok": report.ok,
        "items": [
            {
                "name": item.name,
                "expected": item.expected,
                "computed": item.computed,
                "ok": item.ok,
            }
            for item in report.items
        ],
    }
