"""Twists of elliptic curves over finite fields, as explicit equations.

A twist of E/F_q is a curve over F_q that becomes isomorphic to E over an
extension.  Twists correspond to the Frobenius-twisted conjugacy classes
of Aut(E): given an isomorphism psi from E to a candidate over some
extension, the automorphism (Fr(psi))^-1 o psi labels the candidate's
class, and two candidates are isomorphic over F_q exactly when their
labels share a class.

This module enumerates one curve per class by scanning short-form
coefficient grids, provides the standard one-parameter twist
constructors (quadratic, Artin-Schreier, unit), separates twists by
point counts, and checks the expected count/degree/census tables for
characteristic 2 and 3.
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


def _short_grid(E, base):
    """Candidate curves over `base` sharing j(E), in canonical scan order.

    Yields the short-form family fitting (p, j): exactly the models that
    `autmap.reduction_isomorphism` targets, so the reduction map of every
    grid curve is the identity.  It carries every smooth curve over `base`
    into that family over `base` itself, so the family meets every twist
    class of E, and two grid curves of one j are isomorphic over `base`
    exactly when `autmap._reduced_isomorphisms` has a solution for them.
    """
    p = base.p
    j = gf.subfield_embed(E.j_invariant(), base)
    elements = gf.enumerate_field(base)
    nonzero = elements[1:]
    zero = base.zero
    if p == 2:
        if j.is_zero():
            for a3 in nonzero:
                for a4 in elements:
                    for a6 in elements:
                        yield WeierstrassCurve(base, zero, zero, a3, a4, a6)
        else:
            a6 = j.inv()
            for a2 in elements:
                yield WeierstrassCurve(base, base.one, a2, zero, zero, a6)
    elif p == 3:
        if j.is_zero():
            for a4 in nonzero:
                for a6 in elements:
                    yield WeierstrassCurve(base, zero, zero, zero, a4, a6)
        else:
            for a2 in nonzero:
                for a4 in elements:
                    for a6 in elements:
                        yield WeierstrassCurve(base, zero, a2, zero, a4, a6)
    else:
        if j.is_zero():
            for a6 in nonzero:
                yield WeierstrassCurve(base, zero, zero, zero, zero, a6)
        elif j == base.scalar(1728):
            for a4 in nonzero:
                yield WeierstrassCurve(base, zero, zero, zero, a4, zero)
        else:
            for a4 in nonzero:
                for a6 in nonzero:
                    yield WeierstrassCurve(base, zero, zero, zero, a4, a6)


def _class_data(E, base):
    """Aut(E), its Frobenius classes over `base`, and each class's split degree."""
    group = autmap.automorphism_group(E)
    action = twistcoh.frobenius_action(group, base)
    classes = twistcoh.frobenius_classes(action)
    cocycles = (twistcoh.Cocycle(action, c.rep_index) for c in classes)
    return group, classes, [twistcoh.splitting_degree(c) for c in cocycles]


def _label_class(E, T, base, group, g_classes, degrees):
    """The twisted class of T among the twists of E, plus its split degree.

    T meets E first over the split degree of its own class, so searching the
    classes' ascending `degrees` finds it and a psi: E -> T there; forms
    (Fr(psi))^-1 o psi and locates it in the automorphism group inside a
    common extension field.
    """
    d, isos = autmap.first_isomorphism_degree(E, T, degrees)
    if d is None:
        raise RuntimeError(f"no isomorphism over split degrees {degrees}")
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
        raise RuntimeError("twist label is not an automorphism of the source")
    for cls in g_classes:
        if index in cls.indices:
            return cls, d
    raise RuntimeError("automorphism missing from the class partition")


def enumerate_twists(E, base):
    """One representative curve per twist class of E over `base`.

    Scans the short-form grid for curves with j(E), groups them into
    base-isomorphism classes (first hit in scan order represents the
    class) until the count from the twisted-class partition is reached,
    then labels each representative with its Frobenius class.  A grid
    curve joins a known class when the reduced system for it and that
    class's representative has a first solution over `base`; grid curves
    are their own short models, so no reduction or composed map is built
    for the test.  Entries follow the class order, trivial class first.
    """
    if base.p != E.ctx.p or base.n % E.ctx.n != 0:
        raise ValueError(f"{base} does not extend {E.ctx}")
    E = E.base_change(base)
    if not E.is_smooth():
        raise ValueError("twist enumeration requires a smooth curve")
    group, g_classes, class_degrees = _class_data(E, base)
    degrees = sorted(set(class_degrees))
    want = len(g_classes)
    j = E.j_invariant()
    reps = []
    scanned = 0
    budget = gf.split_limit()
    for T in _short_grid(E, base):
        scanned += 1
        if scanned > budget:
            raise RuntimeError("coefficient scan exhausted the search budget")
        if not T.is_smooth() or T.j_invariant() != j:
            continue
        if any(next(autmap._reduced_isomorphisms(R, T), None) is not None for R in reps):
            continue
        reps.append(T)
        if len(reps) == want:
            break
    else:
        raise RuntimeError(
            f"grid exhausted with {len(reps)} of {want} classes found"
        )
    by_class = {}
    for T in reps:
        cls, degree = _label_class(E, T, base, group, g_classes, degrees)
        if cls.rep_index in by_class:
            raise RuntimeError("two non-isomorphic curves received one class label")
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

    Counted independently of the cohomology machinery: the short-form
    j = 0 family is closed under every isomorphism between its members,
    so classes are orbits of the coefficient action, found by flooding
    with generators (one scale by a primitive element plus the additive
    shifts along a field basis).  The representative of each class is
    its first member in canonical scan order.  The flood visits every
    node of the family, so their number is checked against the working
    limit first.
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
    # the flood runs on canonical ints with the field's kernels, read after
    # enumerate_field has tabled the field; only representatives become curves
    elements = gf.enumerate_field(base)
    mul, add, sub = base._mul, base._add, base._sub
    basis = [base.gen() ** i for i in range(base.n)]
    g = gf.generator(base)
    q_range = range(q)
    if p == 3:
        # nodes (a4, a6) of y^2 = x^3 + a4 x + a6
        prefix = (0, 0, 0)
        starts = itertools.product(q_range[1:], q_range)
        g4, g6 = (g ** 4).v, (g ** 6).v
        shifts = [(r.v, (r ** 3).v) for r in basis]

        def moves(node):
            a, b = node
            yield mul(g4, a), mul(g6, b)
            for r, r3 in shifts:
                yield a, sub(sub(b, mul(r, a)), r3)
    else:
        # nodes (a3, a4, a6) of y^2 + a3 y = x^3 + a4 x + a6
        prefix = (0, 0)
        starts = itertools.product(q_range[1:], q_range, q_range)
        g3, g4, g6 = (g ** 3).v, (g ** 4).v, (g ** 6).v
        shifts = [(s.v, (s * s).v, (s ** 4).v, (s ** 6).v) for s in basis]

        def moves(node):
            a3, a4, a6 = node
            yield mul(g3, a3), mul(g4, a4), mul(g6, a6)
            for s, s2, s4, s6 in shifts:
                b4 = add(add(a4, mul(s, a3)), s4)
                yield a3, b4, add(add(a6, mul(s2, b4)), s6)
            for t, t2, _, _ in shifts:
                yield a3, a4, add(add(a6, mul(t, a3)), t2)
    reps = []
    seen = set()
    for start in starts:
        if start in seen:
            continue
        reps.append(WeierstrassCurve(base, *(elements[k] for k in prefix + start)))
        seen.add(start)
        stack = [start]
        while stack:
            for nxt in moves(stack.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return reps


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
