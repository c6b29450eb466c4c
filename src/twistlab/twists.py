"""Twists of elliptic curves over finite fields, as explicit equations.

A twist of E/F_q is a curve over F_q that becomes isomorphic to E over an
extension.  Twists correspond to the Frobenius-twisted conjugacy classes
of Aut(E).  For psi from E to a twist T, psi^-1 o Fr(psi) is a cocycle
value of T's class; `enumerate_twists` labels T with (Fr(psi))^-1 o psi
instead.  That is the label the golden files pin, and a known defect:
it can give two twists one label (the strict xfail
`test_twists_of_cubic_twists_over_f3`).

This module decides isomorphism over the ground field one way:
`canonical_model(E)` is the least model of E's class, so two curves are
isomorphic over their field exactly when their canonical models are
equal.  The least model comes in closed form, from the coset minima of
the lead's scalings and GF(p)-linear echelons of the shifts, and
`_short_classes` lists the least model of every class of one
j-invariant by the same reduction, so no field is enumerated.  The
module also provides the standard one-parameter twist constructors
(quadratic, Artin-Schreier, unit), separates twists by point counts,
and checks the expected count/degree/census tables for characteristic 2
and 3 as `check_item` records, the pass/fail lines `twistlab repro
--json` prints.
"""

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


# the weight w of the lead, the first nonzero coefficient of every short
# model, which (u, r, s, t) scales by u^w, as (j != 0, j == 0) by min(p, 5):
# a1 = 1 or a3 at p = 2, a2 or a4 at p = 3, a4 or a6 at p >= 5
_LEAD_WEIGHTS = {2: (1, 3), 3: (2, 4), 5: (4, 6)}


def _leads(base, j):
    """(w, e, minima) for the short models of j-invariant j: w is their
    lead's weight, and minima maps x^e to the least element x of each
    coset of the w-th powers in base*, ascending, where
    e = (q - 1)/gcd(w, q - 1), so x^e names x's coset.

    Scans x in canonical order from 1 until every coset is met.
    """
    w = _LEAD_WEIGHTS[min(base.p, 5)][j.is_zero()]
    qm1 = base.q - 1
    e = qm1 // math.gcd(w, qm1)
    minima = {}
    for x in map(base.from_canon, range(1, base.q)):
        minima.setdefault(x ** e, x)
        if len(minima) * e == qm1:
            return w, e, minima


def _least_models(base, j, m, units):
    """(least, candidates) for the short models of j-invariant j whose
    least model leads with m.

    Every isomorphism between two short models keeps the shape: it scales
    the lead by u^w, w the lead's weight, and shifts the later
    coefficients by GF(p)-linear maps.  `least` maps a short model whose
    lead each u in `units` scales to m to the least model of its
    base-isomorphism class: each later coefficient is the least of its
    coset modulo the image of its shift (`gf.Echelon.reduce`), taken over
    the units.  `candidates` holds a model with lead m of every class
    whose least model leads with m, for `units` the u with u^w = 1.  The
    echelons are built here, once per lead.
    """
    zero = base.zero
    if base.p == 2 and j.is_zero():
        # y^2 + a3 y = x^3 + a4 x + a6: (u, s, t) sends a3 to u^3 a3,
        # a4 to u^4 a4 + s^4 + a3 s and a6 to u^6 a6 + s^2 a4 + s^6 + t^2 + a3 t
        # (new a3 and a4 on the right)
        shift4, shift6 = (gf.linearized_echelon(m, k) for k in (2, 1))
        return (lambda a: min(
                    (zero, zero, m, b4, shift6.reduce(u ** 6 * a[4] + s * s * b4 + s ** 6)[0])
                    for u in units for b4, s0 in [shift4.reduce(u ** 4 * a[3])]
                    for s in shift4.kernel_coset(s0)),
                [(zero, zero, m, a4, a6) for a4 in shift4.residues() for a6 in shift6.residues()])
    if base.p == 2:
        # y^2 + x y = x^3 + a2 x^2 + 1/j; s sends a2 to a2 + s^2 + s
        shift = gf.linearized_echelon(base.one)
        return (lambda a: (m, shift.reduce(a[1])[0], zero, zero, a[4]),
                [(m, a2, zero, zero, j.inv()) for a2 in shift.residues()])
    if base.p == 3 and j.is_zero():
        # y^2 = x^3 + a4 x + a6: (u, r) sends a4 to u^4 a4 and a6 to
        # u^6 a6 - r^3 - a4 r (new a4)
        shift = gf.linearized_echelon(m)
        return (lambda a: (zero, zero, zero, m,
                           min(shift.reduce(u ** 6 * a[4])[0] for u in units)),
                [(zero, zero, zero, m, a6) for a6 in shift.residues()])
    if base.p > 3 and not j.is_zero():
        # y^2 = x^3 + a4 x + a6: u scales a4 by u^4 and a6 by u^6; a6^2 = c a4^3,
        # so c = 0 gives j = 1728
        c = 4 * (1728 - j) / (27 * j)
        return (lambda a: (zero, zero, zero, m, min(u ** 6 * a[4] for u in units)),
                [(zero, zero, zero, m, a6) for a6 in gf.nth_roots(c * m ** 3, 2)])
    # p = 3, y^2 = x^3 + a2 x^2 + a4 x + a6: r shifts a4 by r a2, so each
    # class has a model with a4 = 0, where the discriminant
    # a2^2 a4^2 - a4^3 - a2^3 a6 = a2^6 / j fixes a6; p >= 5 with j = 0,
    # y^2 = x^3 + a6: u scales a6 by u^6.  One model per lead either way.
    node = (zero, m, zero, zero, -m ** 3 / j) if base.p == 3 else (zero, zero, zero, zero, m)
    return (lambda a: node), [node]


def _short_classes(base, j):
    """The least short model of each base-isomorphism class of j-invariant j,
    ascending.

    The short models are the curves that `autmap.reduction_isomorphism`
    targets.  Every class has a model whose lead is the least element m
    of its coset of w-th powers; the least models of the candidates of
    every such m (`_least_models`) are the classes' least models.  No
    field is enumerated.
    """
    w, _, minima = _leads(base, j)
    units, models = gf.nth_roots(base.one, w), set()
    for m in minima.values():
        least, candidates = _least_models(base, j, m, units)
        models.update(map(least, candidates))
    return [WeierstrassCurve(base, *a) for a in sorted(models)]


def canonical_model(E):
    """The least model of E's isomorphism class over E's own field.

    Two curves over one field are isomorphic over it exactly when their
    canonical models are equal.  E is taken to its short model
    (`autmap.reduction_isomorphism`), whose lead is scaled to the least
    element m of its coset of w-th powers by every u with u^w = m/lead,
    and the later coefficients are reduced as `_short_classes` reduces
    its candidates.  A singular E has no j-invariant and raises
    ValueError.
    """
    base, j = E.ctx, E.j_invariant()
    w, e, minima = _leads(base, j)
    R = autmap.reduction_isomorphism(E).target.coefficients
    lead = next(a for a in R if a)
    m = minima[lead ** e]
    least, _ = _least_models(base, j, m, gf.nth_roots(m / lead, w))
    return WeierstrassCurve(base, *least(R))


def _class_data(E, base):
    """Aut(E), its Frobenius classes over `base`, and each class's split degree."""
    group = autmap.automorphism_group(E)
    action = twistcoh.frobenius_action(group, base)
    classes = twistcoh.frobenius_classes(action)
    cocycles = (twistcoh.Cocycle(action, c.rep_index) for c in classes)
    return group, classes, [twistcoh.splitting_degree(c) for c in cocycles]


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
        raise autmap._fault(E, base, "labelling twists",
                            f"no isomorphism over split degrees {degrees}")
    psi = isos[0]
    phi = autmap.compose(autmap.invert(autmap.galois_apply(psi, base)), psi)
    comp = gf.field_create(base.p, math.lcm(phi.field.n, group.field.n))
    phi_params = autmap.embed_isomorphism(phi, comp).params
    index = None
    for k, g in enumerate(group.elements):
        if autmap.embed_isomorphism(g, comp).params == phi_params:
            index = k
            break
    if index is None:
        raise autmap._fault(E, base, "labelling twists",
                            "twist label is not an automorphism of the source")
    for cls in g_classes:
        if index in cls.indices:
            return cls, d
    raise autmap._fault(E, base, "labelling twists",
                        "automorphism missing from the class partition")


def enumerate_twists(E, base):
    """One representative curve per twist class of E over `base`.

    Takes the base-isomorphism classes of the short models with j(E) from
    `_short_classes`, each represented by its least model; their number
    must be the number of twisted classes.  Each representative is
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
    reps = _short_classes(base, E.j_invariant())
    if len(reps) != len(g_classes):
        raise autmap._fault(E, base, "finding twists", f"{len(reps)} short-model "
                            f"classes for {len(g_classes)} twisted classes")
    by_class = {}
    for T in reps:
        cls, degree = _label_class(E, T, base, group, g_classes, degrees)
        if cls.rep_index in by_class:
            raise autmap._fault(E, base, "labelling twists",
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
    trace 1, which callers verify by comparing `canonical_model`s rather
    than assume.
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

    Counted independently of the cohomology machinery: each class is its
    least short model, from `_short_classes`.  No field is enumerated, so
    the cost does not grow with the field.
    """
    if base.p not in (2, 3):
        raise ValueError("census implemented for characteristic 2 and 3")
    return _short_classes(base, base.zero)


def j_zero_class_census(base):
    """Number of base-isomorphism classes of smooth j = 0 curves over base."""
    return len(j_zero_class_representatives(base))


def check_item(name, expected, computed):
    """One pass/fail record, JSON-ready with stable key order."""
    return {"name": name, "expected": expected, "computed": computed,
            "ok": expected == computed}


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
    3/7 or 4/6 by parity for j = 0, always 2 otherwise).  Returns
    {"base": "p^n", "ok", "items"} with one `check_item` record per
    quantity; failures are reported as data, not raised.
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
        check_item("j_zero_twist_count", expected_count, len(classes0)),
        check_item("j_zero_split_degrees", expected_degrees, sorted(degrees0)),
        check_item("j_nonzero_twist_count", 2, len(classes1)),
        check_item("j_nonzero_split_degrees", [1, 2], sorted(degrees1)),
        check_item("j_zero_class_census", expected_count, j_zero_class_census(base)),
    ]
    return {"base": f"{p}^{n}", "ok": all(it["ok"] for it in items), "items": items}


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
