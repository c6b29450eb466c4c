"""Command-line front end.

Subcommands classify a curve's automorphisms and twists, list the
Frobenius-twisted conjugacy classes with optional induced-map reports,
count j = 0 classes, and run a one-shot reproduction harness over the
expected tables.  Output is a flat key = value text rendering or JSON
with stable key order; both carry the same data.

Exit codes: 0 success, 1 usage error, 2 computation limit exceeded,
3 verification failure, 4 internal error (one line on stderr).
"""

import argparse
import json
import sys

from . import autmap, gf, twistcoh, twists
from .curve import WeierstrassCurve, from_short
from .twists import check_item

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIMIT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Bad flags or unparsable input; reported on stderr with exit 1."""


def _regroup_tokens(text, count):
    """Split a comma-separated literal, regrouping extension elements.

    An extension element "p^m:c0,...,c_{m-1}" spans m comma-separated
    tokens; the "p^m:" prefix says how many to reassemble.
    """
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    tokens = [t.strip() for t in text.split(",")]
    literals = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if ":" in tok:
            head = tok.partition(":")[0]
            if "^" not in head:
                raise UsageError(f"bad element literal {tok!r}")
            try:
                span = int(head.partition("^")[2])
            except ValueError:
                raise UsageError(f"bad element literal {tok!r}")
            if span < 1 or i + span > len(tokens):
                raise UsageError(f"element literal {tok!r} is truncated")
            literals.append(",".join(tokens[i:i + span]))
            i += span
        else:
            literals.append(tok)
            i += 1
    if len(literals) != count:
        raise UsageError(f"expected {count} coefficients, got {len(literals)}")
    return literals


def _parse_elements(text, ctx, count):
    return [gf.element_from_str(lit, ctx) for lit in _regroup_tokens(text, count)]


def _field(args):
    if args.n < 1:
        raise UsageError("--n must be positive")
    return gf.field_create(args.p, args.n)


def _build_curve(args):
    ctx = _field(args)
    if args.curve is not None and args.short is not None:
        raise UsageError("give --curve or --short, not both")
    if args.curve is not None:
        coeffs = _parse_elements(args.curve, ctx, 5)
        E = WeierstrassCurve(ctx, *coeffs)
    elif args.short is not None:
        a, b = _parse_elements(args.short, ctx, 2)
        E = from_short(ctx, a, b)
    else:
        raise UsageError("a curve is required: --curve '[a1,a2,a3,a4,a6]' or --short 'a,b'")
    if not E.is_smooth():
        raise UsageError("the given equation is singular")
    return E


def _text_lines(value, path=""):
    """Flatten nested dicts/lists into 'path = value' lines, leaves only."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _text_lines(sub, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for k, sub in enumerate(value):
            yield from _text_lines(sub, f"{path}.{k}" if path else str(k))
    else:
        yield f"{path} = {value}"


def _emit(args, data):
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for line in _text_lines(data):
            print(line)


def _coeff_strs(curve):
    return [gf.element_to_str(c) for c in curve.coefficients]


def cmd_automorphisms(args):
    """Order, field of definition, elements, and structure of Aut(E)."""
    E = _build_curve(args)
    G = autmap.automorphism_group(E)
    S = autmap.group_structure(G)
    order_hist = {}
    for o in S.element_orders:
        order_hist[o] = order_hist.get(o, 0) + 1
    data = {
        "base": f"{E.ctx.p}^{E.ctx.n}",
        "curve": _coeff_strs(E),
        "order": G.order,
        "field": f"{G.field.p}^{G.field.n}",
        "elements": [autmap.isomorphism_to_str(g) for g in G.elements],
        "abelian": S.is_abelian,
        "element_orders": {str(k): v for k, v in sorted(order_hist.items())},
        "subgroup_counts": {str(k): v for k, v in sorted(S.subgroup_counts.items())},
        "center_size": len(S.center),
        "unique_subgroup_orders": list(S.unique_subgroups),
        "minus_one": autmap.isomorphism_to_str(G.elements[S.minus_one_index]),
    }
    _emit(args, data)
    return EXIT_OK


def cmd_twists(args):
    """All twist classes of the curve with equations, labels, and counts."""
    E = _build_curve(args)
    report = twists.enumerate_twists(E, E.ctx)
    data = twists.twist_report_json(report)
    counts = twists.point_count_table(report)
    data["point_counts_distinct"] = counts["all_distinct"]
    data["unseparated_pairs"] = counts["unseparated"]
    _emit(args, data)
    return EXIT_OK


def _resolve_subgroup(action, text):
    if text.startswith("(") and "@" in text:
        body, _, field_lit = text.rpartition("@")
        if not body.endswith(")"):
            raise UsageError(f"bad generator literal {text!r}")
        p_str, _, m_str = field_lit.partition("^")
        field = gf.field_create(int(p_str), int(m_str) if m_str else 1)
        params = _parse_elements(body[1:-1], field, 4)
        group = action.group
        if field != group.field:
            raise UsageError(
                f"generator field {field} is not the group field {group.field}"
            )
        index = group.index_of_params(params)
        if index is None:
            raise UsageError(f"{text} is not an automorphism of the curve")
        return twistcoh.cyclic_subgroup(action, group.elements[index])
    return twistcoh.resolve_subgroup(action, text)


def cmd_h1(args):
    """Twisted classes of Aut(E); with --subgroup, the induced-map report."""
    E = _build_curve(args)
    G = autmap.automorphism_group(E)
    A = twistcoh.frobenius_action(G, E.ctx)
    if args.subgroup is None:
        _emit(args, twistcoh.class_report(A))
        return EXIT_OK
    H = _resolve_subgroup(A, args.subgroup)
    report = twistcoh.induced_map(A, H)
    _emit(args, twistcoh.induced_map_report_json(report))
    return EXIT_OK


def cmd_census(args):
    """Count of j = 0 classes over the field, with supersingularity flags."""
    base = _field(args)
    if base.p not in (2, 3):
        raise UsageError("census covers characteristic 2 and 3")
    reps = twists.j_zero_class_representatives(base)
    data = {
        "base": f"{base.p}^{base.n}",
        "count": len(reps),
        "classes": [
            {
                "curve": _coeff_strs(R),
                "points": R.point_count(),
                "supersingular": R.is_supersingular(),
            }
            for R in reps
        ],
    }
    _emit(args, data)
    return EXIT_OK


# --- reproduction harness -------------------------------------------------

# expected twisted-class data over the four smallest bases, as canonical
# (u, r, s, t) parameter tuples; classes sorted by smallest member
_CLASSES_3_1 = [
    [[1, 0, 0, 0], [2, 0, 0, 0]],
    [[1, 1, 0, 0], [2, 2, 0, 0]],
    [[1, 2, 0, 0], [2, 1, 0, 0]],
    [[3, 0, 0, 0], [3, 1, 0, 0], [3, 2, 0, 0],
     [6, 0, 0, 0], [6, 1, 0, 0], [6, 2, 0, 0]],
]
_TRIVIAL_CLASS_2_1 = [
    [1, 0, 0, 0], [1, 0, 0, 1], [1, 1, 1, 2], [1, 1, 1, 3],
    [2, 0, 0, 0], [2, 0, 0, 1], [2, 2, 3, 2], [2, 2, 3, 3],
    [3, 0, 0, 0], [3, 0, 0, 1], [3, 3, 2, 2], [3, 3, 2, 3],
]
_SHIFT_PAIR_3_2 = [[1, 1, 0, 0], [1, 2, 0, 0]]

_EXAMPLE_KERNELS = {5: 1, 7: 2, 11: 2, 13: 1}


def _class_sets(action):
    """Each twisted class as a sorted list of parameter lists, classes sorted."""
    group = action.group
    out = []
    for cls in twistcoh.frobenius_classes(action):
        out.append(sorted(list(group.elements[i].param_key()) for i in cls.indices))
    return sorted(out)


def _label_items(items, G3, G2):
    """Class labels of single automorphisms, trivial over some bases only."""
    for group, key, bases, expected in (
        (G3, (3, 0, 0, 0), (gf.field_create(3, 1), gf.field_create(3, 2)),
         ["nontrivial", "nontrivial"]),
        (G2, (3, 0, 0, 1), (gf.field_create(2, 1), gf.field_create(2, 2)),
         ["trivial", "nontrivial"]),
    ):
        index = group.index_of_params(map(group.field.from_canon, key))
        for base, want in zip(bases, expected):
            A = twistcoh.frobenius_action(group, base)
            cls = next(
                c for c in twistcoh.frobenius_classes(A) if index in c.indices
            )
            got = "trivial" if cls.is_trivial() else "nontrivial"
            u, r, s, t = key
            items.append(check_item(
                f"frobenius_label/{base.p}^{base.n}/u{u}_r{r}_s{s}_t{t}", want, got))


def _example_items(items):
    """Quadratic-twist capitulation on y^2 = x^3 - x over small prime fields."""
    for q, kernel in _EXAMPLE_KERNELS.items():
        F = gf.field_create(q)
        E = WeierstrassCurve(F, 0, 0, 0, -1, 0)
        induced = twistcoh.capitulation_report(E, F, "minus-one").induced
        items.append(check_item(f"quadratic_capitulation/{q}/kernel_size",
                                kernel, induced.kernel_size))
        model = twists.canonical_model(E)
        trivial = [twists.canonical_model(twists.quadratic_twist(E, d)) == model
                   for d in gf.enumerate_field(F)[1:] if not gf.is_square(d)]
        items.append(check_item(f"quadratic_capitulation/{q}/nonsquare_twists_trivial",
                                q % 4 == 3, all(trivial) and bool(trivial)))
        items.append(check_item(f"quadratic_capitulation/{q}/twists_consistent",
                                True, len(set(trivial)) == 1))


def _listing_items(items, G3, G2):
    """Golden class listings over the four smallest bases."""
    F3, F9 = gf.field_create(3), gf.field_create(3, 2)
    F2, F4 = gf.field_create(2), gf.field_create(2, 2)
    A31 = twistcoh.frobenius_action(G3, F3)
    items.append(check_item("class_listing/3^1/partition", _CLASSES_3_1,
                            _class_sets(A31)))
    A32 = twistcoh.frobenius_action(G3, F9)
    sets32 = _class_sets(A32)
    items.append(check_item("class_listing/3^2/sizes", [1, 1, 2, 2, 3, 3],
                            sorted(len(c) for c in sets32)))
    items.append(check_item("class_listing/3^2/shift_pair_is_a_class", True,
                            _SHIFT_PAIR_3_2 in sets32))
    A21 = twistcoh.frobenius_action(G2, F2)
    sets21 = _class_sets(A21)
    items.append(check_item("class_listing/2^1/sizes", [6, 6, 12],
                            sorted(len(c) for c in sets21)))
    items.append(check_item("class_listing/2^1/trivial_class_members",
                            _TRIVIAL_CLASS_2_1, sets21[0]))
    orders21 = sorted(
        twistcoh.cocycle_order(twistcoh.Cocycle(A21, c.rep_index))
        for c in twistcoh.frobenius_classes(A21) if not c.is_trivial()
    )
    items.append(check_item("class_listing/2^1/nontrivial_cocycle_orders",
                            [8, 8], orders21))
    A22 = twistcoh.frobenius_action(G2, F4)
    degrees22 = sorted(
        twistcoh.splitting_degree(twistcoh.Cocycle(A22, c.rep_index))
        for c in twistcoh.frobenius_classes(A22)
    )
    items.append(check_item("class_listing/2^2/split_degrees",
                            [1, 2, 3, 3, 4, 6, 6], degrees22))


def repro_items():
    """Every checkable table as one pass/fail record."""
    items = [dict(it, name=f"twist_tables/{p}^{n}/{it['name']}")
             for p in (2, 3) for n in (1, 2, 3, 4)
             for it in twists.verify_twist_tables(p, n)["items"]]
    _example_items(items)
    G3 = autmap.automorphism_group(
        WeierstrassCurve(gf.field_create(3), 0, 0, 0, -1, 0))
    G2 = autmap.automorphism_group(
        WeierstrassCurve(gf.field_create(2), 0, 0, 1, 0, 0))
    _label_items(items, G3, G2)
    _listing_items(items, G3, G2)
    return items


def cmd_repro(args):
    """Run the full reproduction harness; exit 3 on any failed item."""
    items = repro_items()
    ok = all(it["ok"] for it in items)
    data = {"ok": ok, "items": items}
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for it in items:
            mark = "pass" if it["ok"] else "FAIL"
            print(f"{mark}  {it['name']}: expected {it['expected']!r}, "
                  f"computed {it['computed']!r}")
        failed = sum(1 for it in items if not it["ok"])
        if failed:
            print(f"{failed} of {len(items)} items FAILED")
        else:
            print(f"all {len(items)} items pass")
    return EXIT_OK if ok else EXIT_VERIFY


_COMMANDS = {
    "automorphisms": cmd_automorphisms,
    "twists": cmd_twists,
    "h1": cmd_h1,
    "census": cmd_census,
    "repro": cmd_repro,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="twistlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, needs_curve in (
        ("automorphisms", True), ("twists", True), ("h1", True),
        ("census", False), ("repro", False),
    ):
        p = sub.add_parser(name)
        if name != "repro":
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--n", type=int, default=1)
        if needs_curve:
            p.add_argument("--curve", help="long form [a1,a2,a3,a4,a6]")
            p.add_argument("--short", help="short form a,b per characteristic")
        if name == "h1":
            p.add_argument("--subgroup",
                           help="trivial, full, minus-one, C<k>, or (u,r,s,t)@p^m")
        p.add_argument("--limit", type=int,
                       help="most elements one step may walk (env TWISTLAB_LIMIT)")
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        if args.limit is not None and args.limit < 2:
            raise UsageError("--limit must be at least 2")
        token = gf.LIMIT_OVERRIDE.set(args.limit)
        try:
            return _COMMANDS[args.command](args)
        finally:
            gf.LIMIT_OVERRIDE.reset(token)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except gf.LimitExceededError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
