"""The four benchmark workloads: seeded inputs, timed items, output checks.

`build(workload, seed)` runs in the measured child process: it imports
twistlab and turns the seed into a list of items, each a call into the
public API through `twistlab.<module>.<fn>`.  The check functions run in
the parent, on the JSON the child reports, and never import twistlab.

Why these inputs (README.md has the full account):

- repro: `twistlab repro --json`, the 63 pinned results over GF(2^1..2^4),
  GF(3^1..3^4) and GF(5..13).  It is what users run to check the package,
  and most of its time goes to building isomorphisms.
- twists: `enumerate_twists` plus `twist_report_json`.  The only workload
  that runs the coefficient-grid scan, pairwise base isomorphism tests and
  `minimal_isomorphism_degree`.  The three golden inputs run in every pass,
  next to random models of fixed curves: j = 0 over GF(9), ordinary over
  GF(2^3), GF(2^4), GF(3^3), and j = 0, 1728 and generic over GF(5..13).
- pointcount: a random ordinary curve and its quadratic (odd p) or
  Artin-Schreier (p = 2) twist, both counted.  Only point enumeration and
  field arithmetic, with no isomorphisms at all.
- classify: automorphism group, Frobenius action, twisted classes, every
  splitting degree and the induced map of every stable subgroup.  j = 0
  curves over GF(2^4), GF(2^5), GF(2^7) and GF(3^3..3^6) need extension
  fields of up to 2^21 elements that are never enumerated (roots, linear
  algebra, embeddings); j = 0 and j = 1728 over primes 1009..2039 give
  enough cheap items for a p90.

The seed changes the curves, not the cost profile of a pass: each pass
covers a fixed list of fields and isomorphism classes (on classify, one
random model of each twist over the prime field, in characteristic 2 and
3), and the seed draws the models or coefficients.  Enumeration cost does
not depend on which curve is drawn, nor does a class's cost depend on its
model.  On classify some of those classes end in "automorphism search
stalled" or a field-size limit at the seed commit; they are failed items
in every pass, never redrawn.
"""

import contextlib
import io
import json
import random

WORKLOADS = ("repro", "twists", "pointcount", "classify")
DEFAULT_SEED = 1
REPRO_ITEMS = 63

TWISTS_GOLDEN = (
    ("twists_2_1", 2, 1, (0, 0, 1, 0, 0)),
    ("twists_2_2", 2, 2, (0, 0, 1, 0, 0)),
    ("twists_3_1", 3, 1, (0, 0, 0, -1, 0)),
)
# (item, p, n, kind, base curve): every pass takes a random model of each.
# The prime-field items are most of the items and little of the time; they
# keep the median item a typical small query.
_J0, _J1728, _GENERIC = (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 0, 2, 1)
TWISTS_MODELS = (
    ("j0/3^2", 3, 2, "j0", (0, 0, 0, -1, 0)),
    ("ordinary/2^3", 2, 3, "generic", (1, 0, 0, 0, 1)),
    ("ordinary/2^4", 2, 4, "generic", (1, 0, 0, 0, 1)),
    ("ordinary/3^3", 3, 3, "generic", (0, 1, 0, 0, 1)),
    *((f"{kind}/{p}", p, 1, kind, coeffs)
      for p in (5, 7, 11, 13)
      for kind, coeffs in (("j0", _J0), ("j1728", _J1728), ("generic", _GENERIC))),
    # p = 2 mod 3, so j = 0 has only the quadratic twist
    *((f"j0/{p}", p, 1, "j0", _J0) for p in (17, 23, 29, 41, 47)),
    *((f"generic/{p}", p, 1, "generic", _GENERIC)
      for p in (17, 19, 23, 29, 31, 37, 41, 43, 47)),
)

POINTCOUNT_FIELDS = (
    (2, 8), (2, 9), (2, 10),
    (3, 6), (3, 7),
    (5, 4), (5, 5),
    (1021, 1), (4093, 1), (16381, 1),
)

CLASSIFY_CHAR2 = (4, 5, 7)
CLASSIFY_CHAR3 = (3, 4, 5, 6)
# twists of y^2 + y = x^3 over GF(2) and of y^2 = x^3 - x over GF(3)
CHAR2_CLASSES = ((0, 0, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 1, 1, 1))
CHAR3_CLASSES = ((0, 0, 0, 2, 0), (0, 0, 0, 2, 1), (0, 0, 0, 2, 2), (0, 0, 0, 1, 0))
# six primes = 1 mod 12 (Aut over the prime field) and two = 11 mod 12 (Aut
# over GF(p^2), where BSGS runs)
CLASSIFY_PRIMES = (1009, 1019, 1021, 1033, 1093, 2017, 2029, 2039)
CLASSIFY_PRIME_DRAWS = 6


def expected_twist_count(p, n, kind):
    """Number of twists over GF(p^n) of a curve whose j-invariant is of `kind`.

    kind is "j0", "j1728" or anything else for j not in {0, 1728}.  In
    characteristic 2 and 3, 1728 = 0, so only "j0" is special there.
    """
    q = p ** n
    if kind == "j0":
        if p == 2:
            return 3 if n % 2 else 7
        if p == 3:
            return 4 if n % 2 else 6
        return 6 if q % 3 == 1 else 2
    if kind == "j1728" and p >= 5:
        return 4 if q % 4 == 1 else 2
    return 2


def expected_aut_order(p, kind):
    if kind == "j0":
        return {2: 24, 3: 12}.get(p, 6)
    if kind == "j1728" and p >= 5:
        return 4
    return 2


# ---------------------------------------------------------------------------
# child side: inputs and items

class Item:
    """One timed call into the library with the data needed to check it."""

    __slots__ = ("id", "p", "n", "kind", "curve", "run", "golden")

    def __init__(self, id, p, n, kind, curve, run, golden=None):
        self.id = id
        self.p = p
        self.n = n
        self.kind = kind
        self.curve = curve
        self.run = run
        self.golden = golden

    def describe(self):
        return {"id": self.id, "p": self.p, "n": self.n, "kind": self.kind,
                "curve": self.curve, "golden": self.golden}


def build(workload, seed):
    """The items of one pass, made from `seed` alone."""
    rng = random.Random(f"{workload}:{seed}")
    return _ITEMS_FOR[workload](rng)


def _tl():
    import twistlab.autmap
    import twistlab.cli
    import twistlab.curve
    import twistlab.gf
    import twistlab.twistcoh
    import twistlab.twists
    return twistlab


def _literal(E):
    gf = _tl().gf
    return ",".join(gf.element_to_str(c) for c in E.coefficients)


def _element(K, rng, nonzero=False):
    return K.from_canon(rng.randrange(1 if nonzero else 0, K.q))


def _random_model(K, coeffs, rng):
    """The curve `coeffs` moved by a random isomorphism defined over K."""
    tl = _tl()
    u = _element(K, rng, nonzero=True)
    r, s, t = (_element(K, rng) for _ in range(3))
    E = tl.curve.WeierstrassCurve(K, *coeffs)
    return tl.curve.WeierstrassCurve(
        K, *tl.autmap.transform_coefficients(E.coefficients, u, r, s, t))


def _random_curve(K, rng, accept):
    W = _tl().curve.WeierstrassCurve
    while True:
        E = W(K, *(_element(K, rng) for _ in range(5)))
        if E.is_smooth() and accept(E):
            return E


def _j_kind(E):
    j = E.j_invariant()
    if j.is_zero():
        return "j0"
    if E.ctx.p >= 5 and j == E.ctx.scalar(1728):
        return "j1728"
    return "generic"


def _prime_curve(K, kind, rng):
    """y^2 = x^3 + b (j = 0) or y^2 = x^3 + a*x (j = 1728), random a or b."""
    W = _tl().curve.WeierstrassCurve
    c = _element(K, rng, nonzero=True)
    return W(K, 0, 0, 0, 0, c) if kind == "j0" else W(K, 0, 0, 0, c, 0)


def _repro_items(rng):
    cli = _tl().cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["repro", "--json"])
        return {"code": code, "report": out.getvalue()}

    return [Item("repro", 0, 0, "repro", "", run)]


def _twists_item(item_id, E, kind, golden=None):
    tl = _tl()

    def run():
        report = tl.twists.enumerate_twists(E, E.ctx)
        return tl.twists.twist_report_json(report)

    return Item(item_id, E.ctx.p, E.ctx.n, kind, _literal(E), run, golden)


def _twists_items(rng):
    tl = _tl()
    F, W = tl.gf.field_create, tl.curve.WeierstrassCurve
    items = [_twists_item(f"golden/{name}", W(F(p, n), *coeffs), "j0", name)
             for name, p, n, coeffs in TWISTS_GOLDEN]
    for item_id, p, n, kind, coeffs in TWISTS_MODELS:
        E = _random_model(F(p, n), coeffs, rng)
        if _j_kind(E) != kind:
            raise ValueError(f"twists base curve {coeffs} over GF({p}^{n}) is not {kind}")
        items.append(_twists_item(f"model/{item_id}", E, kind))
    return items


def _pointcount_items(rng):
    tl = _tl()
    gf, twists = tl.gf, tl.twists
    items = []
    for p, n in POINTCOUNT_FIELDS:
        K = gf.field_create(p, n)
        E = _random_curve(K, rng, lambda E: _j_kind(E) != "j0")
        while True:
            d = _element(K, rng, nonzero=True)
            if (gf.absolute_trace(d) == 1) if p == 2 else not gf.is_square(d):
                break

        def run(E=E, d=d):
            twin = (twists.artin_schreier_twist(E, d) if E.ctx.p == 2
                    else twists.quadratic_twist(E, d))
            return {"points": [E.point_count(), twin.point_count()],
                    "twist_by": gf.element_to_str(d)}

        items.append(Item(f"pair/{p}^{n}", p, n, _j_kind(E), _literal(E), run))
    return items


def _classify_item(item_id, E, kind):
    tl = _tl()
    autmap, twistcoh = tl.autmap, tl.twistcoh

    def run():
        G = autmap.automorphism_group(E)
        A = twistcoh.frobenius_action(G, E.ctx)
        classes = twistcoh.frobenius_classes(A)
        degrees = [twistcoh.splitting_degree(twistcoh.Cocycle(A, c.rep_index))
                   for c in classes]
        induced = []
        for H in twistcoh.stable_subgroups(A):
            r = twistcoh.induced_map(A, H)
            induced.append([H.order, r.kernel_size, r.image_size, len(r.collisions)])
        return {"order": G.order, "field": f"{G.field.p}^{G.field.n}",
                "class_sizes": [c.size for c in classes],
                "split_degrees": degrees, "induced": induced}

    return Item(item_id, E.ctx.p, E.ctx.n, kind, _literal(E), run)


def _classify_items(rng):
    tl = _tl()
    F = tl.gf.field_create
    items = []
    for p, degrees, classes in ((2, CLASSIFY_CHAR2, CHAR2_CLASSES),
                                (3, CLASSIFY_CHAR3, CHAR3_CLASSES)):
        for n in degrees:
            for k, coeffs in enumerate(classes):
                E = _random_model(F(p, n), coeffs, rng)
                items.append(_classify_item(f"j0/{p}^{n}/class{k}", E, "j0"))
    for p in CLASSIFY_PRIMES:
        for kind in ("j0", "j1728"):
            for k in range(CLASSIFY_PRIME_DRAWS):
                E = _prime_curve(F(p), kind, rng)
                items.append(_classify_item(f"{kind}/{p}/{k}", E, kind))
    return items


_ITEMS_FOR = {
    "repro": _repro_items,
    "twists": _twists_items,
    "pointcount": _pointcount_items,
    "classify": _classify_items,
}


# ---------------------------------------------------------------------------
# parent side: output checks, outside any timed region

def check(workload, record, golden_dir):
    """Problems with one successful item's output, as a list of strings."""
    return _CHECKS[workload](record, record["output"], golden_dir)


def repro_outcomes(record):
    """(name, ok) for each of the repro items in one `repro --json` record."""
    if record["status"] != "ok":
        return [(f"repro/{k}", False) for k in range(REPRO_ITEMS)]
    try:
        items = json.loads(record["output"]["report"])["items"]
    except (ValueError, KeyError, TypeError):
        return [(f"repro/{k}", False) for k in range(REPRO_ITEMS)]
    return [(it["name"], bool(it["ok"])) for it in items]


def _check_repro(record, out, golden_dir):
    """Item count and exit code; failed items are counted one by one elsewhere."""
    problems = []
    outcomes = repro_outcomes(record)
    if len(outcomes) != REPRO_ITEMS:
        problems.append(f"repro reported {len(outcomes)} items, expected {REPRO_ITEMS}")
    if (out["code"] == 0) != all(ok for _, ok in outcomes):
        problems.append(f"repro exit code {out['code']} disagrees with its items")
    return problems


def _check_twists(record, out, golden_dir):
    p, n, kind = record["p"], record["n"], record["kind"]
    problems = []
    want = expected_twist_count(p, n, kind)
    if len(out["twists"]) != want:
        problems.append(f"{len(out['twists'])} twists, table says {want}")
    if not out["twists"] or out["twists"][0]["split_degree"] != 1:
        problems.append("the trivial twist does not split over the base")
    golden = record["golden"]
    if golden is not None:
        if json.dumps(out, indent=2) + "\n" != (golden_dir / f"{golden}.json").read_text():
            problems.append(f"output differs from tests/golden/{golden}.json")
    if kind == "generic":
        points = sum(t["points"] for t in out["twists"])
        if points != 2 * p ** n + 2:
            problems.append(f"N + N' = {points}, expected {2 * p ** n + 2}")
    return problems


def _check_pointcount(record, out, golden_dir):
    q = record["p"] ** record["n"]
    n1, n2 = out["points"]
    problems = []
    if n1 + n2 != 2 * q + 2:
        problems.append(f"N + N' = {n1 + n2}, expected 2q + 2 = {2 * q + 2}")
    if (q + 1 - n1) ** 2 > 4 * q:
        problems.append(f"N = {n1} violates the Hasse bound for q = {q}")
    return problems


def _check_classify(record, out, golden_dir):
    p, n, kind = record["p"], record["n"], record["kind"]
    problems = []
    order = expected_aut_order(p, kind)
    if out["order"] != order:
        problems.append(f"|Aut| = {out['order']}, expected {order}")
    if sum(out["class_sizes"]) != out["order"]:
        problems.append("class sizes do not partition the group")
    want = expected_twist_count(p, n, kind)
    if len(out["class_sizes"]) != want:
        problems.append(f"{len(out['class_sizes'])} classes, table says {want}")
    if len(out["split_degrees"]) != len(out["class_sizes"]) or out["split_degrees"][:1] != [1]:
        problems.append("trivial class does not split over the base")
    full = [m for m in out["induced"] if m[0] == out["order"]]
    if full != [[out["order"], 1, len(out["class_sizes"]), 0]]:
        problems.append("induced map of the full group is not the identity")
    return problems


_CHECKS = {
    "repro": _check_repro,
    "twists": _check_twists,
    "pointcount": _check_pointcount,
    "classify": _check_classify,
}
