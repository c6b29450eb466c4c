"""Frobenius-twisted conjugacy classes of automorphism groups.

Over a finite ground field the Galois group is generated topologically by
the q-power Frobenius, so a continuous cocycle with values in Aut(E) is
determined by its value at Frobenius, and two cocycles agree up to
coboundary exactly when their values lie in the same twisted conjugacy
class {sigma^-1 * tau * Fr(sigma)}.  This module computes those classes,
cocycle orders and splitting degrees, the Galois-stable subgroups, and
the induced maps between class sets for a stable subgroup (kernel sizes
and fiber collisions).

Convention: a cocycle's value at Fr^j is the left-to-right product
Phi * Fr(Phi) * ... * Fr^{j-1}(Phi); the cocycle identity
v(j+k) = v(j) * Fr^j(v(k)) holds, and the tests check it on the values
of `cocycle_value` in `tests/oracles.py`.
"""

import itertools

from . import autmap, gf

_ACTION_STAGE = "Frobenius action on the automorphisms"


class FrobAction:
    """Frobenius acting on an automorphism group, as an index permutation.

    `perm[i]` is the index of Fr(elements[i]) where Fr is the q-power map
    of `base`.  `frobenius_action` builds it from the images of the
    group's generators along its walk, and it is a group automorphism
    without a check on the Cayley table:

    - Fr is a ring automorphism of the group's field that fixes GF(p),
      and `autmap._compose_params` is a polynomial with integer
      coefficients, so Fr(a o g) = Fr(a) o Fr(g): the walk gives each
      element its own image, and the map respects composition;
    - E's coefficients are fixed by Fr (`frobenius_action` checks this
      on entry), so Fr carries Aut(E) into itself, and it is injective
      on parameters, so it permutes the group.

    `order` is the least m with perm^m the identity; it must divide the
    degree of the group's field over `base`.  The twisted classes of the
    whole group and the coboundary sets are computed once, on first use
    (`frobenius_classes`, `_coboundary_sets`).
    """

    __slots__ = ("group", "base", "perm", "order", "_classes", "_coboundaries")

    def __init__(self, group, base, perm):
        self.group = group
        self.base = base
        self.perm = tuple(perm)
        order = 1
        current = self.perm
        identity = tuple(range(group.order))
        while current != identity:
            current = tuple(self.perm[i] for i in current)
            order += 1
        degree = group.field.n // base.n
        if degree % order != 0:
            raise autmap._fault(group.curve, base, _ACTION_STAGE, f"action order "
                                f"{order} does not divide the field degree {degree}")
        self.order = order
        self._classes = self._coboundaries = None

    def __repr__(self):
        return (
            f"FrobAction(base={self.base}, group_order={self.group.order}, "
            f"order={self.order})"
        )


class Cocycle:
    """A continuous cocycle, given by its value at Frobenius.

    Any group element defines one; whether it is a coboundary is a
    computed property of its twisted class, not an invariant here.
    """

    __slots__ = ("action", "index")

    def __init__(self, action, image):
        self.action = action
        if isinstance(image, int):
            if not 0 <= image < action.group.order:
                raise ValueError(f"image index {image} out of range")
            self.index = image
        else:
            idx = action.group.index_of(image)
            if idx is None:
                raise ValueError("image is not an element of the group")
            self.index = idx

    @property
    def image(self):
        return self.action.group.elements[self.index]

    def __repr__(self):
        return f"Cocycle(image={autmap.isomorphism_to_str(self.image)})"


class FrobClass:
    """One twisted conjugacy class: canonical representative plus members."""

    __slots__ = ("group", "indices")

    def __init__(self, group, indices):
        self.group = group
        self.indices = tuple(sorted(indices))

    @property
    def rep_index(self):
        return self.indices[0]

    @property
    def representative(self):
        return self.group.elements[self.indices[0]]

    @property
    def members(self):
        return tuple(self.group.elements[i] for i in self.indices)

    @property
    def size(self):
        return len(self.indices)

    def is_trivial(self):
        """Whether this is the class of the identity (the trivial twist)."""
        return self.indices[0] == 0

    def __eq__(self, other):
        # canonical element order makes indices comparable across group
        # objects built from the same curve and field
        if isinstance(other, FrobClass):
            return (self.group.curve == other.group.curve
                    and self.group.field is other.group.field
                    and self.indices == other.indices)
        return NotImplemented

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        rep = autmap.isomorphism_to_str(self.representative)
        return f"FrobClass(rep={rep}, size={self.size})"


def frobenius_action(G, base):
    """The q-power Frobenius of `base` as a permutation of G's elements.

    The curve is defined over `base`, so the Frobenius image of each
    automorphism's parameters is again an automorphism: `galois_apply`
    would check that identity, and here the images are only looked up.
    Only the generators of G, at most two, are mapped, by at most 8
    Frobenius powers; along G's walk each element e = parent o g_j then
    has its image Fr(e) = Fr(parent) o Fr(g_j), one Cayley-table lookup
    (see `FrobAction` for why Fr respects composition).
    """
    if base.p != G.field.p or G.field.n % base.n != 0:
        raise ValueError(f"{G.field} does not extend {base}")
    if any(gf.frobenius(a, base.n) != a for a in G.curve.coefficients):
        raise ValueError("curves are not defined over the declared base field")
    images = []
    for g in G.generators:
        k = G.index_of_params([gf.frobenius(x, base.n) for x in G.elements[g].params])
        if k is None:
            raise autmap._fault(G.curve, base, _ACTION_STAGE,
                                "Frobenius carries an automorphism outside the group")
        images.append(k)
    perm = [0] * G.order
    for e, parent, j in G.walk:
        perm[e] = G.cayley[perm[parent]][images[j]]
    return FrobAction(G, base, perm)


def _twisted_partition(A, subgroup_indices):
    """Twisted conjugacy classes of the given index set, conjugating only
    by members of that set.  The set must be Frobenius-stable."""
    return [FrobClass(A.group, c)
            for c in autmap._twisted_classes(A.group, subgroup_indices, A.perm)]


def frobenius_classes(A):
    """The partition of the group into twisted conjugacy classes.

    Sorted by canonical representative, so the trivial class comes first.
    The number of classes is the number of twists of the curve over
    A.base.  Computed once per action; each call returns a new list.
    """
    if A._classes is None:
        A._classes = _twisted_partition(A, range(A.group.order))
    return list(A._classes)


def _values(c):
    """The indices of v(1), v(2), ... by v(j+1) = v(1) * Fr(v(j)), without end."""
    row = c.action.group.cayley[c.index]
    perm = c.action.perm
    value = 0
    while True:
        value = row[perm[value]]
        yield value


def _first_hit(c, targets, stage, failure):
    """Least j >= 1 with v(j) in targets[j mod len(targets)].

    Both callers' answers are at most |G| * m for the action order m,
    since v(k * m) = v(m)^k; a walk past that bound is an internal fault.
    """
    A = c.action
    bound = A.group.order * A.order
    for j, value in enumerate(itertools.islice(_values(c), bound), 1):
        if value in targets[j % len(targets)]:
            return j
    raise autmap._fault(A.group.curve, A.base, stage, f"{c!r} {failure.format(bound)}")


def cocycle_order(c):
    """Least j >= 1 with trivial value at Fr^j."""
    return _first_hit(c, [{0}], "cocycle order", "has no trivial value within {} steps")


def _coboundary_sets(A):
    """B_r = {sigma^-1 * Fr^r(sigma)}, the class of the identity under
    Fr^r, for r modulo the action order.

    The twist of a cocycle c splits over the degree-j extension exactly
    when v(j) lies in B_{j mod m}: the restriction of c to the subgroup
    generated by Fr^j is then a coboundary there.  Computed once per
    action; each call returns a new list.
    """
    if A._coboundaries is None:
        n = A.group.order
        sets = []
        perm_r = tuple(range(n))
        for _ in range(A.order):
            sets.append(autmap._twisted_class(A.group, 0, range(n), perm_r))
            perm_r = tuple(A.perm[i] for i in perm_r)
        A._coboundaries = sets
    return list(A._coboundaries)


def splitting_degree(c):
    """Least j >= 1 over which the twist labeled by c becomes trivial.

    Unlike the raw cocycle order this is constant on twisted classes: a
    class member that is itself a twisted coboundary has degree 1 even
    when its telescoped values first return to the identity later.  Class
    representatives differ too: for y^2 = x^3 + 2x + 1 over GF(3), element
    2 represents a class of splitting degree 2 but has cocycle order 3.
    The degree never exceeds the cocycle order.
    """
    return _first_hit(c, _coboundary_sets(c.action), "splitting degree",
                      "does not split within degree {}")


def stable_subgroups(A):
    """All subgroups carried to themselves by the Frobenius action."""
    out = []
    for info in autmap.all_subgroups(A.group):
        members = set(info.indices)
        if all(A.perm[i] in members for i in info.indices):
            out.append(info)
    return out


def resolve_subgroup(A, name):
    """A stable subgroup by short name.

    Names: "trivial", "full", "minus-one" (the subgroup generated by
    negation), or "C<k>" for the stable cyclic subgroup of order k, which
    must exist and be unique among stable subgroups.
    """
    stable = stable_subgroups(A)
    if name == "trivial":
        return stable[0]
    if name == "full":
        return max(stable, key=lambda s: s.order)
    if name == "minus-one":
        minus = autmap.group_structure(A.group).minus_one_index
        want = tuple(sorted({0, minus}))
        for info in stable:
            if info.indices == want:
                return info
        raise ValueError("no stable subgroup generated by negation")
    if name.startswith("C") and name[1:].isdigit():
        k = int(name[1:])
        matches = [s for s in stable if s.order == k and s.is_cyclic]
        if not matches:
            raise ValueError(f"no stable cyclic subgroup of order {k}")
        if len(matches) > 1:
            raise ValueError(f"stable cyclic subgroup of order {k} is not unique")
        return matches[0]
    raise ValueError(f"unknown subgroup name {name!r}")


def cyclic_subgroup(A, image):
    """The subgroup generated by one element, as a subgroup record.

    `image` is a group element or its index.  Use with induced_map only
    when the result is Frobenius-stable; induced_map checks.
    """
    idx = image if isinstance(image, int) else A.group.index_of(image)
    if idx is None or not 0 <= idx < A.group.order:
        raise ValueError("generator is not an element of the group")
    indices = tuple(sorted(autmap._subgroup_closure(A.group.cayley, (idx,))))
    for info in autmap.all_subgroups(A.group):
        if info.indices == indices:
            return info
    raise autmap._fault(A.group.curve, A.base, "cyclic subgroup",
                        "cyclic closure missing from the subgroup lattice")


class InducedMapReport:
    """Kernel and fiber data for H-classes mapping into G-classes.

    `image_indices[i]` locates the G-class of h_classes[i] inside
    g_classes.  The kernel counts H-classes landing in the trivial
    G-class; collisions are pairs of distinct H-classes sharing a
    nontrivial image (trivial-image multiplicity is already the kernel
    size).  Both phenomena break injectivity and are reported separately.
    """

    __slots__ = ("action", "subgroup", "h_classes", "g_classes", "image_indices",
                 "kernel_size", "image_size", "collisions", "is_injective")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def __repr__(self):
        return (
            f"InducedMapReport(h_classes={len(self.h_classes)}, "
            f"kernel={self.kernel_size}, image={self.image_size}, "
            f"collisions={len(self.collisions)})"
        )


def induced_map(A, H):
    """Map the twisted classes of a stable subgroup into the full classes.

    H is a subgroup as reported by stable_subgroups (or all_subgroups,
    provided it is actually stable).
    """
    members = set(H.indices)
    if not all(A.perm[i] in members for i in H.indices):
        raise ValueError("subgroup is not Frobenius-stable")
    h_classes = _twisted_partition(A, H.indices)
    g_classes = frobenius_classes(A)
    locate = {}
    for k, cls in enumerate(g_classes):
        for i in cls.indices:
            locate[i] = k
    image_indices = tuple(locate[cls.rep_index] for cls in h_classes)
    kernel_size = sum(1 for k in image_indices if g_classes[k].is_trivial())
    image_size = len(set(image_indices))
    collisions = []
    for a in range(len(h_classes)):
        for b in range(a + 1, len(h_classes)):
            if image_indices[a] == image_indices[b]:
                if not g_classes[image_indices[a]].is_trivial():
                    collisions.append((a, b))
    return InducedMapReport(
        action=A,
        subgroup=H,
        h_classes=tuple(h_classes),
        g_classes=tuple(g_classes),
        image_indices=image_indices,
        kernel_size=kernel_size,
        image_size=image_size,
        collisions=tuple(collisions),
        is_injective=(kernel_size == 1 and not collisions),
    )


class CapitulationReport:
    """Which twists from a subgroup are already trivial over the base."""

    __slots__ = ("curve", "base", "induced", "capitulating", "surviving")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def __repr__(self):
        return (
            f"CapitulationReport(capitulating={len(self.capitulating)}, "
            f"surviving={len(self.surviving)})"
        )


def capitulation_report(E, base, H):
    """Capitulation analysis for a curve, ground field, and stable subgroup.

    H may be a subgroup record against automorphism_group(E) or a name
    accepted by resolve_subgroup.  Lists the nontrivial H-classes whose
    twists are isomorphic to E over the base already, and the cocycle
    orders of the classes that survive.
    """
    G = autmap.automorphism_group(E)
    A = frobenius_action(G, base)
    if isinstance(H, str):
        H = resolve_subgroup(A, H)
    report = induced_map(A, H)
    capitulating = []
    surviving = []
    for i, cls in enumerate(report.h_classes):
        if cls.is_trivial():
            continue
        if report.g_classes[report.image_indices[i]].is_trivial():
            capitulating.append(cls)
        else:
            order = cocycle_order(Cocycle(A, cls.rep_index))
            surviving.append((cls, order))
    return CapitulationReport(
        curve=E,
        base=base,
        induced=report,
        capitulating=tuple(capitulating),
        surviving=tuple(surviving),
    )


def class_report(A):
    """JSON-ready summary of the twisted classes, with stable key order."""
    classes = []
    for cls in frobenius_classes(A):
        classes.append({
            "rep": autmap.isomorphism_to_str(cls.representative),
            "size": cls.size,
            "cocycle_order": cocycle_order(Cocycle(A, cls.rep_index)),
        })
    return {
        "base": f"{A.base.p}^{A.base.n}",
        "group_order": A.group.order,
        "action_order": A.order,
        "classes": classes,
    }


def induced_map_report_json(report):
    """JSON-ready summary of an induced-map computation."""
    return {
        "base": f"{report.action.base.p}^{report.action.base.n}",
        "subgroup_order": report.subgroup.order,
        "h_classes": [
            {
                "rep": autmap.isomorphism_to_str(cls.representative),
                "size": cls.size,
                "image_rep": autmap.isomorphism_to_str(
                    report.g_classes[report.image_indices[i]].representative
                ),
            }
            for i, cls in enumerate(report.h_classes)
        ],
        "kernel_size": report.kernel_size,
        "image_size": report.image_size,
        "collisions": [
            [
                autmap.isomorphism_to_str(report.h_classes[a].representative),
                autmap.isomorphism_to_str(report.h_classes[b].representative),
            ]
            for a, b in report.collisions
        ],
        "injective": report.is_injective,
    }
