"""Quadratic twists at j = 1728 that are secretly trivial.

On y^2 = x^3 - x the twist by a non-square d substitutes x -> -x,
y -> iy when -d is a square, so for q = 3 mod 4 the "nontrivial"
quadratic twist is isomorphic to the original curve over the ground
field already.  In cohomological terms the class capitulates: it is
nontrivial for the subgroup generated by negation but trivial for the
full automorphism group.
"""

from twistlab import (
    automorphism_group, canonical_model, capitulation_report, enumerate_field,
    field_create, frobenius_action, induced_map, quadratic_twist,
    resolve_subgroup,
)
from twistlab.curve import from_short

for q in (5, 7, 11, 13):
    F = field_create(q)
    E = from_short(F, -1, 0)
    G = automorphism_group(E)
    A = frobenius_action(G, F)
    H = resolve_subgroup(A, "minus-one")
    kernel = induced_map(A, H).kernel_size

    units = enumerate_field(F)[1:]
    d = next(u for u in units if u not in {x * x for x in units})
    T = quadratic_twist(E, d)
    # isomorphic over GF(q) exactly when the canonical models are equal
    trivial = canonical_model(T) == canonical_model(E)

    rep = capitulation_report(E, F, "minus-one")
    print(f"q = {q:2d} (q mod 4 = {q % 4}): kernel size {kernel}, "
          f"twist by non-square {d} trivial over GF({q}): {trivial}, "
          f"capitulating classes: {len(rep.capitulating)}, "
          f"surviving: {len(rep.surviving)}")
