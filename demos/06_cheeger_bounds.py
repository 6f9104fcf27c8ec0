"""Cheeger constants and the combined spectral bounds on the tetrahedron.

Each dimension produces weighted signed auxiliary graphs on its faces;
exact branch-and-bound cut searches give rational Cheeger constants, and the
up/down constants combine into two-sided bounds on the shared spectral
gap.  The tighter side alternates between up and down.
"""

from hodgewalk import (
    build_aux,
    cheeger_quotient,
    cheeger_signed,
    combined_report,
    components,
    cover_from_complex,
    parse_complex,
)

cover = cover_from_complex(parse_complex("x0 x1 x2 x3"))

print("auxiliary graph on the 6 edges (up-adjacency):")
edges = components(cover, "quotient-up", 1)[0]
aux = build_aux(cover, edges, "up")
print(f"  nodes={aux.n} edges={len(aux.edges)} weights={set(aux.weight)} measures={set(aux.measure)}")
h, cut = cheeger_quotient(aux)
print(f"  quotient Cheeger constant {h}, witness cut {[cover.labels[q] for q in cut]}")
h, (nodes, orient) = cheeger_signed(aux)
print(f"  signed Cheeger constant {h} over {len(nodes)} nodes")

for k in (1, 2):
    (rep,) = combined_report(cover, k)
    print(f"\ndimension pair (up {k - 1}, down {k}):  d_down = {rep.d_down}")
    print(f"  quotient: {rep.lower_quotient} <= gap {rep.gap_quotient:.6f} <= {rep.upper_quotient}"
          f"  (constants {rep.h_quotient_up}, {rep.h_quotient_down})")
    print(f"  signed:   {rep.lower_signed} <= gap {rep.gap_signed:.6f} <= {rep.upper_signed}"
          f"  (constants {rep.h_signed_up}, {rep.h_signed_down})")
    print(f"  walk convergence rate bounded in [{rep.rate_lower}, {rep.rate_upper}]")
