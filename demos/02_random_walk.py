"""The root-to-leaf path random walk on the tetrahedron.

The walker alternates up-moves (LP-proportional, to the coherently
oriented lift) and down-moves (RP-proportional, to the oppositely
oriented lift), with lazy steps at leaves and roots.  The stationary
distribution is LP*RP up to normalization; an exact rational check and a
seeded million-step simulation agree.
"""

from hodgewalk import (
    components,
    compute_path_weights,
    cover_from_complex,
    expected_path_length,
    parse_complex,
    simulate,
    stationary,
    total_variation,
    transition_full,
)

cover = cover_from_complex(parse_complex("x0 x1 x2 x3"))
pw = compute_path_weights(cover)

P = transition_full(cover, "quotient")
print("row sums all equal 1:", all(s == 1 for s in P.row_sums()))

comp = components(cover, "quotient")[0]
pi = stationary(cover, comp, "quotient")
print("stationary weight by dimension:")
for k in range(4):
    q = cover.nodes_by_dim[k][0]
    print(f"  dim {k}: {pi.weights[q]}  (x {len(cover.nodes_by_dim[k])} faces)")
print("normalizer:", pi.normalizer, "= 24 paths x (E[len]+1), E[len] =",
      expected_path_length(cover, comp))

# detailed balance holds exactly on the quotient
ok = all(
    pw.through(a) * P.entries[a, b] == pw.through(b) * P.entries[b, a]
    for a in range(15)
    for b in range(15)
)
print("detailed balance (exact):", ok)

pi_cover = stationary(cover, comp, "cover")
trace, empirical = simulate(cover, start=0, steps=10**6, seed=7)
tv = total_variation(empirical, pi_cover.weights)
print(f"10^6 seeded steps: total variation to stationary = {float(tv):.4f}")
trace2, _ = simulate(cover, start=0, steps=10**6, seed=7)
print("same seed, identical trace:", trace.digest == trace2.digest)
