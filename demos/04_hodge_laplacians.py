"""Normalized Hodge Laplacians and their walk origin.

Weighting k-faces by LP/(k+1)! turns the coboundary into the signed walk
operator: the normalized up/down Laplacians are exactly the negated
signed conditional-walk operators, their spectra live in [0, 1], and
Betti numbers agree with the combinatorial ones (exact ranks only).
"""

from hodgewalk import (
    betti_numbers,
    check_laplacian_walk_identity,
    eigen,
    hodge,
    hodge_decomposition,
    normalization_weights,
    parse_complex,
)

for text, name in (
    ("x0 x1\nx1 x2\nx0 x2", "hollow triangle"),
    ("x0 x1 x2 x3", "solid tetrahedron"),
    ("x0 x1 x2\nx1 x2 x3\nx2 x5\nx3 x4 x5 x6", "branched complex"),
):
    cx = parse_complex(text)
    print(f"== {name}: betti = {betti_numbers(cx)}")
    for k in range(cx.dimension + 1):
        rep = hodge_decomposition(cx, k)
        up, down = hodge(cx, k, normalized=True)
        ev = eigen(up + down)
        print(
            f"  k={k}: n={rep.n_k} rank_up={rep.rank_up} rank_down={rep.rank_down}"
            f" harmonic={rep.harmonic}  spectrum in [{min(ev):.3f}, {max(ev):.3f}]"
        )
        assert check_laplacian_walk_identity(cx, k)
    print("  normalized Laplacian = -(signed conditional operator): exact")

# graph case: the dim-0 normalized up-Laplacian is half the classic
# normalized graph Laplacian
cx = parse_complex("x0 x1\nx1 x2\nx0 x2")
w = normalization_weights(cx)
print("\ntriangle graph weights W_0 (vertex degrees):", w[0])
up, _down = hodge(cx, 0, normalized=True)
ev = eigen(up)
print("spectrum of the dim-0 up-Laplacian:", [round(v, 6) for v in ev], "(half of 0, 3/2, 3/2)")
