"""Coherent components, the -1 eigenvalue, and vertex partitions.

A down-connected family of k-faces is coherent when some orientation
makes all shared-subface incidence signs agree; this generalizes graph
bipartiteness, is equivalent to the signed walk operator attaining -1,
and is implied by (but does not imply) a (k+1)-partition of the
vertices.  The ring of eight triangles is the separating example.
"""

from hodgewalk import (
    coherent_spectrum_check,
    components,
    cover_from_complex,
    detect_coherent,
    find_partition,
    parse_complex,
)

print("== even cycle (6 edges): bipartite graph")
cx6 = parse_complex("\n".join(f"x{i} x{(i + 1) % 6}" for i in range(6)))
c6 = cover_from_complex(cx6)
edges = components(c6, 1, "down")[0]
witness = detect_coherent(c6, edges, "down")
print("coherent-down in dim 1:", witness is not None)
print("2-partition:", find_partition(cx6, edges))
for name, (ok, detail) in coherent_spectrum_check(c6, edges, "down").items():
    print(f"  {name}: {'ok' if ok else 'FAIL'} ({detail})")

print("\n== odd cycle (5 edges): not bipartite")
cx5 = parse_complex("\n".join(f"x{i} x{(i + 1) % 5}" for i in range(5)))
c5 = cover_from_complex(cx5)
edges5 = components(c5, 1, "down")[0]
print("coherent:", detect_coherent(c5, edges5, "down") is not None)
print("partition:", find_partition(cx5, edges5))
print("signed spectrum stays above -1:", coherent_spectrum_check(c5, edges5, "down"))

print("\n== ring of eight triangles: coherent without a 3-partition")
ring_text = """
x0 x4 x5
x0 x3 x4
x3 x4 x7
x2 x3 x7
x2 x6 x7
x1 x2 x6
x1 x5 x6
x0 x1 x5
"""
ring_cx = parse_complex(ring_text)
ring = cover_from_complex(ring_cx)
tris = components(ring, 2, "down")[0]
witness = detect_coherent(ring, tris, "down")
print("all 8 triangles form one coherent-down-component:", witness is not None)
oriented = [("-" if witness[q] else "+") + ring.labels[q] for q in sorted(witness)]
print("witness orientation:", oriented)
print("3-partition of the vertices:", find_partition(ring_cx, tris))
