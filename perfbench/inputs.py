"""Deterministic benchmark inputs: four fixture complexes and generated annuli.

Every input is a complex file in the maximal-face format.  The benchmark
seed picks a permutation of each input's vertex labels; seed 0 keeps the
labels as written.  Relabeling changes face order and reference
orientations but no invariant the output checker compares.
"""

from __future__ import annotations

import random
from pathlib import Path

# The fixture complexes, embedded so that the benchmark's inputs do not
# move when the repository's fixtures are edited.
FIXTURES = {
    "hollow_triangle": ["x0 x1", "x1 x2", "x0 x2"],
    "tetrahedron": ["x0 x1 x2 x3"],
    "branched": ["x0 x1 x2", "x1 x2 x3", "x2 x5", "x3 x4 x5 x6"],
    "two_triangles_bridged": ["x0 x1 x2", "x3 x4 x5", "x1 x3", "x2 x5"],
    "triangle_ring": [
        "x0 x4 x5", "x0 x3 x4", "x3 x4 x7", "x2 x3 x7",
        "x2 x6 x7", "x1 x2 x6", "x1 x5 x6", "x0 x1 x5",
    ],
}

# Face counts of the closed complexes; the generator asserts them.
FACE_COUNTS = {
    "hollow_triangle": 6,
    "tetrahedron": 15,
    "branched": 26,
    "two_triangles_bridged": 16,
    "triangle_ring": 32,
    "annulus_3x2": 24,
    "annulus_4x2": 32,
    "annulus_4x3": 56,
    "annulus_6x4": 120,
    "annulus_8x5": 208,
    "annulus_12x6": 384,
}


def annulus(w: int, h: int) -> list[str]:
    """Triangulated annulus: vertices v{i}_{j} with i taken mod w.

    For each i < w and j < h-1 there are the two triangles
    (i,j)(i+1,j)(i+1,j+1) and (i,j)(i,j+1)(i+1,j+1).
    """
    if w < 3 or h < 2:
        raise ValueError("annulus needs w >= 3 and h >= 2")
    lines = []
    for i in range(w):
        nxt = (i + 1) % w
        for j in range(h - 1):
            lines.append(f"v{i}_{j} v{nxt}_{j} v{nxt}_{j + 1}")
            lines.append(f"v{i}_{j} v{i}_{j + 1} v{nxt}_{j + 1}")
    return lines


def base_faces(name: str) -> list[str]:
    if name in FIXTURES:
        return list(FIXTURES[name])
    if name.startswith("annulus_"):
        w, h = (int(x) for x in name[len("annulus_"):].split("x"))
        return annulus(w, h)
    raise ValueError(f"unknown input {name!r}")


def closed_face_count(lines: list[str]) -> int:
    """Number of faces of the downward closure of the listed faces."""
    faces = set()
    for line in lines:
        verts = sorted(line.split())
        n = len(verts)
        for mask in range(1, 1 << n):
            faces.add(tuple(v for i, v in enumerate(verts) if mask >> i & 1))
    return len(faces)


def relabel(lines: list[str], seed: int, name: str) -> list[str]:
    """Apply the seed's permutation of vertex labels (identity at seed 0)."""
    if seed == 0:
        return list(lines)
    labels = sorted({lab for line in lines for lab in line.split()})
    shuffled = list(labels)
    random.Random(f"{seed}:{name}").shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    return [" ".join(mapping[lab] for lab in line.split()) for line in lines]


def make_input(name: str, seed: int) -> tuple[str, int]:
    """Text of one input under the seed's relabeling, and its face count."""
    lines = relabel(base_faces(name), seed, name)
    faces = closed_face_count(lines)
    if name in FACE_COUNTS and faces != FACE_COUNTS[name]:
        raise AssertionError(f"{name}: {faces} faces, expected {FACE_COUNTS[name]}")
    header = f"# {name}, benchmark seed {seed}, {faces} faces\n"
    return header + "\n".join(lines) + "\n", faces


def write_inputs(names, seed: int, directory: Path) -> dict[str, tuple[Path, int]]:
    """Write each named input to directory; returns {name: (path, faces)}."""
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name in names:
        text, faces = make_input(name, seed)
        path = directory / f"{name}.cx"
        path.write_text(text, encoding="utf-8")
        out[name] = (path, faces)
    return out
