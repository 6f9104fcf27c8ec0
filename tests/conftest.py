from pathlib import Path

import pytest

from hodgewalk import compute_path_weights, cover_from_complex, parse_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

COMPLEX_NAMES = [
    "tetrahedron",
    "branched",
    "hollow_triangle",
    "single_edge",
    "single_vertex",
    "cycle6",
    "cycle5",
    "triangle_ring",
    "two_triangles_bridged",
]


def fixture_text(name: str) -> str:
    suffix = ".cover" if name == "nonstrong" else ".cx"
    return (FIXTURES / f"{name}{suffix}").read_text()


def load_complex(name: str):
    return parse_complex(fixture_text(name))


def load_cover(name: str):
    return cover_from_complex(load_complex(name))


def benchmark_input(name: str, seed: int = 0) -> str:
    """Text of one of the benchmark's generated inputs (``perfbench/inputs.py``)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", FIXTURES.parent / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.make_input(name, seed)[0]


@pytest.fixture(scope="session")
def complexes():
    return {name: load_complex(name) for name in COMPLEX_NAMES}


@pytest.fixture(scope="session")
def covers(complexes):
    return {name: cover_from_complex(cx) for name, cx in complexes.items()}


@pytest.fixture(scope="session")
def weights(covers):
    return {name: compute_path_weights(cov) for name, cov in covers.items()}


def random_complex(seed: int):
    """Small random complex for property tests: up to 6 vertices, dim <= 3."""
    import random

    rng = random.Random(seed)
    n_vertices = rng.randint(2, 6)
    labels = [f"v{i}" for i in range(n_vertices)]
    lines = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, min(4, n_vertices))
        lines.append(" ".join(sorted(rng.sample(labels, size))))
    return parse_complex("\n".join(lines))
