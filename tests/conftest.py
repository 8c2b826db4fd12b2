import numpy as np
import pytest
from hypothesis import settings

from cubenoise import corpus
from cubenoise.codes import LinearCode, reed_muller
from cubenoise.matroids import BinaryMatroid, Graph

# Every run draws the same hypothesis examples, and no saved failure is
# replayed, so tier-1 passes or fails the same way each time.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

Q_GRID = (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)
EPS_GRID = tuple(round(0.05 * i, 2) for i in range(11))  # 0, 0.05, ..., 0.5

K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
C5 = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
PETERSEN = Graph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, 5 + i) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)


def random_multigraph_with_loops(seed: int, vertices: int = 5, edges: int = 10) -> Graph:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(edges):
        u = int(rng.integers(0, vertices))
        # bias towards some parallels and loops
        v = u if rng.random() < 0.2 else int(rng.integers(0, vertices))
        out.append((u, v))
    return Graph(vertices, tuple(out))


@pytest.fixture
def rep2_file(tmp_path):
    path = tmp_path / "rep2.code"
    path.write_text("1 2\n11\n")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


@pytest.fixture(scope="session")
def function_corpus():
    """200 seeded random nonnegative functions for each n in 1..4."""
    out = {}
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(1000 + n)
        out[n] = corpus.standard_corpus(n, 200, rng)
    return out


@pytest.fixture(scope="session")
def code_corpus():
    """Repetition codes up to length 8, 50 random codes up to length 12, and
    the three small Reed-Muller codes."""
    codes = [("rep%d" % n, LinearCode(n, ((1 << n) - 1,))) for n in range(2, 9)]
    rng = np.random.default_rng(2024)
    for i in range(50):
        n = int(rng.integers(4, 13))
        codes.append((f"rand{i}", corpus.random_code(n, rng)))
    codes.append(("rm13", reed_muller(1, 3)))
    codes.append(("rm14", reed_muller(1, 4)))
    codes.append(("rm24", reed_muller(2, 4)))
    return codes


@pytest.fixture(scope="session")
def matroid_corpus():
    """50 random binary matroids with n <= 12 plus small structured ones,
    all within the exhaustive-tail cap n <= 14."""
    out = [
        ("coloop", BinaryMatroid(1, (1,))),
        ("loop", BinaryMatroid(1, (0,))),
        ("twin", BinaryMatroid(2, (0b11,))),
        ("free4", BinaryMatroid(4, (1, 2, 4, 8))),
        ("k3", K3.matroid),
        ("k4", K4.matroid),
    ]
    rng = np.random.default_rng(777)
    for i in range(50):
        n = int(rng.integers(3, 13))
        rows = tuple(int(r) for r in rng.integers(0, 1 << n, int(rng.integers(1, n + 1))))
        out.append((f"rand{i}", BinaryMatroid(n, rows)))
    return out
