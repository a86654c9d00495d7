"""Golden fixtures: three worked systems exercised across the suite.

Each fixture is small enough to verify by hand and pins one verdict class:
a controllable pair under a rotation drift, a drift family sharing the line
of (1, -1), and a trace-free driftless pair that anti-diagonalizes.
"""

import pytest
from hypothesis import settings

from bilin2 import BilinearSystem, Mat2, SystemKind

# A deterministic deep run of every property: pytest --hypothesis-profile=deep.
settings.register_profile("deep", max_examples=1000, derandomize=True)


def _m(rows) -> Mat2:
    (a, b), (c, d) = rows
    return Mat2(a, b, c, d)


@pytest.fixture
def rotation_drift_system() -> BilinearSystem:
    """Controllable: the drift has no real eigenvector, so nothing is shared."""
    return BilinearSystem(
        SystemKind.WITH_DRIFT,
        _m([[0.0, -1.0], [1.0, 0.0]]),
        (_m([[1.0, -1.0], [0.0, 2.0]]), _m([[0.0, 0.0], [1.0, 0.0]])),
    )


@pytest.fixture
def shared_line_drift_system() -> BilinearSystem:
    """Nearly controllable: all three matrices fix the line of (1, -1)."""
    return BilinearSystem(
        SystemKind.WITH_DRIFT,
        _m([[5.0, 3.0], [-4.0, -2.0]]),
        (_m([[0.0, -1.0], [2.0, 3.0]]), _m([[7.0, 1.0], [-1.0, 5.0]])),
    )


@pytest.fixture
def swap_pair_system() -> BilinearSystem:
    """Nearly controllable: trace-free pair, anti-diagonal in a shared basis."""
    return BilinearSystem(
        SystemKind.DRIFTLESS,
        None,
        (_m([[-1.0, 0.0], [3.0, 1.0]]), _m([[4.0, 3.0], [-6.0, -4.0]])),
    )


@pytest.fixture
def trapped_triangular_system() -> BilinearSystem:
    """Uncontrollable: triangular family whose inputs kill the (2,2) slot."""
    return BilinearSystem(
        SystemKind.WITH_DRIFT,
        _m([[1.0, 2.0], [0.0, 3.0]]),
        (_m([[1.0, 1.0], [0.0, 0.0]]), _m([[0.0, 1.0], [0.0, 0.0]])),
    )
