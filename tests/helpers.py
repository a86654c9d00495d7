"""Shared oracles and generators for the test suite.

The sweep functions re-derive zero-line answers from dense evaluation of the
form on the unit circle, independently of the closed-form root extraction
under test.  The generators build systems of known class by construction and
then hide the structure behind a random change of basis.
"""

import math

import numpy as np

from bilin2 import BilinearSystem, Direction, Mat2, SystemKind, Vec2
from bilin2.mat2 import canonical_direction, cross


def mat(rows) -> Mat2:
    return Mat2.from_rows(rows)


def vec(x, y) -> Vec2:
    return Vec2(x, y)


def rand_mat(rng, lo=-2.0, hi=2.0) -> Mat2:
    e = rng.uniform(lo, hi, 4)
    return Mat2(e[0], e[1], e[2], e[3])


def unit_vec(rng) -> Vec2:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Vec2(math.cos(theta), math.sin(theta))


def rotation(theta: float) -> Mat2:
    c, s = math.cos(theta), math.sin(theta)
    return Mat2(c, -s, s, c)


def random_similarity(rng, max_cond=20.0) -> Mat2:
    """Random change of basis with condition number at most max_cond."""
    s = math.sqrt(rng.uniform(1.0, max_cond))
    stretch = Mat2(s, 0.0, 0.0, 1.0 / s)
    return rotation(rng.uniform(0.0, 2.0 * math.pi)) @ stretch @ rotation(
        rng.uniform(0.0, 2.0 * math.pi))


def conjugate_system(sys: BilinearSystem, p: Mat2) -> BilinearSystem:
    p_inv = p.inverse()
    drift = p @ sys.drift @ p_inv if sys.drift is not None else None
    return BilinearSystem(sys.kind, drift, tuple(p @ b @ p_inv for b in sys.inputs),
                          sys.tol)


def line_angle(d1: Direction, d2: Direction) -> float:
    """Angle in [0, pi/2] between the lines carried by two directions."""
    return math.asin(min(1.0, abs(cross(d1.vector, d2.vector))))


def line_gap(d1: Direction, d2: Direction) -> float:
    """Distance between canonical representatives, insensitive to a sign flip."""
    a = (d1.vector - d2.vector).norm()
    b = (d1.vector + d2.vector).norm()
    return min(a, b)


def assert_lines_match(lines, expected_vecs, tol_angle=1e-9):
    """Multiset equality of line unions, compared by angle between lines."""
    assert len(lines) == len(expected_vecs), (
        f"expected {len(expected_vecs)} lines, got {len(lines)}")
    remaining = [canonical_direction(Vec2(*v)) if not isinstance(v, Direction) else v
                 for v in expected_vecs]
    for d in lines:
        gaps = [line_angle(d, e) for e in remaining]
        best = min(range(len(gaps)), key=gaps.__getitem__)
        assert gaps[best] <= tol_angle, (
            f"line ({d.x}, {d.y}) matches no expected line within {tol_angle}")
        remaining.pop(best)


def sweep_values(q, n=3600):
    theta = np.arange(n) * (math.pi / n)
    c, s = np.cos(theta), np.sin(theta)
    return theta, q.a * c * c + q.b * c * s + q.c * s * s


def _bisect_zero(q, lo, hi, iters=80):
    def f(t):
        return q.evaluate(Vec2(math.cos(t), math.sin(t)))

    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_zero_angles(q, n=3600):
    """Zero angles of the form in [0, pi), refined by bisection."""
    theta, vals = sweep_values(q, n)
    step = math.pi / n
    zeros = []
    for j in range(n):
        v1 = vals[j]
        v2 = vals[(j + 1) % n]  # the form has period pi, so the wrap is exact
        if v1 == 0.0:
            zeros.append(theta[j])
        elif v1 * v2 < 0.0:
            zeros.append(_bisect_zero(q, theta[j], theta[j] + step) % math.pi)
    return zeros


def _refine_min(q, lo, hi, iters=200):
    def g(t):
        return abs(q.evaluate(Vec2(math.cos(t), math.sin(t))))

    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    return (0.5 * (lo + hi)) % math.pi


def sweep_classify(q, n=3600):
    """(kind string, zero angles) from dense evaluation only."""
    theta, vals = sweep_values(q, n)
    peak = float(np.max(np.abs(vals)))
    if peak <= 1e-12 * (1.0 + abs(q.a) + abs(q.b) + abs(q.c)):
        return "all-of-plane", []
    zeros = sweep_zero_angles(q, n)
    if len(zeros) >= 2:
        return "two-lines", zeros
    if len(zeros) == 1:
        return "one-line", zeros
    # A tangential zero dips toward 0 without a sign change; refine the dip.
    j = int(np.argmin(np.abs(vals)))
    step = math.pi / n
    dip = float(np.min(np.abs(vals))) / peak
    if dip <= 1e-6:
        return "one-line", [_refine_min(q, theta[j] - step, theta[j] + step)]
    return "point-only", []


def direction_angle(d) -> float:
    return math.atan2(d.y, d.x) % math.pi


def angles_match(reported, swept, tol=1e-6):
    if len(reported) != len(swept):
        return False
    rep = sorted(reported)
    sw = sorted(swept)
    return all(min(abs(r - s), math.pi - abs(r - s)) <= tol
               for r, s in zip(rep, sw))


# --- constructed systems of known class, pre-conjugation ---------------------


def generic_drift_system(rng, m=2) -> BilinearSystem:
    while True:
        mats = [rand_mat(rng) for _ in range(m + 1)]
        try:
            return BilinearSystem(SystemKind.WITH_DRIFT, mats[0], tuple(mats[1:]))
        except ValueError:
            continue


def generic_driftless_system(rng, m=2) -> BilinearSystem:
    while True:
        mats = [rand_mat(rng) for _ in range(m)]
        try:
            return BilinearSystem(SystemKind.DRIFTLESS, None, tuple(mats))
        except ValueError:
            continue


def triangular_drift_system(rng, bottom_right=(0.0, 0.0)) -> BilinearSystem:
    """Drift system sharing the first axis; inputs' (2,2) entries as given."""
    r1, r2 = bottom_right
    while True:
        a = Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, rng.uniform(-2, 2))
        b1 = Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, r1)
        b2 = Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, r2)
        try:
            return BilinearSystem(SystemKind.WITH_DRIFT, a, (b1, b2))
        except ValueError:
            continue


def triangular_driftless_system(rng, bottom_right) -> BilinearSystem:
    while True:
        inputs = tuple(Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, r)
                       for r in bottom_right)
        try:
            return BilinearSystem(SystemKind.DRIFTLESS, None, inputs)
        except ValueError:
            continue


def antidiagonal_system(rng) -> BilinearSystem:
    while True:
        b1 = Mat2(0.0, rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        b2 = Mat2(0.0, rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        if abs(b1.a12 * b2.a21 - b1.a21 * b2.a12) < 0.1:
            continue
        try:
            return BilinearSystem(SystemKind.DRIFTLESS, None, (b1, b2))
        except ValueError:
            continue


def zero_bottom_drift_system(rng, canonical=False) -> BilinearSystem:
    """Drift system whose inputs share the left null direction e2."""
    while True:
        a21 = rng.uniform(0.1, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        a22 = rng.uniform(-2.0, 2.0)
        if canonical:
            a = Mat2(0.0, 0.0, a21, a22)
            b1 = Mat2(1.0, 0.0, 0.0, 0.0)
            b2 = Mat2(0.0, 1.0, 0.0, 0.0)
        else:
            a = Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), a21, a22)
            b1 = Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, 0.0)
            b2 = Mat2(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, 0.0)
        try:
            return BilinearSystem(SystemKind.WITH_DRIFT, a, (b1, b2))
        except ValueError:
            continue
