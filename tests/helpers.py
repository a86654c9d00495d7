"""Shared oracles and generators for the test suite.

The sweep functions re-derive zero-line answers from dense evaluation of the
form on the unit circle, independently of the closed-form root extraction
under test.  The generators build systems of known class by construction and
then hide the structure behind a random change of basis.
"""

import math

import numpy as np

from bilin2 import (
    DEFAULT_TOL,
    AllIsotropic,
    BilinearSystem,
    Direction,
    LineSetKind,
    LineUnion,
    Mat2,
    NoCombinationFound,
    SystemKind,
    TolerancePolicy,
    Vec2,
    ZeroVector,
)
from bilin2.mat2 import canonical_direction, cross
from bilin2.quadform import QuadraticForm


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


# --- reference kernels on value types -----------------------------------------
#
# The mat2, quadform and structure kernels written with Vec2/Mat2 temporaries,
# so every intermediate passes the constructors' finiteness check where it is
# built.  Only the names carry a ref_ prefix; the float operations and their
# order are those of the library, which computes on plain floats, so the
# differential tests in test_reference.py demand equal results and the same
# exception types.


def ref_canonical_direction(v: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Direction:
    n = v.norm()
    if tol.is_zero(n):
        raise ZeroVector(f"cannot orient zero vector ({v.x}, {v.y})")
    ux, uy = v.x / n, v.y / n
    if ux > tol.abs_eps:
        s = 1.0
    elif ux < -tol.abs_eps:
        s = -1.0
    else:
        s = 1.0 if uy > 0.0 else -1.0
    # + 0.0 turns a signed zero into plain 0.0 so representatives print cleanly
    return Direction(Vec2(s * ux + 0.0, s * uy + 0.0))


def _ref_eigvec_for(m: Mat2, lam: float) -> Vec2:
    # Kernel vector of (m - lam*I): orthogonal to either row; both candidates
    # are parallel in exact arithmetic, so take the numerically larger one.
    va = Vec2(m.a12, lam - m.a11)
    vb = Vec2(lam - m.a22, m.a21)
    return vb if vb.norm() > va.norm() else va


def ref_real_eigen_directions(m: Mat2, tol: TolerancePolicy = DEFAULT_TOL):
    scale = m.frob()
    if (tol.is_zero(m.a12, scale) and tol.is_zero(m.a21, scale)
            and tol.is_zero(m.a11 - m.a22, scale)):
        return None
    tr = m.trace()
    disc = tr * tr - 4.0 * m.det()
    disc_scale = scale * scale
    if tol.is_zero(disc, disc_scale):
        return (ref_canonical_direction(_ref_eigvec_for(m, 0.5 * tr), tol),)
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    hi = ref_canonical_direction(_ref_eigvec_for(m, 0.5 * (tr + sq)), tol)
    lo = ref_canonical_direction(_ref_eigvec_for(m, 0.5 * (tr - sq)), tol)
    return (hi, lo)


def ref_is_eigenvector(m: Mat2, d: Direction, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    image = m @ d.vector
    lam = d.vector.dot(image)
    residual = (image - lam * d.vector).norm()
    return tol.is_zero(residual, m.frob())


def ref_linearly_independent(ms, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    ms = list(ms)
    if not 1 <= len(ms) <= 4:
        raise ValueError(f"expected between 1 and 4 matrices, got {len(ms)}")
    rows = [[m.a11, m.a12, m.a21, m.a22] for m in ms]
    scale = max(math.sqrt(sum(e * e for e in row)) for row in rows)
    live = list(range(len(rows)))
    cols = [0, 1, 2, 3]
    rank = 0
    while live and cols:
        pi, pj = max(((i, j) for i in live for j in cols),
                     key=lambda ij: abs(rows[ij[0]][ij[1]]))
        pivot = rows[pi][pj]
        if tol.is_zero(pivot, scale):
            break
        rank += 1
        live.remove(pi)
        cols.remove(pj)
        for i in live:
            factor = rows[i][pj] / pivot
            for j in cols:
                rows[i][j] -= factor * rows[pi][j]
            rows[i][pj] = 0.0
    return rank == len(ms)


def ref_common_real_eigenvector(ms, tol: TolerancePolicy = DEFAULT_TOL):
    ms = tuple(ms)
    for m in ms:
        directions = ref_real_eigen_directions(m, tol)
        if directions is None:
            continue
        for d in directions:
            if all(ref_is_eigenvector(x, d, tol) for x in ms):
                return d
        return None
    raise AllIsotropic("every matrix is scalar; any direction is invariant")


def ref_combine_inputs(a: Mat2, b1: Mat2, b2: Mat2, b3: Mat2,
                       tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, float]:
    for ca, cb in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        combined = ca * b2 + cb * b3
        try:
            if ref_common_real_eigenvector([a, b1, combined], tol) is None:
                return ca, cb
        except AllIsotropic:
            continue
    raise NoCombinationFound(
        "no tested combination of the last two inputs removed the shared eigenvector")


def ref_gram_form(b1: Mat2, b2: Mat2) -> QuadraticForm:
    a1, b1c = b1.col1(), b1.col2()
    a2, b2c = b2.col1(), b2.col2()
    return QuadraticForm(cross(a1, a2),
                         cross(a1, b2c) + cross(b1c, a2),
                         cross(b1c, b2c))


def _ref_angle_key(d: Direction) -> float:
    return math.atan2(d.y, d.x)


def ref_zero_lines(q: QuadraticForm, tol: TolerancePolicy = DEFAULT_TOL,
                   scale: float = 0.0) -> LineUnion:
    a, b, c = q.a, q.b, q.c
    if tol.is_zero(a, scale) and tol.is_zero(b, scale) and tol.is_zero(c, scale):
        return LineUnion(LineSetKind.ALL_OF_PLANE)
    if a == 0.0 and c == 0.0:
        dirs = (ref_canonical_direction(Vec2(1.0, 0.0), tol),
                ref_canonical_direction(Vec2(0.0, 1.0), tol))
        return LineUnion(LineSetKind.TWO_LINES, tuple(sorted(dirs, key=_ref_angle_key)))
    disc = q.discriminant()
    disc_scale = q.coeff_scale_sq()
    if tol.is_zero(disc, disc_scale):
        if abs(a) >= abs(c):
            d = ref_canonical_direction(Vec2(-b / (2.0 * a), 1.0), tol)
        else:
            d = ref_canonical_direction(Vec2(1.0, -b / (2.0 * c)), tol)
        return LineUnion(LineSetKind.ONE_LINE, (d,))
    if disc < 0.0:
        return LineUnion(LineSetKind.POINT_ONLY)
    sq = math.sqrt(disc)
    s = -0.5 * (b + math.copysign(sq, b))
    if abs(a) >= abs(c):
        t = s / a
        dirs = (ref_canonical_direction(Vec2(t, 1.0) if math.isfinite(t) else Vec2(1.0, 0.0),
                                        tol),
                ref_canonical_direction(Vec2(c / s, 1.0), tol))
    else:
        t = s / c
        dirs = (ref_canonical_direction(Vec2(1.0, t) if math.isfinite(t) else Vec2(0.0, 1.0),
                                        tol),
                ref_canonical_direction(Vec2(1.0, a / s), tol))
    ordered = tuple(sorted(dirs, key=_ref_angle_key))
    return LineUnion(LineSetKind.TWO_LINES, ordered)


def ref_pair_lines(b1: Mat2, b2: Mat2, tol: TolerancePolicy = DEFAULT_TOL) -> LineUnion:
    return ref_zero_lines(ref_gram_form(b1, b2), tol, scale=b1.frob() * b2.frob())
