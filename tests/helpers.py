"""Shared oracles and generators for the test suite.

The sweep functions re-derive zero-line answers from dense evaluation of the
form on the unit circle, independently of the closed-form root extraction
under test.  The generators build systems of known class by construction and
then hide the structure behind a random change of basis.
"""

import math
from sys import float_info

import numpy as np

from bilin2 import (
    DEFAULT_TOL,
    AllIsotropic,
    ArityMismatch,
    BilinearSystem,
    ControlPlan,
    Direction,
    EscapeFailed,
    InExcludedSet,
    LineSetKind,
    LineUnion,
    Mat2,
    NoCombinationFound,
    NotCanonicalClass,
    NotControllablePair,
    SingularMatrix,
    SingularSubstitution,
    SystemKind,
    TolerancePolicy,
    Vec2,
    VerdictClass,
    ZeroState,
    ZeroVector,
    analyze,
    apply_reduction,
    form_scale,
    gram_form,
    zero_bottom_row_pair,
    zero_lines,
)
from bilin2.classify import expand_controls
from bilin2.mat2 import canonical_direction, cross
from bilin2.quadform import QuadraticForm


def mat(rows) -> Mat2:
    (a, b), (c, d) = rows
    return Mat2(a, b, c, d)


def vec(x, y) -> Vec2:
    return Vec2(x, y)


def xy(v) -> tuple[float, float]:
    """The coordinates of a Vec2 (or a Direction) as a pair."""
    return (v.x, v.y)


def lincomb(ca: float, m: Mat2, cb: float, n: Mat2) -> Mat2:
    """ca*m + cb*n, entry by entry."""
    return Mat2(m.a11 * ca + n.a11 * cb, m.a12 * ca + n.a12 * cb,
                m.a21 * ca + n.a21 * cb, m.a22 * ca + n.a22 * cb)


def frob_gap(m: Mat2, n: Mat2) -> float:
    """The Frobenius norm of m - n."""
    return math.hypot(m.a11 - n.a11, m.a12 - n.a12, m.a21 - n.a21, m.a22 - n.a22)


def inverse(m: Mat2) -> Mat2:
    """The inverse of a nonsingular m by the adjugate."""
    d = m.det()
    return Mat2(m.a22 / d, -m.a12 / d, -m.a21 / d, m.a11 / d)


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
    p_inv = inverse(p)
    drift = p @ sys.drift @ p_inv if sys.drift is not None else None
    return BilinearSystem(sys.kind, drift, tuple(p @ b @ p_inv for b in sys.inputs),
                          sys.tol)


def line_angle(d1: Direction, d2: Direction) -> float:
    """Angle in [0, pi/2] between the lines carried by two directions."""
    return math.asin(min(1.0, abs(cross(d1.vector, d2.vector))))


def line_gap(d1: Direction, d2: Direction) -> float:
    """Distance between canonical representatives, insensitive to a sign flip."""
    return min(math.hypot(d1.x - d2.x, d1.y - d2.y), math.hypot(d1.x + d2.x, d1.y + d2.y))


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


def form_value(q, x: float, y: float) -> float:
    """q(x, y) = a*x*x + b*x*y + c*y*y, for a form with coefficients a, b, c."""
    return q.a * x * x + q.b * x * y + q.c * y * y


def sweep_values(q, n=3600):
    theta = np.arange(n) * (math.pi / n)
    c, s = np.cos(theta), np.sin(theta)
    return theta, q.a * c * c + q.b * c * s + q.c * s * s


def _bisect_zero(q, lo, hi, iters=80):
    def f(t):
        return form_value(q, math.cos(t), math.sin(t))

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
        return abs(form_value(q, math.cos(t), math.sin(t)))

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
    v, image = d.vector, m @ d.vector
    lam = v.x * image.x + v.y * image.y
    residual = Vec2(image.x - v.x * lam, image.y - v.y * lam).norm()
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
        combined = Mat2(b2.a11 * ca + b3.a11 * cb, b2.a12 * ca + b3.a12 * cb,
                        b2.a21 * ca + b3.a21 * cb, b2.a22 * ca + b3.a22 * cb)
        try:
            if ref_common_real_eigenvector([a, b1, combined], tol) is None:
                return ca, cb
        except AllIsotropic:
            continue
    raise NoCombinationFound(
        "no tested combination of the last two inputs removed the shared eigenvector")


def ref_gram_form(b1: Mat2, b2: Mat2) -> QuadraticForm:
    a1, b1c = Vec2(b1.a11, b1.a21), Vec2(b1.a12, b1.a22)
    a2, b2c = Vec2(b2.a11, b2.a21), Vec2(b2.a12, b2.a22)
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
    disc = b * b - 4.0 * a * c
    disc_scale = a * a + b * b + c * c
    if tol.is_zero(disc, disc_scale):
        if abs(a) >= abs(c):
            t = -b / (2.0 * a)
            d = ref_canonical_direction(Vec2(t, 1.0) if math.isfinite(t) else Vec2(1.0, 0.0), tol)
        else:
            t = -b / (2.0 * c)
            d = ref_canonical_direction(Vec2(1.0, t) if math.isfinite(t) else Vec2(0.0, 1.0), tol)
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


# --- reference plan path on value types ----------------------------------------
#
# The steer and simulate kernels written with Vec2/Mat2 temporaries, a
# SingularMatrix raised and caught for a singular one-step system, and the
# state-independent steering data rebuilt on every call.  The library's plan
# path computes on plain floats with the same operations in the same order.


def ref_solve2(m: Mat2, y: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Vec2:
    d = m.det()
    if d == 0.0 or tol.is_zero(d, math.hypot(m.a11, m.a12) * math.hypot(m.a21, m.a22)):
        raise SingularMatrix(f"matrix {m.rows()} is singular within tolerance")
    return Vec2((y.x * m.a22 - m.a12 * y.y) / d,
                (m.a11 * y.y - y.x * m.a21) / d)


def ref_step_matrix(sys: BilinearSystem, u) -> tuple:
    u = tuple(u)
    if len(u) != sys.m:
        raise ArityMismatch(f"expected {sys.m} controls, got {len(u)}")
    if sys.drift is not None:
        a11, a12 = sys.drift.a11, sys.drift.a12
        a21, a22 = sys.drift.a21, sys.drift.a22
    else:
        a11 = a12 = a21 = a22 = 0.0
    for ui, b in zip(u, sys.inputs):
        a11 += ui * b.a11
        a12 += ui * b.a12
        a21 += ui * b.a21
        a22 += ui * b.a22
    return a11, a12, a21, a22


def ref_step(sys: BilinearSystem, x: Vec2, u) -> Vec2:
    a11, a12, a21, a22 = ref_step_matrix(sys, u)
    return Vec2(a11 * x.x + a12 * x.y, a21 * x.x + a22 * x.y)


def ref_run(sys: BilinearSystem, x0: Vec2, plan: ControlPlan) -> tuple:
    states = [x0]
    for u in plan.steps:
        states.append(ref_step(sys, states[-1], u))
    return tuple(states)


def ref_verify_plan(sys: BilinearSystem, xi: Vec2, eta: Vec2, plan: ControlPlan):
    """The one acceptance rule: a finite error within
    1e-8 * max(|eta|, max_k |M_k|_F |x_k|, 2^-1042), the max capped at the
    largest float."""
    x, reach = xi, 0.0
    for u in plan.steps:
        reach = max(reach, math.hypot(*ref_step_matrix(sys, u)) * x.norm())
        x = ref_step(sys, x, u)
    error = Vec2(x.x - eta.x, x.y - eta.y).norm()
    scale = min(max(reach, eta.norm(), 2.0 ** -1042), float_info.max)
    return math.isfinite(error) and error <= 1e-8 * scale, error


def ref_one_step(sys: BilinearSystem, xi: Vec2, eta: Vec2):
    """The one step under the clearance rule: None where d = det[B1 xi, B2 xi]
    is zero or d / (|B1|_F |B2|_F |xi|^2) is zero under the tolerance; else the
    solution by Cramer's rule.  Where d is not a normal float, xi and eta are
    scaled first by the power of two f with f^2 |B1|_F |B2|_F |xi|_inf^2 in
    [1, 4) (f within the normal range), which leaves the solution unchanged."""
    b1, b2 = sys.inputs
    scale = b1.frob() * b2.frob()
    for rescaled in (False, True):
        c1 = b1 @ xi
        c2 = b2 @ xi
        if sys.drift is not None:
            ax = sys.drift @ xi
            rhs = Vec2(eta.x - ax.x, eta.y - ax.y)
        else:
            rhs = eta
        m = Mat2(c1.x, c2.x, c1.y, c2.y)
        d = m.det()
        if rescaled or scale == 0.0 or (math.isfinite(d) and abs(d) >= float_info.min):
            break
        _, e = math.frexp(math.sqrt(scale) * max(abs(xi.x), abs(xi.y)))
        f = 2.0 ** min(max(1 - e, float_info.min_exp - 1), float_info.max_exp - 1)
        xi, eta = Vec2(xi.x * f, xi.y * f), Vec2(eta.x * f, eta.y * f)
    if d == 0.0 or scale == 0.0 or sys.tol.is_zero(d / scale / xi.norm() / xi.norm()):
        return None
    u = Vec2((rhs.x * m.a22 - m.a12 * rhs.y) / d, (m.a11 * rhs.y - rhs.x * m.a21) / d)
    return (u.x, u.y)


# The escape step of earlier versions: the best of a fixed list of candidate
# controls, each kept only when the form at its landing cleared a margin of
# ESCAPE_MARGIN_FACTOR times the zero threshold.  The library now escapes in
# closed form; these copies are the comparator its escapes must not fall
# behind, not its specification.
ESCAPE_CANDIDATES_DRIFT = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0))
ESCAPE_CANDIDATES_DRIFTLESS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (1.0, -1.0))
ESCAPE_MARGIN_FACTOR = 1e3


def _ref_steering(sys: BilinearSystem):
    """(form, its scale, its zero lines, candidate (u, step matrix) pairs),
    built in the order the library builds them, once per system."""
    b1, b2 = sys.inputs
    q = gram_form(b1, b2)
    fscale = form_scale(b1, b2)
    lines = zero_lines(q, sys.tol, scale=fscale)
    candidates = (ESCAPE_CANDIDATES_DRIFT if sys.kind is SystemKind.WITH_DRIFT
                  else ESCAPE_CANDIDATES_DRIFTLESS)
    steps = []
    a = sys.drift
    for u in candidates:
        m = Mat2(b1.a11 * u[0] + b2.a11 * u[1], b1.a12 * u[0] + b2.a12 * u[1],
                 b1.a21 * u[0] + b2.a21 * u[1], b1.a22 * u[0] + b2.a22 * u[1])
        if a is not None:
            m = Mat2(a.a11 + m.a11, a.a12 + m.a12, a.a21 + m.a21, a.a22 + m.a22)
        steps.append((u, m))
    return q, fscale, lines, steps


def _ref_landings(sys: BilinearSystem, xi: Vec2):
    for u, m in _ref_steering(sys)[3]:
        x = m @ xi
        if x.x * x.x + x.y * x.y != 0.0:
            yield u, x


def ref_escape_step(sys: BilinearSystem, xi: Vec2):
    q, fscale, _, _ = _ref_steering(sys)
    best, best_score = None, 0.0
    for u, x in _ref_landings(sys, xi):
        nrm2 = x.x * x.x + x.y * x.y
        value = abs(q.a * x.x * x.x + q.b * x.x * x.y + q.c * x.y * x.y)
        margin = ESCAPE_MARGIN_FACTOR * sys.tol.threshold(fscale * nrm2)
        if value >= margin and value / nrm2 > best_score:
            best, best_score = (u, x), value / nrm2
    if best is None:
        raise EscapeFailed("no escape candidate cleared the singular-set margin")
    return best


def ref_escape_moves(sys: BilinearSystem, xi: Vec2) -> list:
    try:
        return [ref_escape_step(sys, xi)]
    except EscapeFailed:
        move = next(_ref_landings(sys, xi), None)
        if move is None:
            raise
        return [move, ref_escape_step(sys, move[1])]


def _ref_canonical(sys: BilinearSystem):
    if sys.drift is None:
        raise NotCanonicalClass("the two-step construction needs a drift term")
    b1, b2 = sys.inputs
    p = zero_bottom_row_pair(b1, b2, sys.tol)
    if p is None:
        raise NotCanonicalClass("inputs do not share a left null direction")
    p_inv = Mat2(p.a11, p.a21, p.a12, p.a22)
    a_bar = p @ sys.drift @ p_inv
    f1 = p @ b1 @ p_inv
    f2 = p @ b2 @ p_inv
    m_sub = Mat2(f1.a11, f2.a11, f1.a12, f2.a12)
    offset = Vec2(a_bar.a11, a_bar.a12)
    a_scale = a_bar.frob()
    if sys.tol.is_zero(a_bar.a21, a_scale):
        raise NotCanonicalClass("drift has no coupling into the decoupled coordinate")
    return p, m_sub, offset, a_bar.a21, a_bar.a22, a_scale


def ref_canonical_steps(sys: BilinearSystem, xi: Vec2, eta: Vec2) -> list:
    tol = sys.tol
    _ref_steering(sys)
    p, m_sub, offset, a21, a22, a_scale = _ref_canonical(sys)
    x = p @ xi
    target = p @ eta
    state_scale = x.norm()
    if tol.is_zero(state_scale):
        raise ZeroState("cannot steer from the zero state")
    bar_steps = []
    if tol.is_zero(x.x, state_scale) or tol.is_zero(a21 * x.x + a22 * x.y, a_scale * state_scale):
        c = next((cc for cc in (a_scale, 2.0 * a_scale) if not tol.is_zero(
            (cc * a21 + a22 * a22) / (a_scale * abs(a21) + a22 * a22))), 2.0 * a_scale)
        bar_steps.append(Vec2(0.0, c))
        x = Vec2(c * x.y, a21 * x.x + a22 * x.y)
    s = a21 * x.x + a22 * x.y
    if tol.is_zero(x.x, x.norm()) or tol.is_zero(s, a_scale * x.norm()):
        raise EscapeFailed("pre-step failed to clear the degenerate coordinates")
    t = target.y - a22 * s
    if t != 0.0 and not tol.is_zero(t / (abs(target.y) + abs(a22 * s))):
        bar_steps.append(Vec2(t / (a21 * x.x), 0.0))
        bar_steps.append(Vec2(a21 * target.x / t, 0.0))
    else:
        bar_steps.append(Vec2(0.0, 0.0))
        bar_steps.append(Vec2(0.0, target.x / s))
    try:
        us = [ref_solve2(m_sub, Vec2(vb.x - offset.x, vb.y - offset.y), tol) for vb in bar_steps]
    except SingularMatrix as exc:
        raise SingularSubstitution("input substitution matrix is singular") from exc
    return [(u.x, u.y) for u in us]


def _ref_verified(sys: BilinearSystem, xi: Vec2, eta: Vec2, steps) -> ControlPlan:
    plan = ControlPlan(tuple(steps))
    ok, error = ref_verify_plan(sys, xi, eta, plan)
    if not ok:
        raise RuntimeError(f"synthesized plan misses the target by {error}; "
                           "this is a bug, not a property of the system")
    return ControlPlan(plan.steps, error)


def ref_plan_transfer(sys: BilinearSystem, xi: Vec2, eta: Vec2) -> ControlPlan:
    verdict = analyze(sys)
    if verdict.klass is VerdictClass.UNCONTROLLABLE:
        raise NotControllablePair("system is uncontrollable; no transfers are synthesized")
    eff = apply_reduction(sys, verdict.reduction)

    def expand(u):
        return expand_controls(verdict.reduction, sys.m, u[0], u[1])

    if verdict.klass is VerdictClass.NEARLY_CONTROLLABLE:
        u = ref_one_step(eff, xi, eta)
        if u is None:
            raise InExcludedSet("initial state in excluded set")
        return _ref_verified(sys, xi, eta, [expand(u)])
    if sys.tol.is_zero(xi.norm()) or sys.tol.is_zero(eta.norm()):
        raise ZeroState("controllable transfers connect nonzero states only")
    if _ref_steering(eff)[2].kind is LineSetKind.ALL_OF_PLANE:
        return _ref_verified(sys, xi, eta,
                             [expand(u) for u in ref_canonical_steps(eff, xi, eta)])
    u = ref_one_step(eff, xi, eta)
    if u is not None:
        return _ref_verified(sys, xi, eta, [expand(u)])
    moves = ref_escape_moves(eff, xi)
    u = ref_one_step(eff, moves[-1][1], eta)
    if u is None:
        raise EscapeFailed("escape landed back on the singular set")
    return _ref_verified(sys, xi, eta, [expand(v) for v, _ in moves] + [expand(u)])
