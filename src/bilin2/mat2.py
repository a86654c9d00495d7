"""Fixed-size vector/matrix arithmetic in the plane, with an explicit zero-test policy.

Everything downstream (quadratic forms, structure detection, verdicts, steering)
routes its floating point zero decisions through :class:`TolerancePolicy`, so the
numeric policy lives in exactly one place.  All kernels are closed-form: for 2x2
problems the explicit formulas are both faster and easier to audit than a general
linear algebra call, and they keep golden-value tests exact.

``Vec2`` and ``Mat2`` are frozen slotted dataclasses: equality, hashing, repr
and immutability are generated.  Finiteness is checked in this module only,
at two doors.  The hand-written ``__init__`` coerces every entry to float and
raises ValueError on a non-finite one, so arithmetic that overflows fails
where it happens and nothing downstream re-checks its inputs; ``__reduce__``
sends copies and unpickling through it.  The bulk constructor ``_vec2s``
builds a whole cloud of vectors at once: it checks every coordinate in one
pass and raises the constructor's own error, so no path builds an unchecked
value.

The scalar kernels compute on plain floats and build no intermediate values:
on the classify path ``linearly_independent``, ``is_eigenvector``,
``real_eigen_directions``, ``canonical_direction`` and ``_similar``; on the
plan path ``_solve2`` here, the ``steer`` kernels (among them the closed-form
escape and its scale-free clearance test) and the replay kernel
``simulate._replay``, whose step matrices give ``verify_plan``'s bound its
reach when |eta| does not decide.  A singular 2x2 system is a zero test in
``_det2`` that answers None, so the plan path raises no ``SingularMatrix`` to
catch.  Every ``Vec2`` and ``Mat2`` result still goes through ``__init__`` or
``_vec2s`` (a replayed plan through ``simulate._control_plan``).  Where an
intermediate would have come out non-finite, the kernel raises ValueError as
that value's constructor would have, and it never returns a decision made on
inf or nan.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from math import isfinite
from typing import Optional


class ZeroVector(ValueError):
    """A vector that must be nonzero failed the norm zero test."""


class SingularMatrix(ValueError):
    """A matrix that must be invertible failed the determinant zero test."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Absolute/relative floor for deciding when a float counts as zero.

    ``is_zero(x, scale)`` tests ``|x| <= abs_eps + rel_eps * |scale|``; callers
    pass the natural magnitude of the quantity (row norms, Frobenius products,
    squared state norms) as ``scale``.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "abs_eps", float(self.abs_eps))
        object.__setattr__(self, "rel_eps", float(self.rel_eps))
        if not (self.abs_eps > 0.0 and math.isfinite(self.abs_eps)):
            raise ValueError("abs_eps must be positive and finite")
        if not (self.rel_eps > 0.0 and math.isfinite(self.rel_eps)):
            raise ValueError("rel_eps must be positive and finite")

    def threshold(self, scale: float = 0.0) -> float:
        return self.abs_eps + self.rel_eps * abs(scale)

    def is_zero(self, x: float, scale: float = 0.0) -> bool:
        return abs(x) <= self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True, slots=True, init=False)
class Vec2:
    x: float
    y: float

    def __init__(self, x: float, y: float):
        x = float(x)
        y = float(y)
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"non-finite vector ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    def __reduce__(self):
        return (Vec2, (self.x, self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


# The slot setters are the only writes a value type sees, made once in
# __init__ or _vec2s.  They skip the frozen __setattr__, and are faster than
# the object.__setattr__ calls a generated frozen __init__ would make.
_set_x, _set_y = Vec2.x.__set__, Vec2.y.__set__


def _vec2s(xs: list[float], ys: list[float]) -> tuple[Vec2, ...]:
    """The vectors (xs[i], ys[i]) from two equal-length lists of floats.

    Equal to ``tuple(map(Vec2, xs, ys))``, without a constructor call per
    vector: finiteness is checked once over each list, and the loops run in
    C.  When a coordinate is not finite the pairs go through ``Vec2`` in
    order, so the first bad pair raises the constructor's own ValueError.
    """
    if not (all(map(isfinite, xs)) and all(map(isfinite, ys))):
        deque(map(Vec2, xs, ys), 0)
    vs = tuple(map(object.__new__, repeat(Vec2, len(xs))))
    deque(map(_set_x, vs, xs), 0)
    deque(map(_set_y, vs, ys), 0)
    return vs


def cross(u: Vec2, v: Vec2) -> float:
    """Signed area det[u v]; zero exactly when u and v are parallel."""
    return u.x * v.y - u.y * v.x


def rot90(v: Vec2) -> Vec2:
    """Counterclockwise quarter turn; orthogonal to v with the same norm."""
    return Vec2(-v.y, v.x)


@dataclass(frozen=True, slots=True, init=False)
class Mat2:
    a11: float
    a12: float
    a21: float
    a22: float

    def __init__(self, a11: float, a12: float, a21: float, a22: float):
        a11 = float(a11)
        a12 = float(a12)
        a21 = float(a21)
        a22 = float(a22)
        if not (isfinite(a11) and isfinite(a12) and isfinite(a21) and isfinite(a22)):
            raise ValueError(f"non-finite matrix entries ({a11}, {a12}, {a21}, {a22})")
        _set_a11(self, a11)
        _set_a12(self, a12)
        _set_a21(self, a21)
        _set_a22(self, a22)

    def __reduce__(self):
        return (Mat2, (self.a11, self.a12, self.a21, self.a22))

    @staticmethod
    def from_rows(rows) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(a, b, c, d)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    def rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a11, self.a12), (self.a21, self.a22))

    def col1(self) -> Vec2:
        return Vec2(self.a11, self.a21)

    def col2(self) -> Vec2:
        return Vec2(self.a12, self.a22)

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> float:
        return self.a11 + self.a22

    def frob(self) -> float:
        return math.sqrt(self.a11**2 + self.a12**2 + self.a21**2 + self.a22**2)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __mul__(self, k: float) -> "Mat2":
        return Mat2(self.a11 * k, self.a12 * k, self.a21 * k, self.a22 * k)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Vec2):
            return Vec2(self.a11 * other.x + self.a12 * other.y,
                        self.a21 * other.x + self.a22 * other.y)
        if isinstance(other, Mat2):
            return Mat2(self.a11 * other.a11 + self.a12 * other.a21,
                        self.a11 * other.a12 + self.a12 * other.a22,
                        self.a21 * other.a11 + self.a22 * other.a21,
                        self.a21 * other.a12 + self.a22 * other.a22)
        return NotImplemented

    def inverse(self, tol: TolerancePolicy = DEFAULT_TOL) -> "Mat2":
        d = _det2(self.a11, self.a12, self.a21, self.a22, tol)
        if d is None:
            raise SingularMatrix(f"matrix {self.rows()} is singular within tolerance")
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)


_set_a11, _set_a12, _set_a21, _set_a22 = (
    Mat2.a11.__set__, Mat2.a12.__set__, Mat2.a21.__set__, Mat2.a22.__set__)


def _similar(p: Mat2, m: Mat2, p_inv: Mat2) -> Mat2:
    """p @ m @ p_inv, by the same float operations, building only the result.

    A non-finite entry of p @ m leaves a non-finite entry in its row of the
    result, so the result's constructor raises wherever p @ m's would.
    """
    t11 = p.a11 * m.a11 + p.a12 * m.a21
    t12 = p.a11 * m.a12 + p.a12 * m.a22
    t21 = p.a21 * m.a11 + p.a22 * m.a21
    t22 = p.a21 * m.a12 + p.a22 * m.a22
    return Mat2(t11 * p_inv.a11 + t12 * p_inv.a21, t11 * p_inv.a12 + t12 * p_inv.a22,
                t21 * p_inv.a11 + t22 * p_inv.a21, t21 * p_inv.a12 + t22 * p_inv.a22)


def _det2(a11: float, a12: float, a21: float, a22: float,
          tol: TolerancePolicy) -> Optional[float]:
    """det [[a11, a12], [a21, a22]], or None when it is zero or fails the zero test.

    The test is scaled by the product of the row norms, so a uniformly scaled
    matrix makes the same singular/nonsingular decision.  That product is nan
    for an infinite row norm times a zero one, hence the exact check first.
    """
    d = a11 * a22 - a12 * a21
    if d == 0.0 or tol.is_zero(d, math.hypot(a11, a12) * math.hypot(a21, a22)):
        return None
    return d


def _solve2(a11: float, a12: float, a21: float, a22: float, y1: float, y2: float,
            tol: TolerancePolicy) -> Optional[tuple[float, float]]:
    """:func:`solve2` on floats: the solution as a pair, or None where solve2
    raises SingularMatrix; ValueError where its result would be non-finite."""
    d = _det2(a11, a12, a21, a22, tol)
    if d is None:
        return None
    x1 = (y1 * a22 - a12 * y2) / d
    x2 = (a11 * y2 - y1 * a21) / d
    if not (isfinite(x1) and isfinite(x2)):
        raise ValueError(f"non-finite vector ({x1}, {x2})")
    return x1, x2


def solve2(m: Mat2, y: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Vec2:
    """Solve m @ x = y by Cramer's rule; SingularMatrix when det(m) tests zero."""
    x = _solve2(m.a11, m.a12, m.a21, m.a22, y.x, y.y, tol)
    if x is None:
        raise SingularMatrix(f"matrix {m.rows()} is singular within tolerance")
    return Vec2(*x)


@dataclass(frozen=True)
class Direction:
    """A line through the origin, held as its canonical unit representative.

    Construct through :func:`canonical_direction`; two parallel vectors map to
    the same representative up to floating rounding.
    """

    vector: Vec2

    def __post_init__(self):
        n = self.vector.norm()
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"direction vector must be unit length, got norm {n}")

    @property
    def x(self) -> float:
        return self.vector.x

    @property
    def y(self) -> float:
        return self.vector.y


def canonical_direction(v: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Direction:
    """Normalize v to the canonical representative of its line.

    The representative has unit norm and a positive first component; when the
    first component sits inside the zero band the sign is fixed by making the
    second component positive.  Raises ZeroVector for vectors with norm inside
    the absolute zero band.
    """
    return _direction(v.x, v.y, tol)


def _direction(x: float, y: float, tol: TolerancePolicy) -> Direction:
    """:func:`canonical_direction` of the vector (x, y), given as floats."""
    n = math.hypot(x, y)
    if tol.is_zero(n):
        raise ZeroVector(f"cannot orient zero vector ({x}, {y})")
    ux, uy = x / n, y / n
    if ux > tol.abs_eps:
        s = 1.0
    elif ux < -tol.abs_eps:
        s = -1.0
    else:
        s = 1.0 if uy > 0.0 else -1.0
    # + 0.0 turns a signed zero into plain 0.0 so representatives print cleanly
    return Direction(Vec2(s * ux + 0.0, s * uy + 0.0))


def _eigvec_for(m: Mat2, lam: float, tol: TolerancePolicy) -> Direction:
    # Kernel vector of (m - lam*I): orthogonal to either row; both candidates
    # are parallel in exact arithmetic, so take the numerically larger one.
    ax, ay = m.a12, lam - m.a11
    bx, by = lam - m.a22, m.a21
    if not (isfinite(ay) and isfinite(bx)):
        raise ValueError(f"non-finite eigenvector candidates ({ax}, {ay}), ({bx}, {by})")
    if math.hypot(bx, by) > math.hypot(ax, ay):
        return _direction(bx, by, tol)
    return _direction(ax, ay, tol)


def real_eigen_directions(m: Mat2,
                          tol: TolerancePolicy = DEFAULT_TOL) -> Optional[tuple[Direction, ...]]:
    """Real eigen-directions of m, or None when m is isotropic.

    Isotropic (scalar multiple of the identity, every direction invariant) is
    detected first; then the characteristic discriminant decides: < 0 within
    tolerance gives no real directions, ~0 one repeated direction, > 0 two.
    With two, the direction of the larger eigenvalue (trace + sqrt(disc))/2
    comes first.
    """
    scale = m.frob()
    if (tol.is_zero(m.a12, scale) and tol.is_zero(m.a21, scale)
            and tol.is_zero(m.a11 - m.a22, scale)):
        return None
    tr = m.trace()
    disc = tr * tr - 4.0 * m.det()
    disc_scale = scale * scale
    if tol.is_zero(disc, disc_scale):
        return (_eigvec_for(m, 0.5 * tr, tol),)
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    hi = _eigvec_for(m, 0.5 * (tr + sq), tol)
    lo = _eigvec_for(m, 0.5 * (tr - sq), tol)
    return (hi, lo)


def is_eigenvector(m: Mat2, d: Direction, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Residual test: does m map the line of d into itself within tolerance?"""
    x, y = d.vector.x, d.vector.y
    ix = m.a11 * x + m.a12 * y
    iy = m.a21 * x + m.a22 * y
    lam = x * ix + y * iy
    rx = ix - x * lam
    ry = iy - y * lam
    # A non-finite image or eigenvalue always leaves a non-finite residual
    # component, so this one test stands for a check on every intermediate.
    if not (isfinite(rx) and isfinite(ry)):
        raise ValueError(f"non-finite eigenvector residual ({rx}, {ry})")
    return tol.is_zero(math.hypot(rx, ry), m.frob())


def linearly_independent(ms, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Linear independence of up to four matrices, viewed as vectors in R^4.

    Gaussian elimination with full pivoting; every pivot test is scaled by the
    largest original row norm, which keeps the decision invariant under
    permutations of the input list.  Pivot ties go to the first entry in row
    then column order.
    """
    ms = list(ms)
    if not 1 <= len(ms) <= 4:
        raise ValueError(f"expected between 1 and 4 matrices, got {len(ms)}")
    rows = [[m.a11, m.a12, m.a21, m.a22] for m in ms]
    floor = tol.threshold(max(math.sqrt(sum(e * e for e in row)) for row in rows))
    live = list(range(len(rows)))
    cols = [0, 1, 2, 3]
    rank = 0
    while live and cols:
        pi = live[0]
        pj = cols[0]
        best = abs(rows[pi][pj])
        for i in live:
            row = rows[i]
            for j in cols:
                if abs(row[j]) > best:
                    best = abs(row[j])
                    pi = i
                    pj = j
        pivot = rows[pi][pj]
        if abs(pivot) <= floor:
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
