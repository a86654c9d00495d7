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
        return abs(x) <= self.threshold(scale)


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
        d = _nonsingular_det(self, tol)
        return Mat2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)


_set_a11, _set_a12, _set_a21, _set_a22 = (
    Mat2.a11.__set__, Mat2.a12.__set__, Mat2.a21.__set__, Mat2.a22.__set__)


def _nonsingular_det(m: Mat2, tol: TolerancePolicy) -> float:
    """det(m), or SingularMatrix when it fails the zero test.

    The test is scaled by the product of the row norms, so a uniformly scaled
    matrix makes the same singular/nonsingular decision.
    """
    d = m.det()
    if tol.is_zero(d, math.hypot(m.a11, m.a12) * math.hypot(m.a21, m.a22)):
        raise SingularMatrix(f"matrix {m.rows()} is singular within tolerance")
    return d


def solve2(m: Mat2, y: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Vec2:
    """Solve m @ x = y by Cramer's rule; SingularMatrix when det(m) tests zero."""
    d = _nonsingular_det(m, tol)
    return Vec2((y.x * m.a22 - m.a12 * y.y) / d,
                (m.a11 * y.y - y.x * m.a21) / d)


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


def _eigvec_for(m: Mat2, lam: float) -> Vec2:
    # Kernel vector of (m - lam*I): orthogonal to either row; both candidates
    # are parallel in exact arithmetic, so take the numerically larger one.
    va = Vec2(m.a12, lam - m.a11)
    vb = Vec2(lam - m.a22, m.a21)
    return vb if vb.norm() > va.norm() else va


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
        return (canonical_direction(_eigvec_for(m, 0.5 * tr), tol),)
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    hi = canonical_direction(_eigvec_for(m, 0.5 * (tr + sq)), tol)
    lo = canonical_direction(_eigvec_for(m, 0.5 * (tr - sq)), tol)
    return (hi, lo)


def is_eigenvector(m: Mat2, d: Direction, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Residual test: does m map the line of d into itself within tolerance?"""
    image = m @ d.vector
    lam = d.vector.dot(image)
    residual = (image - lam * d.vector).norm()
    return tol.is_zero(residual, m.frob())


def linearly_independent(ms, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Linear independence of up to four matrices, viewed as vectors in R^4.

    Gaussian elimination with full pivoting; every pivot test is scaled by the
    largest original row norm, which keeps the decision invariant under
    permutations of the input list.
    """
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
