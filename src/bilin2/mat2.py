"""Fixed-size vector/matrix arithmetic in the plane, with an explicit zero-test policy.

Everything downstream (quadratic forms, structure detection, verdicts, steering)
routes its floating point zero decisions through :class:`TolerancePolicy`, so the
numeric policy lives in exactly one place.  All kernels are closed-form: for 2x2
problems the explicit formulas are both faster and easier to audit than a general
linear algebra call, and they keep golden-value tests exact.

Every record of the library is a plain class on ``_Record``: it writes its
own ``__init__`` and names its fields in ``_fields``, from which the base
derives equality (same class only), hashing and ``repr``; assigning or
deleting an attribute raises AttributeError.  The records are not
dataclasses, so ``dataclasses.fields`` and ``replace`` do not apply to them,
and importing the library loads neither ``dataclasses`` nor ``inspect``.

``Vec2`` and ``Mat2`` are boundary types: slotted records that carry
construction, ``@``, the few measures the library reads (``norm``, ``frob``,
``det``, ``trace``, ``rows``), equality, hashing and pickling, and no value
arithmetic.  Every value is built by its ``__init__``, which coerces each
entry to float and raises ValueError on a non-finite one (or one beyond the
float range), or by the bulk constructor ``_vec2s``, which checks a whole
cloud in one pass (or takes its caller's check) and raises the constructor's
own error; ``__reduce__`` sends copies and unpickling through ``__init__``.
No path builds an unchecked value, except the ``Direction`` of a unit
vector that ``_unit`` has just made (``_unit_direction``): ``_unit`` raises
ValueError where the norm it divides by is not finite, so that vector is
finite and of unit norm; and a ``Mat2`` of floats its caller knows to be
finite (``_mat2``): the rotation frame of a ``Direction``, ``_pow2`` of a
member.  Nothing downstream re-checks its inputs.

The kernels compute on plain floats and build only their results: on the
classify path ``linearly_independent`` (every member's norm first, then an
elimination that stops at the first pivot in the zero band or the last row's
pivot), the eigen-candidate stage (the isotropy test ``_anisotropic`` and
``_eigen_units`` on ``_pow2`` of a member, and the residual test
``_invariant``, under ``real_eigen_directions`` and ``is_eigenvector``;
``structure._candidates`` runs the commutator test first, and computes
eigen-directions only where it does not settle that no direction passes the
residual test on every member; ker[M, N] comes last, normalized only once they
all fail; a ``Direction`` is built only for a certified vector),
``structure._antidiagonal``, ``canonical_direction``,
``_similar`` and ``_lincomb``;
on the plan path the ``steer`` kernels and the replay kernel ``simulate._replay``.
A singular 2x2 system is a zero test in ``_det2`` that answers None (only
``solve2`` raises ``SingularMatrix``), made once per system for the two-step
construction's input substitution.  Where an intermediate would have come
out non-finite, the kernel raises ValueError as that value's constructor
would have (``_finite``), and it never returns a decision made on inf or nan.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from math import isfinite
from typing import Optional


class ZeroVector(ValueError):
    """A vector that must be nonzero failed the norm zero test."""


class SingularMatrix(ValueError):
    """A matrix that must be invertible failed the determinant zero test."""


# Fields of a record without slots are written once, in its __init__, past the
# refusing __setattr__; this keeps them in the instance's inline values.
_setfield = object.__setattr__


class _Record:
    """Base of the library's immutable records.

    A subclass lists its constructor's arguments in ``_fields`` and sets each
    once in its ``__init__``.  Equality and hashing use ``_key()``, the field
    values unless a subclass leaves one out, and hold between instances of
    the same class only; ``repr`` shows every field.  Assigning or deleting
    an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _memo:
    """A per-instance memo kept in the instance ``__dict__`` from its first read,
    without a lock (racing first reads all return the first value stored)."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


class TolerancePolicy(_Record):
    """The one zero test of the library: ``is_zero(r)`` tests ``|r| <= abs_eps``
    on a dimensionless ratio r, after an exact-zero test where the magnitude r
    divides by can be 0.  It takes ``abs_eps`` alone; ``rel_eps``, which
    decided nothing, is gone from the constructor and the fields (a contract
    change)."""

    _fields = ("abs_eps",)

    def __init__(self, abs_eps: float = 1e-9):
        try:
            abs_eps = float(abs_eps)
        except OverflowError as exc:
            raise ValueError("tolerance beyond the float range") from exc
        if not (abs_eps > 0.0 and math.isfinite(abs_eps)):
            raise ValueError("abs_eps must be positive and finite")
        _setfield(self, "abs_eps", abs_eps)

    def is_zero(self, x: float) -> bool:
        return abs(x) <= self.abs_eps


DEFAULT_TOL = TolerancePolicy()


class Vec2(_Record):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        try:
            x = float(x)
            y = float(y)
        except OverflowError as exc:
            raise ValueError("vector entry beyond the float range") from exc
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"non-finite vector ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    def __reduce__(self):
        return (Vec2, (self.x, self.y))

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


# The slot setters are the only writes a value type sees, made once in
# __init__ or _vec2s.  They skip the refusing __setattr__, and are faster
# than an object.__setattr__ call per field.
_set_x, _set_y = Vec2.x.__set__, Vec2.y.__set__


def _vec2s(xs: list[float], ys: list[float], finite: bool = False) -> tuple[Vec2, ...]:
    """The vectors (xs[i], ys[i]) from two equal-length lists of floats.

    Equal to ``tuple(map(Vec2, xs, ys))``, without a constructor call per
    vector: finiteness is checked once over each list, unless the caller
    passes ``finite=True`` having checked it already, and the loops run in
    C.  When a coordinate is not finite the pairs go through ``Vec2`` in
    order, so the first bad pair raises the constructor's own ValueError.
    """
    if not (finite or (all(map(isfinite, xs)) and all(map(isfinite, ys)))):
        deque(map(Vec2, xs, ys), 0)
    vs = tuple(map(object.__new__, repeat(Vec2, len(xs))))
    deque(map(_set_x, vs, xs), 0)
    deque(map(_set_y, vs, ys), 0)
    return vs


def cross(u: Vec2, v: Vec2) -> float:
    """Signed area det[u v]; zero exactly when u and v are parallel."""
    return u.x * v.y - u.y * v.x


class Mat2(_Record):
    __slots__ = _fields = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: float, a12: float, a21: float, a22: float):
        try:
            a11 = float(a11)
            a12 = float(a12)
            a21 = float(a21)
            a22 = float(a22)
        except OverflowError as exc:
            raise ValueError("matrix entry beyond the float range") from exc
        if not (isfinite(a11) and isfinite(a12) and isfinite(a21) and isfinite(a22)):
            raise ValueError(f"non-finite matrix entries ({a11}, {a12}, {a21}, {a22})")
        _set_a11(self, a11)
        _set_a12(self, a12)
        _set_a21(self, a21)
        _set_a22(self, a22)

    def __reduce__(self):
        return (Mat2, (self.a11, self.a12, self.a21, self.a22))

    def rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a11, self.a12), (self.a21, self.a22))

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> float:
        return self.a11 + self.a22

    def frob(self) -> float:
        n = math.hypot(self.a11, self.a12, self.a21, self.a22)
        if n == math.inf:
            raise ValueError(f"non-finite matrix norm of {self.rows()}")
        return n

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


_set_a11, _set_a12, _set_a21, _set_a22 = (
    Mat2.a11.__set__, Mat2.a12.__set__, Mat2.a21.__set__, Mat2.a22.__set__)


def _mat2(a11: float, a12: float, a21: float, a22: float) -> Mat2:
    """The Mat2 of four finite floats, built without the constructor's checks."""
    m = object.__new__(Mat2)
    _set_a11(m, a11)
    _set_a12(m, a12)
    _set_a21(m, a21)
    _set_a22(m, a22)
    return m


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


def _lincomb(ca: float, m: Mat2, cb: float = 0.0, n: Optional[Mat2] = None) -> Mat2:
    """ca*m + cb*n entrywise, or ca*m without n: each entry scaled, then
    summed, so signed zeros come out as the scaled matrices' sum would give
    them.  A product that overflows leaves a non-finite entry, so the
    result's constructor raises."""
    if n is None:
        return Mat2(ca * m.a11, ca * m.a12, ca * m.a21, ca * m.a22)
    return Mat2(ca * m.a11 + cb * n.a11, ca * m.a12 + cb * n.a12,
                ca * m.a21 + cb * n.a21, ca * m.a22 + cb * n.a22)


def _pow2_exponent(top: float, k: int = 0) -> int:
    """The e in [-1022, 1023] that puts top * 2^e in [2^(k-1), 2^k)."""
    return max(-1022, min(k - math.frexp(top)[1], 1023))


def _pow2(m: Mat2) -> tuple[float, float, float, float]:
    """m's entries times the power of two putting the largest in [1/2, 1), exact above 2^-1022."""
    f = math.ldexp(1.0, _pow2_exponent(max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))))
    return m.a11 * f, m.a12 * f, m.a21 * f, m.a22 * f


def _det2(a11: float, a12: float, a21: float, a22: float,
          tol: TolerancePolicy) -> Optional[tuple]:
    """[[a11, a12], [a21, a22]] x = y for :func:`_cramer`, column j times a power
    of two f_j as in :func:`_pow2`; or None where det over the column norms tests zero."""
    f1, f2 = [math.ldexp(1.0, _pow2_exponent(max(abs(p), abs(q))))
              for p, q in ((a11, a21), (a12, a22))]
    a11, a21, a12, a22 = a11 * f1, a21 * f1, a12 * f2, a22 * f2
    d = a11 * a22 - a12 * a21
    if d == 0.0 or tol.is_zero(d / math.hypot(a11, a21) / math.hypot(a12, a22)):
        return None
    return d, f1, f2, a11, a12, a21, a22


def _cramer(s: tuple, y1: float, y2: float) -> tuple[float, float]:
    """x with m x = y for the system s that :func:`_det2` made of m, or Vec2's ValueError."""
    d, f1, f2, a11, a12, a21, a22 = s
    x1, x2 = f1 * ((y1 * a22 - a12 * y2) / d), f2 * ((a11 * y2 - y1 * a21) / d)
    _finite(x1, x2)
    return x1, x2


def _finite(*values: float) -> None:
    """ValueError, as ``Vec2`` raises it, unless all the floats are finite."""
    if not all(map(isfinite, values)):
        raise ValueError(f"non-finite vector {values}")


def solve2(m: Mat2, y: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Vec2:
    """Solve m @ x = y by :func:`_cramer`; SingularMatrix when det(m) tests zero."""
    s = _det2(m.a11, m.a12, m.a21, m.a22, tol)
    if s is None:
        raise SingularMatrix(f"matrix {m.rows()} is singular within tolerance")
    return Vec2(*_cramer(s, y.x, y.y))


class Direction(_Record):
    """A line through the origin, held as its canonical unit representative.

    Construct through :func:`canonical_direction`; two parallel vectors map to
    the same representative up to floating rounding.
    """

    _fields = ("vector",)

    def __init__(self, vector: Vec2):
        n = vector.norm()
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"direction vector must be unit length, got norm {n}")
        _setfield(self, "vector", vector)

    @property
    def x(self) -> float:
        return self.vector.x

    @property
    def y(self) -> float:
        return self.vector.y


def canonical_direction(v: Vec2, tol: TolerancePolicy = DEFAULT_TOL) -> Direction:
    """Normalize v to the canonical representative of its line.

    The representative has unit norm and a positive first component, or a
    positive second one where the first is inside the zero band.  Raises
    ZeroVector for the zero vector only, however small the others are.
    """
    return _direction(v.x, v.y, tol)


def _direction(x: float, y: float, tol: TolerancePolicy) -> Direction:
    """:func:`canonical_direction` of the vector (x, y), given as floats."""
    return _unit_direction(*_unit(x, y, tol))


def _unit_direction(x: float, y: float) -> Direction:
    """The Direction of a unit vector that :func:`_unit` returned, built
    without the checks of ``Vec2`` and ``Direction``, which it always passes."""
    v = object.__new__(Vec2)
    _set_x(v, x)
    _set_y(v, y)
    d = object.__new__(Direction)
    _setfield(d, "vector", v)
    return d


def _unit(x: float, y: float, tol: TolerancePolicy) -> tuple[float, float]:
    """The coordinates of :func:`_direction`'s representative of (x, y): finite,
    of unit norm; ValueError where the norm of (x, y) is not finite."""
    n = math.hypot(x, y)
    if n == 0.0:
        raise ZeroVector(f"cannot orient zero vector ({x}, {y})")
    if not isfinite(n):
        raise ValueError(f"non-finite vector norm of ({x}, {y})")
    ux, uy = x / n, y / n
    if ux > tol.abs_eps:
        s = 1.0
    elif ux < -tol.abs_eps:
        s = -1.0
    else:
        s = 1.0 if uy > 0.0 else -1.0
    # + 0.0 turns a signed zero into plain 0.0 so representatives print cleanly
    return s * ux + 0.0, s * uy + 0.0


def _eigvec_for(a: tuple, lam: float, tol: TolerancePolicy) -> tuple[float, float]:
    # The larger of the two row normals of m - lam*I (m's entries a), parallel in exact arithmetic.
    ax, ay = a[1], lam - a[0]
    bx, by = lam - a[3], a[2]
    if math.hypot(bx, by) > math.hypot(ax, ay):
        return _unit(bx, by, tol)
    return _unit(ax, ay, tol)


def real_eigen_directions(m: Mat2,
                          tol: TolerancePolicy = DEFAULT_TOL) -> Optional[tuple[Direction, ...]]:
    """Real eigen-directions of m, or None when m is isotropic.

    Isotropic (scalar multiple of the identity, every direction invariant) is
    detected first; then the characteristic discriminant decides: < 0 within
    tolerance gives no real directions, ~0 one repeated direction, > 0 two.
    With two, the direction of the larger eigenvalue (trace + sqrt(disc))/2
    comes first.
    """
    found = _anisotropic(m, tol)
    if found is None:
        return None
    return tuple([_unit_direction(x, y) for x, y in _eigen_units(*found, tol)])


def _anisotropic(m: Mat2, tol: TolerancePolicy) -> Optional[tuple[tuple, float]]:
    """``_pow2`` of m and its norm, or None where m is a multiple of the identity."""
    a = a11, a12, a21, a22 = _pow2(m)
    scale = math.hypot(*a)
    if scale == 0.0 or tol.is_zero(max(abs(a12), abs(a21), abs(a11 - a22)) / scale):
        return None
    return a, scale


def _eigen_units(a: tuple, scale: float,
                 tol: TolerancePolicy) -> tuple[tuple[float, float], ...]:
    """:func:`real_eigen_directions` of a matrix that is not isotropic, as unit
    (x, y) pairs, found on its ``_pow2`` entries a, of norm scale."""
    a11, a12, a21, a22 = a
    tr = a11 + a22
    disc = tr * tr - 4.0 * (a11 * a22 - a12 * a21)
    if tol.is_zero(disc / scale / scale):
        return (_eigvec_for(a, 0.5 * tr, tol),)
    if disc < 0.0:
        return ()
    sq = math.sqrt(disc)
    return _eigvec_for(a, 0.5 * (tr + sq), tol), _eigvec_for(a, 0.5 * (tr - sq), tol)


def is_eigenvector(m: Mat2, d: Direction, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Residual test: does m map the line of d into itself within tolerance?"""
    return _invariant(m, d.vector.x, d.vector.y, tol)


def _invariant(m: Mat2, x: float, y: float, tol: TolerancePolicy) -> bool:
    """:func:`is_eigenvector` of the unit vector (x, y), given as floats; made
    on ``_pow2`` of m where the residual and m's entries are below 2^-900, whose
    products can underflow."""
    ix, iy = m.a11 * x + m.a12 * y, m.a21 * x + m.a22 * y
    lam = x * ix + y * iy
    rx, ry = ix - x * lam, iy - y * lam
    # A non-finite image or eigenvalue always leaves a non-finite residual
    # component, so this one test stands for a check on every intermediate.
    if not (isfinite(rx) and isfinite(ry)):
        raise ValueError(f"non-finite eigenvector residual ({rx}, {ry})")
    r = math.hypot(rx, ry)
    if r < 2.0 ** -900 and 0.0 < max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22)) < 2.0 ** -900:
        return _invariant(_mat2(*_pow2(m)), x, y, tol)
    return r == 0.0 or tol.is_zero(r / m.frob())


def linearly_independent(ms, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Linear independence of up to four matrices, viewed as vectors in R^4.

    A norm that overflows raises frob's ValueError, even after a zero member,
    which answers False.  Full-pivoting elimination on the rows over their
    norms (scaling one matrix, or permuting the list, keeps the decision) stops
    early; pivot ties go to the first entry in row then column order."""
    ms = list(ms)
    if not 1 <= len(ms) <= 4:
        raise ValueError(f"expected between 1 and 4 matrices, got {len(ms)}")
    norms = [m.frob() for m in ms]
    if 0.0 in norms:
        return False
    rows = [[m.a11 / n, m.a12 / n, m.a21 / n, m.a22 / n] for m, n in zip(ms, norms)]
    cols, eps = [0, 1, 2, 3], tol.abs_eps
    while True:
        best, i = -1.0, 0
        for row in rows:
            for j in cols:
                v = row[j]
                if v > best or -v > best:
                    best, pi, pj = abs(v), i, j
            i += 1
        if best <= eps:
            return False
        if len(rows) == 1:
            return True
        prow = rows.pop(pi)
        cols.remove(pj)
        for row in rows:
            factor = row[pj] / prow[pj]
            for j in cols:
                row[j] -= factor * prow[j]
