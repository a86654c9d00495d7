"""The steering form det[B1 z, B2 z] of a matrix pair and its real zero lines.

For a two-input step u1*B1 + u2*B2, targets reachable from z in one step are
exactly those with det[B1 z, B2 z] != 0, so the zero set of this quadratic form
is the certificate object everything else (verdicts, excluded sets, escape
steps) is built from.  The set is a union of at most two lines through the
origin, or the whole plane when the form vanishes identically.
"""

from __future__ import annotations

import math
from enum import Enum

from .mat2 import DEFAULT_TOL, Direction, Mat2, TolerancePolicy, _direction, _Record, _setfield


class QuadraticForm(_Record):
    """Homogeneous quadratic a*z1^2 + b*z1*z2 + c*z2^2."""

    _fields = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        for name, value in zip(self._fields, (a, b, c)):
            try:
                value = float(value)
            except OverflowError as exc:
                raise ValueError(f"coefficient {name} beyond the float range") from exc
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient {name}={value}")
            _setfield(self, name, value)


class LineSetKind(Enum):
    POINT_ONLY = "point-only"
    ONE_LINE = "one-line"
    TWO_LINES = "two-lines"
    ALL_OF_PLANE = "all-of-plane"


class LineUnion(_Record):
    """Zero set of a plane quadratic form: {0}, one line, two lines, or everything."""

    _fields = ("kind", "lines")

    def __init__(self, kind: LineSetKind, lines: tuple[Direction, ...] = ()):
        expected = {LineSetKind.POINT_ONLY: 0, LineSetKind.ONE_LINE: 1,
                    LineSetKind.TWO_LINES: 2, LineSetKind.ALL_OF_PLANE: 0}
        if len(lines) != expected[kind]:
            raise ValueError(f"{kind.value} carries {expected[kind]} lines, "
                             f"got {len(lines)}")
        _setfield(self, "kind", kind)
        _setfield(self, "lines", lines)


def gram_form(b1: Mat2, b2: Mat2) -> QuadraticForm:
    """Closed-form coefficients of z -> det[b1 z, b2 z].

    Writing ai, bi for the columns of bi: a = det[a1 a2],
    b = det[a1 b2] + det[b1 a2], c = det[b1 b2].
    """
    return QuadraticForm(*_gram(b1, b2))


def _gram(b1: Mat2, b2: Mat2) -> tuple[float, float, float]:
    """The coefficients of :func:`gram_form`, as floats."""
    return (b1.a11 * b2.a21 - b1.a21 * b2.a11,
            (b1.a11 * b2.a22 - b1.a21 * b2.a12) + (b1.a12 * b2.a21 - b1.a22 * b2.a11),
            b1.a12 * b2.a22 - b1.a22 * b2.a12)


def form_scale(b1: Mat2, b2: Mat2) -> float:
    """Magnitude reference for the coefficients of gram_form(b1, b2)."""
    return b1.frob() * b2.frob()


def _angle_key(d: Direction) -> float:
    return math.atan2(d.y, d.x)


def zero_lines(q: QuadraticForm, tol: TolerancePolicy = DEFAULT_TOL,
               scale: float = 0.0) -> LineUnion:
    """Classify and extract the real zero lines of q.

    ``scale`` is the coefficient magnitude reference (pass form_scale(b1, b2)
    for a steering form).  The discriminant zero test is scaled by
    a^2 + b^2 + c^2 since the form is homogeneous in its coefficients.  Root
    extraction parametrizes by whichever slope variable keeps the leading
    quadratic coefficient large, so near-axis lines come out without
    cancellation or overflow.
    """
    return _zero_lines(q.a, q.b, q.c, tol, scale)


def _zero_lines(a: float, b: float, c: float, tol: TolerancePolicy, scale: float) -> LineUnion:
    """:func:`zero_lines` of the form with finite coefficients a, b, c."""
    if tol.is_zero(a, scale) and tol.is_zero(b, scale) and tol.is_zero(c, scale):
        return LineUnion(LineSetKind.ALL_OF_PLANE)
    if a == 0.0 and c == 0.0:
        # Exactly b*z1*z2: the two coordinate axes.  Decided before the
        # discriminant test, whose absolute floor can swallow b^2 when b is
        # tiny, and whose root extraction would divide by the zero ends.
        dirs = (_direction(1.0, 0.0, tol), _direction(0.0, 1.0, tol))
        return LineUnion(LineSetKind.TWO_LINES, tuple(sorted(dirs, key=_angle_key)))
    disc = b * b - 4.0 * a * c
    disc_scale = a * a + b * b + c * c
    if tol.is_zero(disc, disc_scale):
        # One repeated line; at least one end coefficient is exactly nonzero
        # here, and the dominant one carries the root without cancellation.
        # Its slope overflows only when that coefficient is subnormal; the
        # line is then the coordinate axis itself, as in the two-line case.
        if abs(a) >= abs(c):
            t = -b / (2.0 * a)
            d = _direction(t, 1.0, tol) if math.isfinite(t) else _direction(1.0, 0.0, tol)
        else:
            t = -b / (2.0 * c)
            d = _direction(1.0, t, tol) if math.isfinite(t) else _direction(0.0, 1.0, tol)
        return LineUnion(LineSetKind.ONE_LINE, (d,))
    if disc < 0.0:
        return LineUnion(LineSetKind.POINT_ONLY)
    sq = math.sqrt(disc)
    s = -0.5 * (b + math.copysign(sq, b))
    # |s| >= sq/2 > 0, so every division below is defined.  s/a (or s/c)
    # overflows only when the dominant end coefficient is subnormal; that root
    # is then the coordinate axis itself.
    if abs(a) >= abs(c):
        # roots of a t^2 + b t + c in t = z1/z2
        t = s / a
        dirs = (_direction(t, 1.0, tol) if math.isfinite(t) else _direction(1.0, 0.0, tol),
                _direction(c / s, 1.0, tol))
    else:
        # roots of c t^2 + b t + a in t = z2/z1
        t = s / c
        dirs = (_direction(1.0, t, tol) if math.isfinite(t) else _direction(0.0, 1.0, tol),
                _direction(1.0, a / s, tol))
    ordered = tuple(sorted(dirs, key=_angle_key))
    return LineUnion(LineSetKind.TWO_LINES, ordered)


def pair_lines(b1: Mat2, b2: Mat2, tol: TolerancePolicy = DEFAULT_TOL) -> LineUnion:
    """The zero lines of the pair's steering form, tested at its own scale."""
    a, b, c = _gram(b1, b2)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"non-finite steering form coefficients ({a}, {b}, {c})")
    return _zero_lines(a, b, c, tol, form_scale(b1, b2))
