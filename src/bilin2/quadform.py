"""The steering form det[B1 z, B2 z] of a matrix pair and its real zero lines.

For a two-input step u1*B1 + u2*B2, targets reachable from z in one step are
exactly those with det[B1 z, B2 z] != 0, so the zero set of this quadratic form
is the certificate object everything else (verdicts, excluded sets, escape
steps) is built from.  The set is a union of at most two lines through the
origin, or the whole plane when the form vanishes identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .mat2 import DEFAULT_TOL, Direction, Mat2, TolerancePolicy, Vec2, canonical_direction, cross


@dataclass(frozen=True)
class QuadraticForm:
    """Homogeneous quadratic a*z1^2 + b*z1*z2 + c*z2^2."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient {name}={value}")

    def evaluate(self, z: Vec2) -> float:
        return self.a * z.x * z.x + self.b * z.x * z.y + self.c * z.y * z.y

    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c

    def coeff_scale_sq(self) -> float:
        """Natural scale for discriminant zero tests (same units as disc)."""
        return self.a * self.a + self.b * self.b + self.c * self.c


class LineSetKind(Enum):
    POINT_ONLY = "point-only"
    ONE_LINE = "one-line"
    TWO_LINES = "two-lines"
    ALL_OF_PLANE = "all-of-plane"


@dataclass(frozen=True)
class LineUnion:
    """Zero set of a plane quadratic form: {0}, one line, two lines, or everything."""

    kind: LineSetKind
    lines: tuple[Direction, ...] = ()

    def __post_init__(self):
        expected = {LineSetKind.POINT_ONLY: 0, LineSetKind.ONE_LINE: 1,
                    LineSetKind.TWO_LINES: 2, LineSetKind.ALL_OF_PLANE: 0}
        if len(self.lines) != expected[self.kind]:
            raise ValueError(f"{self.kind.value} carries {expected[self.kind]} lines, "
                             f"got {len(self.lines)}")


def gram_form(b1: Mat2, b2: Mat2) -> QuadraticForm:
    """Closed-form coefficients of z -> det[b1 z, b2 z].

    Writing ai, bi for the columns of bi: a = det[a1 a2],
    b = det[a1 b2] + det[b1 a2], c = det[b1 b2].
    """
    a1, b1c = b1.col1(), b1.col2()
    a2, b2c = b2.col1(), b2.col2()
    return QuadraticForm(cross(a1, a2),
                         cross(a1, b2c) + cross(b1c, a2),
                         cross(b1c, b2c))


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
    a, b, c = q.a, q.b, q.c
    if tol.is_zero(a, scale) and tol.is_zero(b, scale) and tol.is_zero(c, scale):
        return LineUnion(LineSetKind.ALL_OF_PLANE)
    if a == 0.0 and c == 0.0:
        # Exactly b*z1*z2: the two coordinate axes.  Decided before the
        # discriminant test, whose absolute floor can swallow b^2 when b is
        # tiny, and whose root extraction would divide by the zero ends.
        dirs = (canonical_direction(Vec2(1.0, 0.0), tol),
                canonical_direction(Vec2(0.0, 1.0), tol))
        return LineUnion(LineSetKind.TWO_LINES, tuple(sorted(dirs, key=_angle_key)))
    disc = q.discriminant()
    disc_scale = q.coeff_scale_sq()
    if tol.is_zero(disc, disc_scale):
        # One repeated line; at least one end coefficient is exactly nonzero
        # here, and the dominant one carries the root without cancellation.
        if abs(a) >= abs(c):
            d = canonical_direction(Vec2(-b / (2.0 * a), 1.0), tol)
        else:
            d = canonical_direction(Vec2(1.0, -b / (2.0 * c)), tol)
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
        dirs = (canonical_direction(Vec2(t, 1.0) if math.isfinite(t) else Vec2(1.0, 0.0), tol),
                canonical_direction(Vec2(c / s, 1.0), tol))
    else:
        # roots of c t^2 + b t + a in t = z2/z1
        t = s / c
        dirs = (canonical_direction(Vec2(1.0, t) if math.isfinite(t) else Vec2(0.0, 1.0), tol),
                canonical_direction(Vec2(1.0, a / s), tol))
    ordered = tuple(sorted(dirs, key=_angle_key))
    return LineUnion(LineSetKind.TWO_LINES, ordered)


def pair_lines(b1: Mat2, b2: Mat2, tol: TolerancePolicy = DEFAULT_TOL) -> LineUnion:
    """The zero lines of the pair's steering form, tested at its own scale."""
    return zero_lines(gram_form(b1, b2), tol, scale=form_scale(b1, b2))
