"""Shared invariant structure of a matrix family, and the transforms that expose it.

Three structural facts drive the controllability verdicts: a common real
eigenvector (which triangularizes the whole family), a common left null
direction (which zeroes out every bottom row), and simultaneous
anti-diagonalizability of a trace-free pair.  Each detector returns the change
of basis that realizes the structure, so callers can both certify the verdict
and steer in the transformed frame.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

from .mat2 import (
    DEFAULT_TOL,
    Direction,
    Mat2,
    TolerancePolicy,
    _det2,
    _direction,
    _lincomb,
    _Record,
    _setfield,
    _similar,
    cross,
    is_eigenvector,
    real_eigen_directions,
)
from .quadform import LineSetKind, LineUnion, pair_lines


class NotCommonEigenvector(ValueError):
    """The supplied direction is not invariant under every matrix."""


class AllIsotropic(ValueError):
    """Every matrix is a scalar multiple of the identity; no candidate directions."""


class NoCombinationFound(RuntimeError):
    """No tested coefficient pair removed the shared eigenvector."""


class FormClass(Enum):
    UPPER_TRIANGULAR = "upper-triangular"
    ZERO_BOTTOM_ROW = "zero-bottom-row"
    ANTI_DIAGONAL = "anti-diagonal"


class StructureReport(_Record):
    """A change of basis P and the canonical forms P @ M @ P^-1 it produces."""

    _fields = ("form_class", "transform", "transform_inv", "canonical_forms",
               "common_eigenvector")

    def __init__(self, form_class: FormClass, transform: Mat2, transform_inv: Mat2,
                 canonical_forms: tuple[Mat2, ...], common_eigenvector: Optional[Direction]):
        _setfield(self, "form_class", form_class)
        _setfield(self, "transform", transform)
        _setfield(self, "transform_inv", transform_inv)
        _setfield(self, "canonical_forms", canonical_forms)
        _setfield(self, "common_eigenvector", common_eigenvector)


def common_real_eigenvector(ms, tol: TolerancePolicy = DEFAULT_TOL) -> Optional[Direction]:
    """A direction invariant under every matrix in ms, or None.

    Members are scanned in order and only the first non-isotropic one has its
    eigen-directions computed: it has at most two real ones, and any common
    direction must be one of them.  Each candidate is certified against the
    whole family by residual test.  Isotropic members impose no constraint.
    Raises AllIsotropic when no member constrains the answer at all.
    """
    ms = tuple(ms)
    _, directions = _candidates(ms, tol)
    return _certified(ms, directions, tol)[0]


def _candidates(ms: tuple[Mat2, ...], tol: TolerancePolicy) -> tuple[int, tuple[Direction, ...]]:
    """The index of the first non-isotropic member of ms and its real
    eigen-directions: the only candidates for a common eigenvector."""
    for i, m in enumerate(ms):
        directions = real_eigen_directions(m, tol)
        if directions is not None:
            return i, directions
    raise AllIsotropic("every matrix is scalar; any direction is invariant")


def _certified(ms: tuple[Mat2, ...], directions: tuple[Direction, ...],
               tol: TolerancePolicy) -> tuple[Optional[Direction], list[int]]:
    """The first candidate direction invariant under every member, or None;
    and, for each candidate before it, the index of the first member it
    failed.  Members are tested in order, so a candidate was tested against
    exactly the members up to that index."""
    failed_at = []
    for d in directions:
        for i, x in enumerate(ms):
            if not is_eigenvector(x, d, tol):
                failed_at.append(i)
                break
        else:
            return d, failed_at
    return None, failed_at


def triangularize(ms, d: Direction, tol: TolerancePolicy = DEFAULT_TOL) -> StructureReport:
    """Rotate the common eigenvector d onto the first axis.

    P^-1 has columns d = (x, y) and (-y, x), so P is a rotation (condition
    number 1) and every P @ M @ P^-1 is upper triangular with M's eigenvalue
    along d in the (1,1) slot.  The report is classed ZERO_BOTTOM_ROW when
    every (2,2) entry also vanishes.
    """
    ms = tuple(ms)
    for m in ms:
        if not is_eigenvector(m, d, tol):
            raise NotCommonEigenvector(
                f"({d.x}, {d.y}) is not an eigenvector of {m.rows()} within tolerance")
    return _triangular(ms, d, tol)


def _triangular(ms: tuple[Mat2, ...], d: Direction, tol: TolerancePolicy) -> StructureReport:
    """The report of :func:`triangularize` for a direction already certified."""
    x, y = d.x, d.y
    p_inv = Mat2(x, -y, y, x)
    p = Mat2(x, y, -y, x)
    forms = tuple(_similar(p, m, p_inv) for m in ms)
    zero_bottom = all(tol.is_zero(f.a22, m.frob()) for f, m in zip(forms, ms))
    klass = FormClass.ZERO_BOTTOM_ROW if zero_bottom else FormClass.UPPER_TRIANGULAR
    return StructureReport(klass, p, p_inv, forms, d)


def _left_kernel(m: Mat2, tol: TolerancePolicy) -> Optional[tuple[tuple[float, float], ...]]:
    """The constraints m puts on a w with w^T m = 0: None when m is
    nonsingular, none when m is zero (every w works), else its larger column
    turned a quarter turn."""
    x1, y1, x2, y2 = m.a11, m.a21, m.a12, m.a22
    n1, n2 = math.hypot(x1, y1), math.hypot(x2, y2)
    x, y, scale = (x1, y1, n1) if n1 >= n2 else (x2, y2, n2)
    if not tol.is_zero(m.det(), scale * scale):
        return None
    return () if tol.is_zero(scale) else ((-y, x),)


def zero_bottom_row_pair(b1: Mat2, b2: Mat2,
                         tol: TolerancePolicy = DEFAULT_TOL) -> Optional[Mat2]:
    """A P whose second row is the pair's common left null direction w^T.

    Both matrices must be singular with proportional left kernels; then
    P @ bi @ P^-1 has a zero bottom row for both.  w is canonical (see
    ``canonical_direction``), and P's first row is the unit vector orthogonal
    to it, so P is a rotation.  Returns None when the pair is not in this
    class.
    """
    k1 = _left_kernel(b1, tol)
    k2 = _left_kernel(b2, tol)
    if k1 is None or k2 is None:
        return None
    ws = k1 + k2
    if len(ws) == 2:
        (x1, y1), (x2, y2) = ws
        if not tol.is_zero(x1 * y2 - y1 * x2, math.hypot(x1, y1) * math.hypot(x2, y2)):
            return None
    d = _direction(*(ws[0] if ws else (0.0, 1.0)), tol)
    return Mat2(d.y, -d.x, d.x, d.y)


def antidiagonalize_pair(b1: Mat2, b2: Mat2,
                         tol: TolerancePolicy = DEFAULT_TOL) -> Optional[StructureReport]:
    """Simultaneously anti-diagonalize a pair, or None.

    Both traces must vanish.  Candidate first basis vectors v are the zero
    lines of the pair's steering form: in an anti-diagonalizing basis both
    matrices swap the basis lines, so the basis lines are exactly where the
    form vanishes.  A candidate succeeds when v and b1 @ v span the plane and
    b2 maps b1 @ v back onto the line of v; then P^-1 = [v, b1 @ v] columns.
    """
    found = _antidiagonal(b1, b2, tol)
    return found[0] if found else None


def _antidiagonal(b1: Mat2, b2: Mat2,
                  tol: TolerancePolicy) -> Optional[tuple[StructureReport, LineUnion]]:
    """The report of :func:`antidiagonalize_pair`, with the zero lines it was
    found on."""
    if not tol.is_zero(b1.trace(), b1.frob()):
        return None
    if not tol.is_zero(b2.trace(), b2.frob()):
        return None
    lu = pair_lines(b1, b2, tol)
    if lu.kind not in (LineSetKind.ONE_LINE, LineSetKind.TWO_LINES):
        return None
    for d in lu.lines:
        v = d.vector
        w = b1 @ v
        if tol.is_zero(w.norm(), b1.frob()):
            continue
        if tol.is_zero(cross(v, w), w.norm()):
            continue
        z = b2 @ w
        if not tol.is_zero(cross(z, v), b2.frob() * w.norm()):
            continue
        det = _det2(v.x, w.x, v.y, w.y, tol)
        if det is None:
            continue
        p = Mat2(w.y / det, -w.x / det, -v.y / det, v.x / det)
        p_inv = Mat2(v.x, w.x, v.y, w.y)
        forms = (_similar(p, b1, p_inv), _similar(p, b2, p_inv))
        return StructureReport(FormClass.ANTI_DIAGONAL, p, p_inv, forms, None), lu
    return None


_COMBINATIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
_NO_COMBINATION = "no tested combination of the last two inputs removed the shared eigenvector"


def combine_inputs(a: Mat2, b1: Mat2, b2: Mat2, b3: Mat2,
                   tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, float]:
    """Coefficients (ca, cb) such that {a, b1, ca*b2 + cb*b3} has no common
    real eigenvector.

    Tries (1,0), (0,1), (1,1) in that order, each certified by re-running the
    common-eigenvector check.  Three are enough when a and b1 are not both
    scalar, which linear independence of the four guarantees: then a and b1
    share at most two directions, and for each shared direction d the pairs
    that keep d invariant under ca*b2 + cb*b3 (cross(d, (ca*b2 + cb*b3) d) = 0,
    linear in (ca, cb)) form a line through the origin, unless b2 and b3 keep
    d too.  Two lines cannot hold three pairwise non-parallel pairs.  Raises
    NoCombinationFound when all four matrices share a direction.
    """
    for ca, cb in _COMBINATIONS:
        combined = _lincomb(ca, b2, cb, b3)
        try:
            if common_real_eigenvector([a, b1, combined], tol) is None:
                return ca, cb
        except AllIsotropic:
            continue
    raise NoCombinationFound(_NO_COMBINATION)


def _combine_inputs(a: Mat2, b1: Mat2, b2: Mat2, b3: Mat2, first: int,
                    directions: tuple[Direction, ...], failed_at: Sequence[int],
                    tol: TolerancePolicy) -> tuple[float, float]:
    """:func:`combine_inputs`, given the :func:`_candidates` of (a, b1, b2, b3)
    and, as ``failed_at``, what :func:`_certified` found for them.

    When a or b1 is not isotropic, it is also the first constraining member of
    each {a, b1, combined}, with the same directions; those invariant under
    both a and b1 are the only ones a combination has to break.  The (1, 0)
    and (0, 1) combinations are b2 and b3 up to the signs of zero entries,
    which no residual test sees, so they are tested as b2 and b3.  No residual
    test that ``_certified`` ran is run again.
    """
    if first >= 2:
        return combine_inputs(a, b1, b2, b3, tol)
    members = (a, b1, b2, b3)

    def invariant(k: int, i: int) -> bool:
        if k < len(failed_at) and i <= failed_at[k]:
            return i < failed_at[k]
        return is_eigenvector(members[i], directions[k], tol)

    shared = [k for k in range(len(directions)) if invariant(k, 0) and invariant(k, 1)]
    if not any(invariant(k, 2) for k in shared):
        return 1.0, 0.0
    if not any(invariant(k, 3) for k in shared):
        return 0.0, 1.0
    combined = _lincomb(1.0, b2, 1.0, b3)
    if not any(is_eigenvector(combined, directions[k], tol) for k in shared):
        return 1.0, 1.0
    raise NoCombinationFound(_NO_COMBINATION)
