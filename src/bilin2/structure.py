"""Shared invariant structure of a matrix family, and the transforms that expose it.

Three structural facts drive the controllability verdicts: a common real
eigenvector (which triangularizes the whole family), a common left null
direction (which zeroes out every bottom row), and simultaneous
anti-diagonalizability of a trace-free pair.  Each detector returns the change
of basis that realizes the structure, so callers can both certify the verdict
and steer in the transformed frame.

The common eigenvector is decided first by one commutator: M, the first
non-isotropic member, and N, the first later member that does not commute
with it, share an eigenvector exactly when det[M, N] = 0 (Shemesh, 1984).
Where that determinant is too large for any direction to pass the residual
test on both, the family shares none, and no eigen-direction is computed or
tested.  Otherwise the candidates are M's eigen-directions, then ker[M, N],
each certified by residual test; the kernel is normalized only when every
eigen-direction has failed.  The input combination of a family with three
inputs and drift, or four without, is decided by :func:`combine_inputs`
alone.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from .mat2 import (
    DEFAULT_TOL,
    Direction,
    Mat2,
    TolerancePolicy,
    _anisotropic,
    _direction,
    _eigen_units,
    _finite,
    _invariant,
    _lincomb,
    _mat2,
    _pow2,
    _Record,
    _setfield,
    _similar,
    _unit,
    _unit_direction,
    is_eigenvector,
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


# The rounding of the commutator and of the residual test, a few dozen units
# of 2^-52, with room to spare.
_ROUNDING = 2.0 ** -40


def common_real_eigenvector(ms, tol: TolerancePolicy = DEFAULT_TOL) -> Optional[Direction]:
    """A direction invariant under every matrix in ms, or None.

    M is the first non-isotropic member, N the first later one that does not
    commute with it.  They share an eigenvector exactly when det[M, N] = 0,
    [M, N] = MN - NM (Shemesh, 1984); where it is too large for any direction
    to pass the residual test on both, the family shares none and no
    eigen-direction is computed.  Otherwise the candidates are M's real
    eigen-directions, then ker[M, N] where it differs from them, and each is
    certified against the whole family by residual test.  Isotropic members
    impose no constraint.  Raises AllIsotropic when no member constrains the
    answer at all.
    """
    ms = tuple(ms)
    return _certified(ms, *_candidates(ms, tol)[1:], tol)


def _candidates(ms: tuple[Mat2, ...], tol: TolerancePolicy) -> tuple:
    """The pair (i, j) of the indices of M, the first non-isotropic member of
    ms, and of N, the first later member that does not commute with M (None
    where every one does); M's eigen-directions as unit (x, y) pairs; and
    [M, N]'s entries (c, p, q), or None without N.  Where the commutator
    settles that the family shares none, these are () and None.

    Both ratios of the commutator test, |[M, N]|_F / (|M|_F |N|_F) and
    det[M, N] / (|M|_F |N|_F)^2, are formed on ``_pow2`` of M and on N over
    its norm (``_pow2`` of N where that norm overflows).  [M, N] is trace-free,
    [[c, p], [q, -c]], and its kernel is its larger row turned a quarter turn.

    A unit v that passes the residual test on M and N within eps puts both,
    over their norms and in the frame (v, v^perp), in the form [[*, *], [r, *]]
    with |r| <= eps.  There |c| <= 2 eps, |q| <= 2 sqrt(2) eps and
    |p| <= sqrt(2), so the determinant ratio, |c^2 + pq|, is at most
    4 eps (1 + eps).  Only a ratio above that bound, plus ``_ROUNDING``,
    settles that the family shares none.
    """
    for i, m in enumerate(ms):
        found = _anisotropic(m, tol)
        if found is not None:
            break
    else:
        raise AllIsotropic("every matrix is scalar; any direction is invariant")
    a, scale = found
    a11, a12, a21, a22 = a
    settled = 4.0 * tol.abs_eps * (1.0 + tol.abs_eps) + _ROUNDING
    d = a11 - a22
    for j in range(i + 1, len(ms)):
        n = ms[j]
        b11, b12, b21, b22 = n.a11, n.a12, n.a21, n.a22
        s = math.hypot(b11, b12, b21, b22)
        if s == math.inf:
            b11, b12, b21, b22 = _pow2(n)
            s = math.hypot(b11, b12, b21, b22)
        elif s == 0.0:
            continue
        b11, b12, b21, b22 = b11 / s, b12 / s, b21 / s, b22 / s
        e = b11 - b22
        c, p, q = a12 * b21 - a21 * b12, b12 * d - a12 * e, a21 * e - b21 * d
        r = math.hypot(c, p, q, c)
        if r == 0.0 or tol.is_zero(r / scale):
            continue
        if abs(c * c + p * q) / scale / scale > settled:
            return (i, j), (), None
        return (i, j), _eigen_units(a, scale, tol), (c, p, q)
    return (i, None), _eigen_units(a, scale, tol), None


def _certified(ms: tuple[Mat2, ...], units: tuple[tuple[float, float], ...],
               commutator: Optional[tuple[float, float, float]],
               tol: TolerancePolicy) -> Optional[Direction]:
    """The direction of the first candidate invariant under every member, or
    None.  The candidates are ``units``, then ker ``commutator`` where it
    differs from them, normalized once they all failed (``_unit`` does not
    raise: (c, p, q) are finite and not all zero)."""
    for x, y in units:
        for m in ms:
            if not _invariant(m, x, y, tol):
                break
        else:
            return _unit_direction(x, y)
    if commutator is not None:
        c, p, q = commutator
        kernel = _unit(-p, c, tol) if abs(p) >= abs(q) else _unit(c, q, tol)
        if kernel not in units:
            return _certified(ms, (kernel,), None, tol)
    return None


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
    return _triangular(ms, d, tol)[0]


def _triangular(ms: tuple[Mat2, ...], d: Direction, tol: TolerancePolicy,
                k: int = 0) -> tuple[StructureReport, bool]:
    """The report of :func:`triangularize` for a direction already certified,
    and whether the (2,2) entries of the inputs ms[k:] all vanish (ms[:k] is
    the drift): the uncontrollable decision.  They are tested first, and the
    drift's only where they do.  P and P^-1 hold d's finite entries."""
    x, y = d.x, d.y
    p_inv, p = _mat2(x, -y, y, x), _mat2(x, y, -y, x)
    forms = tuple([_similar(p, m, p_inv) for m in ms])
    trapped = zero_bottom = True
    for i in (*range(k, len(ms)), *range(k)):
        if forms[i].a22 != 0.0 and not tol.is_zero(forms[i].a22 / ms[i].frob()):
            trapped, zero_bottom = i < k, False
            break
    klass = FormClass.ZERO_BOTTOM_ROW if zero_bottom else FormClass.UPPER_TRIANGULAR
    return StructureReport(klass, p, p_inv, forms, d), trapped


def _left_kernel(m: Mat2, tol: TolerancePolicy) -> Optional[tuple[tuple[float, float], ...]]:
    """The constraints m puts on a w with w^T m = 0, read on ``_pow2`` of m: none
    when m is exactly zero (every w works), None when det m over its larger
    squared column norm is not zero, else that column turned a quarter turn."""
    x1, x2, y1, y2 = _pow2(m)
    n1, n2 = math.hypot(x1, y1), math.hypot(x2, y2)
    x, y, scale = (x1, y1, n1) if n1 >= n2 else (x2, y2, n2)
    if scale == 0.0:
        return ()
    return ((-y, x),) if tol.is_zero((x1 * y2 - x2 * y1) / scale / scale) else None


def zero_bottom_row_pair(b1: Mat2, b2: Mat2,
                         tol: TolerancePolicy = DEFAULT_TOL) -> Optional[Mat2]:
    """A P whose second row is the pair's common left null direction w^T.

    Both matrices must be singular with proportional left kernels; then
    P @ bi @ P^-1 has a zero bottom row for both.  w is canonical (see
    ``canonical_direction``), and P's first row is the unit vector orthogonal
    to it, so P is a rotation.  Returns None when the pair is not in this
    class.
    """
    k1, k2 = _left_kernel(b1, tol), _left_kernel(b2, tol)
    if k1 is None or k2 is None:
        return None
    ws = k1 + k2
    if len(ws) == 2:
        (x1, y1), (x2, y2) = ws
        if not tol.is_zero((x1 * y2 - y1 * x2) / math.hypot(x1, y1) / math.hypot(x2, y2)):
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
    if any(b.trace() != 0.0 and not tol.is_zero(b.trace() / b.frob()) for b in (b1, b2)):
        return None
    lu = pair_lines(b1, b2, tol)
    if lu.kind not in (LineSetKind.ONE_LINE, LineSetKind.TWO_LINES):
        return None
    c = c11, c12, c21, c22 = _pow2(b2)
    for d in lu.lines:
        vx, vy = d.vector.x, d.vector.y
        wx, wy = b1.a11 * vx + b1.a12 * vy, b1.a21 * vx + b1.a22 * vy
        _finite(wx, wy)
        wn, det = math.hypot(wx, wy), vx * wy - wx * vy
        if wn == 0.0 or tol.is_zero(wn / b1.frob()) or tol.is_zero(det / wn):
            continue
        zx, zy = c11 * wx + c12 * wy, c21 * wx + c22 * wy   # b2 w over a power of two
        _finite(zx, zy)
        cz = zx * vy - zy * vx
        if cz != 0.0 and not tol.is_zero(cz / math.hypot(*c) / wn):
            continue
        p = Mat2(wy / det, -wx / det, -vy / det, vx / det)
        p_inv = Mat2(vx, wx, vy, wy)
        forms = (_similar(p, b1, p_inv), _similar(p, b2, p_inv))
        return StructureReport(FormClass.ANTI_DIAGONAL, p, p_inv, forms, None), lu
    return None


_COMBINATIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


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

    ``analyze`` calls this on the members of a controllable family, except
    where the commutator of a and b1 has settled that they share nothing:
    there it takes (1, 0) with no test.
    """
    for ca, cb in _COMBINATIONS:
        combined = _lincomb(ca, b2, cb, b3)
        try:
            if common_real_eigenvector([a, b1, combined], tol) is None:
                return ca, cb
        except AllIsotropic:
            continue
    raise NoCombinationFound(
        "no tested combination of the last two inputs removed the shared eigenvector")
