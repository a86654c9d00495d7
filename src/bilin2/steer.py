"""Finite control plan synthesis: reach eta from xi in at most three steps.

The basic move is a one-step solve: the step lands on eta exactly when
[B1 xi, B2 xi] u = eta - A xi has a solution, which fails only on the zero
lines of the pair's steering form.  Off-line states steer in one step; on-line
states under a controllable verdict first take an escape step chosen from a
fixed candidate list.  When every candidate lands back on the zero lines, a
candidate move and a second escape step come first (escape + escape + one
step).  Pairs whose steering form vanishes identically are handled by a
dedicated two-step construction in a zero-bottom-row basis.  Every returned
plan is replayed once, by ``simulate``'s replay kernel under the
``verify_plan`` bound, and accepted only when it holds.

``plan_transfer`` solves, escapes and replays on plain floats: the kernels
``_one_step``, ``_landings``/``_escape``, ``_escape_moves`` and
``_canonical_steps`` take and return floats, and the plan is the only value
built.  A singular one-step system is a zero test that answers None.  The
public ``one_step``, ``escape_step`` and ``canonical_steer`` are thin
wrappers over the same kernels.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import isfinite

from .classify import BilinearSystem, SystemKind, VerdictClass, analyze, expand_controls
from .mat2 import Mat2, Vec2, _solve2
from .quadform import LineSetKind, form_scale, gram_form, zero_lines
from .simulate import ControlPlan, _verify
from .structure import zero_bottom_row_pair


class NotControllablePair(RuntimeError):
    """The verdict forbids steering this system at all."""


class InExcludedSet(RuntimeError):
    """The initial state lies on the excluded lines of a nearly controllable system."""


class ZeroState(ValueError):
    """Zero endpoints are outside the controllable state space."""


class EscapeFailed(RuntimeError):
    """No candidate escape control left the singular set with enough margin."""


class NotCanonicalClass(RuntimeError):
    """The two-step construction needs a zero-bottom-row pair and a usable drift."""


class SingularSubstitution(RuntimeError):
    """The input substitution matrix of the two-step construction failed the
    determinant zero test; badly scaled independent inputs can cause it."""


ESCAPE_CANDIDATES_DRIFT = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0))
ESCAPE_CANDIDATES_DRIFTLESS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (1.0, -1.0))
ESCAPE_MARGIN_FACTOR = 1e3


def _require_pair(sys: BilinearSystem) -> None:
    if sys.m != 2:
        raise ValueError(f"expected a two-input system, got {sys.m} inputs; "
                         "apply the verdict's reduction first")


def one_step(sys: BilinearSystem, xi: Vec2, eta: Vec2):
    """Single-step control (u1, u2) landing on eta, or None when xi sits on
    the steering form's zero set."""
    _require_pair(sys)
    return _one_step(sys, xi.x, xi.y, eta.x, eta.y)


def _one_step(sys: BilinearSystem, x: float, y: float, ex: float, ey: float):
    """:func:`one_step` from (x, y) to (ex, ey): the system
    [B1 xi, B2 xi] u = eta - A xi solved by Cramer's rule on floats."""
    b1, b2 = sys.inputs
    c1x = b1.a11 * x + b1.a12 * y
    c1y = b1.a21 * x + b1.a22 * y
    c2x = b2.a11 * x + b2.a12 * y
    c2y = b2.a21 * x + b2.a22 * y
    a = sys.drift
    if a is not None:
        rx = ex - (a.a11 * x + a.a12 * y)
        ry = ey - (a.a21 * x + a.a22 * y)
    else:
        rx, ry = ex, ey
    # A non-finite drift image leaves a non-finite right-hand side.
    if not (isfinite(c1x) and isfinite(c1y) and isfinite(c2x) and isfinite(c2y)
            and isfinite(rx) and isfinite(ry)):
        raise ValueError(f"non-finite one-step system ({c1x}, {c2x}, {c1y}, {c2y}), "
                         f"({rx}, {ry})")
    return _solve2(c1x, c2x, c1y, c2y, rx, ry, sys.tol)


class _Steering:
    """What escape_step and the two-step construction know of a two-input
    system before any state is given: the steering form, its zero lines and
    the candidate controls with the entries of their step matrices, and on
    first use the zero-bottom-row frame.
    Built once per system, through ``BilinearSystem._steering``, and kept on
    it; it holds no reference back to the system."""

    def __init__(self, sys: BilinearSystem):
        self.drift, self.inputs, self.tol = sys.drift, sys.inputs, sys.tol
        b1, b2 = sys.inputs
        self.form = gram_form(b1, b2)
        self.form_scale = form_scale(b1, b2)
        self.lines = zero_lines(self.form, sys.tol, scale=self.form_scale)
        candidates = (ESCAPE_CANDIDATES_DRIFT if sys.kind is SystemKind.WITH_DRIFT
                      else ESCAPE_CANDIDATES_DRIFTLESS)
        steps = []
        for u in candidates:
            m = u[0] * b1 + u[1] * b2
            if sys.drift is not None:
                m = sys.drift + m
            steps.append((u, m.a11, m.a12, m.a21, m.a22))
        self.candidate_steps = tuple(steps)

    @cached_property
    def canonical(self) -> tuple:
        """(P, M_sub, offset, A21, A22, |A-bar|_F) of the zero-bottom-row basis,
        with P and M_sub as their entries in row order and offset as a pair,
        or NotCanonicalClass (not kept) when the pair has none."""
        if self.drift is None:
            raise NotCanonicalClass("the two-step construction needs a drift term")
        b1, b2 = self.inputs
        p = zero_bottom_row_pair(b1, b2, self.tol)
        if p is None:
            raise NotCanonicalClass("inputs do not share a left null direction")
        p_inv = Mat2(p.a11, p.a21, p.a12, p.a22)  # rotation: inverse is transpose
        a_bar = p @ self.drift @ p_inv
        f1 = p @ b1 @ p_inv
        f2 = p @ b2 @ p_inv
        a_scale = a_bar.frob()
        if self.tol.is_zero(a_bar.a21, a_scale):
            raise NotCanonicalClass("drift has no coupling into the decoupled coordinate")
        return ((p.a11, p.a12, p.a21, p.a22), (f1.a11, f2.a11, f1.a12, f2.a12),
                (a_bar.a11, a_bar.a12), a_bar.a21, a_bar.a22, a_scale)


_NO_ESCAPE = "no escape candidate cleared the singular-set margin"


def escape_step(sys: BilinearSystem, xi: Vec2) -> tuple[tuple[float, float], Vec2]:
    """One control moving xi off the steering form's zero set.

    Candidates are a fixed list that no single line (or affine line, with
    drift) can swallow.  A candidate survives when the form's magnitude at the
    landed state clears ESCAPE_MARGIN_FACTOR times the zero threshold at that
    state's scale; among survivors the largest normalized magnitude
    |q(x)| / |x|^2 wins, so the choice is insensitive to the landing's size.
    """
    _require_pair(sys)
    best = _escape(sys, _landings(sys._steering, xi.x, xi.y))
    if best is None:
        raise EscapeFailed(_NO_ESCAPE)
    u, lx, ly = best
    return u, Vec2(lx, ly)


def _landings(steering: _Steering, x: float, y: float) -> list:
    """(u, lx, ly) for each escape candidate u whose step from (x, y) lands
    on a nonzero (lx, ly); ValueError at the first non-finite landing."""
    out = []
    for u, m11, m12, m21, m22 in steering.candidate_steps:
        lx = m11 * x + m12 * y
        ly = m21 * x + m22 * y
        if not (isfinite(lx) and isfinite(ly)):
            raise ValueError(f"non-finite escape landing ({lx}, {ly})")
        if lx * lx + ly * ly != 0.0:
            out.append((u, lx, ly))
    return out


def _escape(sys: BilinearSystem, landings: list):
    """The landing :func:`escape_step` picks, or None when none survives."""
    steering = sys._steering
    q, fscale, tol = steering.form, steering.form_scale, sys.tol
    a, b, c = q.a, q.b, q.c
    best, best_score = None, 0.0
    for landing in landings:
        _, x, y = landing
        nrm2 = x * x + y * y
        value = abs(a * x * x + b * x * y + c * y * y)
        margin = ESCAPE_MARGIN_FACTOR * tol.threshold(fscale * nrm2)
        if value >= margin and value / nrm2 > best_score:
            best, best_score = landing, value / nrm2
    return best


def _escape_moves(sys: BilinearSystem, x: float, y: float) -> list:
    """One escape step from (x, y), as (u, lx, ly); or, when every candidate
    lands back on the zero lines (on some pairs each image of one zero line
    lies on the other), the first candidate's move followed by an escape step
    from where it landed."""
    steering = sys._steering
    landings = _landings(steering, x, y)
    best = _escape(sys, landings)
    if best is not None:
        return [best]
    if landings:
        move = landings[0]
        best = _escape(sys, _landings(steering, move[1], move[2]))
        if best is not None:
            return [move, best]
    raise EscapeFailed(_NO_ESCAPE)


def _verified(sys: BilinearSystem, x: float, y: float, ex: float, ey: float,
              steps: list) -> ControlPlan:
    """The plan of ``steps`` from (x, y) to (ex, ey), replayed once and
    accepted under ``verify_plan``'s rule."""
    ok, error = _verify(sys, x, y, ex, ey, steps)
    if not ok:
        raise RuntimeError(f"synthesized plan misses the target by {error}; "
                           "this is a bug, not a property of the system")
    return ControlPlan(tuple(steps), error)


def canonical_steer(sys: BilinearSystem, xi: Vec2, eta: Vec2) -> ControlPlan:
    """Two-step (three with a degeneracy pre-step) transfer for pairs whose
    steering form vanishes identically.

    Such a pair shares a left null direction; in the rotated basis both inputs
    have zero bottom rows, the substituted top-row controls (v1, v2) act as
    v-bar = M_sub v + offset, and the state recursion decouples:

        x1(k+1) = v1_bar(k) x1(k) + v2_bar(k) x2(k),  x2(k+1) = A21 x1(k) + A22 x2(k).

    With A21 nonzero the second coordinate of the target is placed first and
    the first coordinate second.  When the transformed state starts with
    x1 ~ 0 or A21 x1 + A22 x2 ~ 0, a pre-step (0, c) repairs both degeneracies.
    """
    _require_pair(sys)
    x, y, ex, ey = xi.x, xi.y, eta.x, eta.y
    return _verified(sys, x, y, ex, ey, _canonical_steps(sys, x, y, ex, ey))


def _finite(x: float, y: float) -> None:
    """ValueError, as ``Vec2`` raises it, unless both floats are finite."""
    if not (isfinite(x) and isfinite(y)):
        raise ValueError(f"non-finite vector ({x}, {y})")


def _canonical_steps(sys: BilinearSystem, x: float, y: float, ex: float, ey: float) -> list:
    """The controls of :func:`canonical_steer` from (x, y) to (ex, ey), not
    yet replayed.  Every state and bar step is a pair of floats, checked
    finite where the construction would have built it as a ``Vec2``."""
    tol = sys.tol
    (p11, p12, p21, p22), m_sub, (o1, o2), a21, a22, a_scale = sys._steering.canonical

    x, y = p11 * x + p12 * y, p21 * x + p22 * y
    _finite(x, y)
    tx, ty = p11 * ex + p12 * ey, p21 * ex + p22 * ey
    _finite(tx, ty)
    state_scale = math.hypot(x, y)
    if tol.is_zero(state_scale):
        raise ZeroState("cannot steer from the zero state")
    bar_steps = []
    if tol.is_zero(x, state_scale) or tol.is_zero(a21 * x + a22 * y, a_scale * state_scale):
        # x2 is nonzero in both degenerate cases, so (0, c) restores them;
        # c must avoid turning the new A21 x1 + A22 x2 into zero again.
        c = next((cc for cc in (1.0, 2.0)
                  if not tol.is_zero(cc * a21 + a22 * a22, abs(a21) + a22 * a22)), 2.0)
        bar_steps.append((0.0, c))
        x, y = c * y, a21 * x + a22 * y
        _finite(x, y)
    s = a21 * x + a22 * y
    n = math.hypot(x, y)
    if tol.is_zero(x, n) or tol.is_zero(s, a_scale * n):
        raise EscapeFailed("pre-step failed to clear the degenerate coordinates")
    t = ty - a22 * s
    if not tol.is_zero(t, abs(ty) + abs(a22 * s)):
        v = t / (a21 * x)
        _finite(v, 0.0)
        bar_steps.append((v, 0.0))
        v = a21 * tx / t
        _finite(v, 0.0)
        bar_steps.append((v, 0.0))
    else:
        bar_steps.append((0.0, 0.0))
        v = tx / s
        _finite(0.0, v)
        bar_steps.append((0.0, v))
    steps = []
    for v1, v2 in bar_steps:
        r1, r2 = v1 - o1, v2 - o2
        _finite(r1, r2)
        u = _solve2(*m_sub, r1, r2, tol)
        if u is None:
            raise SingularSubstitution("input substitution matrix is singular")
        steps.append(u)
    return steps


def plan_transfer(sys: BilinearSystem, xi: Vec2, eta: Vec2) -> ControlPlan:
    """Plan of at most three steps from xi to eta, honoring the verdict.

    Controllable: both endpoints must be nonzero; steering is one step, or an
    escape step plus one step, or two escape steps plus one step when every
    image of xi lands back on the singular set, or the two-step zero-bottom-row
    construction.  Nearly controllable: one step from any state off the
    excluded lines, to any target including zero.  Uncontrollable: refused
    outright.  A returned plan has been replayed once and passed
    ``verify_plan``; ``plan.residual`` is that replay's landing error.
    """
    verdict = analyze(sys)
    if verdict.klass is VerdictClass.UNCONTROLLABLE:
        raise NotControllablePair("system is uncontrollable; no transfers are synthesized")
    x, y, ex, ey = xi.x, xi.y, eta.x, eta.y
    steps = _pair_steps(sys, verdict.klass, x, y, ex, ey)
    red = verdict.reduction
    if not red.is_identity():
        steps = [expand_controls(red, sys.m, v1, v2) for v1, v2 in steps]
    return _verified(sys, x, y, ex, ey, steps)


def _pair_steps(sys: BilinearSystem, klass: VerdictClass, x: float, y: float,
                ex: float, ey: float) -> list:
    """The controls of the effective pair that :func:`plan_transfer` replays,
    for a verdict other than uncontrollable."""
    eff = sys._effective
    if klass is VerdictClass.NEARLY_CONTROLLABLE:
        u = _one_step(eff, x, y, ex, ey)
        if u is None:
            raise InExcludedSet("initial state in excluded set")
        return [u]
    tol = sys.tol
    if tol.is_zero(math.hypot(x, y)) or tol.is_zero(math.hypot(ex, ey)):
        raise ZeroState("controllable transfers connect nonzero states only")
    if eff._steering.lines.kind is LineSetKind.ALL_OF_PLANE:
        return _canonical_steps(eff, x, y, ex, ey)
    u = _one_step(eff, x, y, ex, ey)
    if u is not None:
        return [u]
    moves = _escape_moves(eff, x, y)
    _, lx, ly = moves[-1]
    u = _one_step(eff, lx, ly, ex, ey)
    if u is None:
        raise EscapeFailed("escape landed back on the singular set")
    return [v for v, _, _ in moves] + [u]
