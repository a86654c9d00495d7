"""Finite control plan synthesis: reach eta from xi in at most three steps.

The basic move is a one-step solve: the step lands on eta exactly when
[B1 xi, B2 xi] u = eta - A xi has a solution, which fails only on the zero
lines of the pair's steering form q.  Off-line states steer in one step.  From
an on-line state every landing lies on one line, and the escape step takes its
best point in closed form: the drift alone when it clears, else the crossing
with q's principal axis.  Only when q vanishes on that whole line does a
second escape step come first.  Pairs whose q vanishes identically take a
two-step construction in a zero-bottom-row basis.  Every returned plan is
replayed once, by ``simulate``'s replay kernel under the ``verify_plan``
bound, and accepted only when it holds.

``plan_transfer`` solves, escapes and replays on plain floats: the kernels
``_one_step``, ``_escape``, ``_escape_moves`` and ``_canonical_steps`` take and
return floats, and the plan is the only value built.  Every one step answers
None on the escape's test, a zero clearance.  The public ``one_step``,
``escape_step`` and ``canonical_steer`` are thin wrappers over the same kernels.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import isfinite

from .classify import BilinearSystem, VerdictClass, _expand, analyze
from .mat2 import Mat2, Vec2, _similar, _solve2
from .quadform import LineSetKind, form_scale, gram_form, zero_lines
from .simulate import ControlPlan, _control_plan, _verify
from .structure import zero_bottom_row_pair


class NotControllablePair(RuntimeError):
    """The verdict forbids steering this system at all."""


class InExcludedSet(RuntimeError):
    """The initial state is on the excluded lines: its one-step clearance is zero."""


class ZeroState(ValueError):
    """Zero endpoints are outside the controllable state space."""


class EscapeFailed(RuntimeError):
    """No escape step left the singular set: no landing cleared the zero test,
    or the one step after it, or the canonical pre-step, found none."""


class NotCanonicalClass(RuntimeError):
    """The two-step construction needs a zero-bottom-row pair and a usable drift."""


class SingularSubstitution(RuntimeError):
    """The input substitution matrix of the two-step construction failed the
    determinant zero test; badly scaled independent inputs can cause it."""


def _require_pair(sys: BilinearSystem) -> None:
    if sys.m != 2:
        raise ValueError(f"expected a two-input system, got {sys.m} inputs; "
                         "apply the verdict's reduction first")


def one_step(sys: BilinearSystem, xi: Vec2, eta: Vec2):
    """Single-step control (u1, u2) landing on eta, or None when xi sits on
    the steering form's zero set, by the escape step's clearance test."""
    _require_pair(sys)
    return _one_step(sys, xi.x, xi.y, eta.x, eta.y)


def _one_step(sys: BilinearSystem, x: float, y: float, ex: float, ey: float):
    """:func:`one_step` from (x, y) to (ex, ey): [B1 xi, B2 xi] u = eta - A xi by
    Cramer's rule, or None where det / (form_scale |xi|^2) is zero; formed again
    from f xi to f eta, a power of two f, where det is not a normal float."""
    (b1, b2), a, scale = sys.inputs, sys.drift, sys._form_scale
    for rescaled in (False, True):
        c1x = b1.a11 * x + b1.a12 * y
        c1y = b1.a21 * x + b1.a22 * y
        c2x = b2.a11 * x + b2.a12 * y
        c2y = b2.a21 * x + b2.a22 * y
        rx, ry = ((ex - (a.a11 * x + a.a12 * y), ey - (a.a21 * x + a.a22 * y))
                  if a is not None else (ex, ey))
        # A non-finite drift image leaves a non-finite right-hand side.
        if not (isfinite(c1x) and isfinite(c1y) and isfinite(c2x) and isfinite(c2y)
                and isfinite(rx) and isfinite(ry)):
            raise ValueError(f"non-finite one-step system ({c1x}, {c2x}, {c1y}, {c2y}), "
                             f"({rx}, {ry})")
        d, n = c1x * c2y - c2x * c1y, math.hypot(x, y)
        if 2.0 ** -1022 <= abs(d) < math.inf or rescaled or scale == 0.0:
            break
        e = 1 - math.frexp(math.sqrt(scale) * max(abs(x), abs(y)))[1]
        f = math.ldexp(1.0, max(-1022, min(e, 1023)))
        x, y, ex, ey = x * f, y * f, ex * f, ey * f
    if d == 0.0 or scale == 0.0 or sys.tol.is_zero(d / scale / n / n):
        return None
    u1, u2 = (rx * c2y - c2x * ry) / d, (c1x * ry - rx * c1y) / d
    if not (isfinite(u1) and isfinite(u2)):
        raise ValueError(f"non-finite vector ({u1}, {u2})")
    return u1, u2


class _Steering:
    """What the escape step and the two-step construction know of a two-input
    system before any state is given: the drift's entries (zeros without
    drift), the inputs' norms, the steering form, its scale, zero lines and
    principal axis, and on first use the zero-bottom-row frame; built once per
    system, through ``BilinearSystem._steering``, with no reference back."""

    def __init__(self, sys: BilinearSystem):
        a, (b1, b2) = sys.drift, sys.inputs
        self.drift, self.inputs, self.tol = a, sys.inputs, sys.tol
        self.drift_entries = (a.a11, a.a12, a.a21, a.a22) if a is not None else (0.0,) * 4
        self.drift_norm = math.hypot(*self.drift_entries)
        self.form = q = gram_form(b1, b2)
        self.form_scale = form_scale(b1, b2)
        self.lines = zero_lines(q, sys.tol, scale=self.form_scale)
        self.input_norms = tuple(math.hypot(b.a11, b.a12, b.a21, b.a22) for b in sys.inputs)
        # The eigenvector of [[a, b/2], [b/2, c]] whose eigenvalue has the
        # larger magnitude: the direction of largest |q(z)| / |z|^2.
        theta = 0.5 * (math.atan2(q.b, q.a - q.c) + (math.pi if q.a + q.c < 0.0 else 0.0))
        self.axis = (math.cos(theta), math.sin(theta))

    def clears(self, x: float, y: float) -> bool:
        """Whether the clearance |q(l)| / (form_scale * |l|^2) of the finite
        l = (x, y) != 0 is not zero under the tolerance; taken on l / |l|_inf,
        so it cannot overflow and does not depend on the scale of l."""
        if self.form_scale == 0.0:
            return False   # |B1|_F |B2|_F underflows: so does every coefficient of q
        s, q = max(abs(x), abs(y)), self.form
        x, y = x / s, y / s
        return not self.tol.is_zero((q.a * x * x + q.b * x * y + q.c * y * y)
                                    / (self.form_scale * (x * x + y * y)))

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
        a_bar = _similar(p, self.drift, p_inv)
        f1 = _similar(p, b1, p_inv)
        f2 = _similar(p, b2, p_inv)
        a_scale = a_bar.frob()
        if self.tol.is_zero(a_bar.a21, a_scale):
            raise NotCanonicalClass("drift has no coupling into the decoupled coordinate")
        return ((p.a11, p.a12, p.a21, p.a22), (f1.a11, f2.a11, f1.a12, f2.a12),
                (a_bar.a11, a_bar.a12), a_bar.a21, a_bar.a22, a_scale)


_NO_ESCAPE = "no escape step cleared the singular set"


def escape_step(sys: BilinearSystem, xi: Vec2) -> tuple[tuple[float, float], Vec2]:
    """One control moving xi, a state on the steering form's zero set, off it.

    There B1 xi and B2 xi are parallel, so every landing is p + t c, with
    p = A xi (zero without drift), c the B_i xi of larger |B_i xi| / |B_i|_F,
    and u = t in c's slot.  The drift alone (u = 0) is taken when it clears,
    else the landing on the form's principal axis, of largest clearance
    |q(x)| / (form_scale |x|^2).  A landing clears when neither it, next to |M|_F |xi|
    for its step M, nor its clearance is zero under the tolerance."""
    _require_pair(sys)
    move = _escape(sys, xi.x, xi.y)
    if not move[3]:
        raise EscapeFailed(_NO_ESCAPE)
    return move[0], Vec2(move[1], move[2])


def _escape(sys: BilinearSystem, x: float, y: float):
    """The landing :func:`escape_step` picks from (x, y), as (u, lx, ly,
    clears), computed as the replay computes it; one that does not clear is p,
    or c when p is zero.  ValueError when an image or the landing overflows."""
    steering, tol = sys._steering, sys.tol
    (b1, b2), (a11, a12, a21, a22) = steering.inputs, steering.drift_entries
    px, py = a11 * x + a12 * y, a21 * x + a22 * y
    c1x, c1y = b1.a11 * x + b1.a12 * y, b1.a21 * x + b1.a22 * y
    c2x, c2y = b2.a11 * x + b2.a12 * y, b2.a21 * x + b2.a22 * y
    _finite(px, py, c1x, c1y, c2x, c2y)
    xn, pn = math.hypot(x, y), math.hypot(px, py)
    if pn != 0.0 and tol.is_zero(pn / steering.drift_norm / xn):
        pn = 0.0   # p is lost next to |A|_F |x|: escape as without drift
    if pn != 0.0 and steering.clears(px, py):
        return (0.0, 0.0), px, py, True
    n1, n2 = math.hypot(c1x, c1y), math.hypot(c2x, c2y)
    f1, f2 = steering.input_norms
    k, b, cx, cy, cn = (0, b1, c1x, c1y, n1) if n1 / f1 >= n2 / f2 else (1, b2, c2x, c2y, n2)
    if cn == 0.0:
        return (0.0, 0.0), px, py, False
    # Where p + t c crosses the axis (any t != 0 when p = 0; with p on c's
    # line, the origin, lost in round-off).  When c nearly lies on the axis
    # the crossing is far out, and the landing stops 2^-9 rad short.
    ex, ey = steering.axis
    cp, cc = px * ey - py * ex, cx * ey - cy * ex
    if pn == 0.0:
        t = 1.0
    elif abs(cp) / pn < 1024.0 * abs(cc) / cn:
        t = -cp / cc
    else:
        t = math.copysign(1024.0 * pn / cn, -cp * cc)
    m11, m12, m21, m22 = a11 + t * b.a11, a12 + t * b.a12, a21 + t * b.a21, a22 + t * b.a22
    lx, ly = m11 * x + m12 * y, m21 * x + m22 * y
    _finite(lx, ly)
    cleared = ((lx != 0.0 or ly != 0.0) and steering.clears(lx, ly) and not tol.is_zero(
        math.hypot(lx, ly) / math.hypot(m11, m12, m21, m22) / xn))
    if cleared or pn == 0.0:
        return ((t, 0.0) if k == 0 else (0.0, t)), lx, ly, cleared
    return (0.0, 0.0), px, py, False


def _escape_moves(sys: BilinearSystem, x: float, y: float) -> list:
    """The escape steps from (x, y), as (u, lx, ly): one, or two when no
    landing of the first clears, as when A and B map one zero line onto the other."""
    moves = []
    while len(moves) < 2:
        u, x, y, cleared = _escape(sys, x, y)
        moves.append((u, x, y))
        if cleared:
            return moves
    raise EscapeFailed(_NO_ESCAPE)


def _verified(sys: BilinearSystem, x: float, y: float, ex: float, ey: float,
              steps: list) -> ControlPlan:
    """The plan of ``steps`` from (x, y) to (ex, ey), replayed once and
    accepted under ``verify_plan``'s rule; its float controls, finite or the
    replay would have raised, need none of ``ControlPlan``'s checks."""
    ok, error = _verify(sys, x, y, ex, ey, steps)
    if not ok:
        raise RuntimeError(f"synthesized plan misses the target by {error}; "
                           "this is a bug, not a property of the system")
    return _control_plan(tuple(steps), error)


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


def _finite(*values: float) -> None:
    """ValueError, as ``Vec2`` raises it, unless all the floats are finite."""
    if not all(map(isfinite, values)):
        raise ValueError(f"non-finite vector {values}")


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
        # x2 is nonzero in both degenerate cases, so (0, c) restores them; c,
        # of the drift's size, must not turn the new A21 x1 + A22 x2 into zero.
        c = next((cc for cc in (a_scale, 2.0 * a_scale) if not tol.is_zero(
            (cc * a21 + a22 * a22) / (a_scale * abs(a21) + a22 * a22))), 2.0 * a_scale)
        bar_steps.append((0.0, c))
        x, y = c * y, a21 * x + a22 * y
        _finite(x, y)
    s = a21 * x + a22 * y
    n = math.hypot(x, y)
    if tol.is_zero(x, n) or tol.is_zero(s, a_scale * n):
        raise EscapeFailed("pre-step failed to clear the degenerate coordinates")
    t = ty - a22 * s
    # t is zero exactly when ty and a22 * s are, so the ratio is defined.
    if t != 0.0 and not tol.is_zero(t / (abs(ty) + abs(a22 * s))):
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
    escape step plus one step, or two escape steps plus one step when no
    landing of the first escape step clears, or the two-step zero-bottom-row
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
    if not verdict.reduction.is_identity():
        steps = [_expand(sys._control_layout, v1, v2) for v1, v2 in steps]
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
