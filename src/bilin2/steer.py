"""Finite control plan synthesis: reach eta from xi in at most three steps.

The basic move is a one-step solve: the step lands on eta exactly when
[B1 xi, B2 xi] u = eta - A xi has a solution, which fails only on the zero
lines of the pair's steering form q.  Off-line states steer in one step.  From
an on-line state every landing lies on one line, and the escape step takes its
best point in closed form: the drift alone when it clears, else the crossing
with q's principal axis.  Only when q vanishes on that whole line does a
second escape step come first.  Pairs whose q vanishes on its principal axis,
and so on the whole plane, take a two-step construction in a zero-bottom-row
basis.  Every returned plan is replayed once, by ``simulate``'s replay kernel
under the ``verify_plan`` bound, and accepted only when it holds.

``plan_transfer`` solves, escapes and replays on plain floats: the kernels
``_one_step``, ``_escape``, ``_escape_moves`` and ``_canonical_steps`` take
the system's steering record and floats, and the plan is the only value
built.  One test decides every landing and the route: whether the one step
from the landing, or from q's axis, exists.  The public ``one_step``,
``escape_step`` and ``canonical_steer`` are thin wrappers over the same kernels.
"""

from __future__ import annotations

import math
from math import isfinite

from .classify import BilinearSystem, VerdictClass, _expander, analyze, apply_reduction
from .mat2 import Mat2, Vec2, _cramer, _det2, _finite, _memo, _pow2_exponent, _similar
from .quadform import gram_form
from .simulate import ControlPlan, _control_plan, _verify
from .structure import zero_bottom_row_pair


class NotControllablePair(RuntimeError):
    """The verdict forbids steering this system at all."""


class InExcludedSet(RuntimeError):
    """The initial state is on the excluded lines: its one-step clearance is zero."""


class ZeroState(ValueError):
    """Zero endpoints are outside the controllable state space."""


class EscapeFailed(RuntimeError):
    """No escape step left the singular set: the one step exists from no
    landing, or the canonical pre-step did not clear its degenerate coordinates."""


class NotCanonicalClass(RuntimeError):
    """The two-step construction needs a zero-bottom-row pair and a usable drift."""


class SingularSubstitution(RuntimeError):
    """The two-step construction's input substitution matrix failed its det zero
    test, which near the threshold can differ from the independence test by about sqrt(2)."""


def _pair(sys: BilinearSystem) -> _Steering:
    """The steering record of a two-input system, which reads no verdict."""
    if sys.m != 2:
        raise ValueError(f"expected a two-input system, got {sys.m} inputs; "
                         "apply the verdict's reduction first")
    return _steering(sys)


def one_step(sys: BilinearSystem, xi: Vec2, eta: Vec2):
    """Single-step control (u1, u2) landing on eta, or None when xi sits on
    the steering form's zero set, by the escape step's clearance test."""
    return _one_step(_pair(sys), xi.x, xi.y, eta.x, eta.y)


def _one_step(st: _Steering, x: float, y: float, ex: float, ey: float,
              rescaled: bool = False):
    """:func:`one_step` from (x, y) to (ex, ey): [B1 xi, B2 xi] u = eta - A xi by
    Cramer's rule, or None where det / (form_scale |xi|^2) is zero; formed again
    from f xi to f eta, f the power of two that puts sqrt(form_scale) |xi|_max
    in [1, 2), where det is not a normal float (if f != 1) or u is not finite."""
    (b1, b2), a, scale = st.inputs, st.drift, st.scale
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
    d = c1x * c2y - c2x * c1y
    if not (2.0 ** -1022 <= abs(d) < math.inf or rescaled or scale == 0.0):
        e = _pow2_exponent(math.sqrt(scale) * max(abs(x), abs(y)), 1)
        if e != 0:
            f = math.ldexp(1.0, e)
            return _one_step(st, x * f, y * f, ex * f, ey * f, True)
    n = math.hypot(x, y)
    if d == 0.0 or scale == 0.0 or st.tol.is_zero(d / scale / n / n):
        return None
    u1, u2 = (rx * c2y - c2x * ry) / d, (c1x * ry - rx * c1y) / d
    if isfinite(u1) and isfinite(u2):
        return u1, u2
    if rescaled:
        raise ValueError(f"non-finite vector ({u1}, {u2})")
    f = math.ldexp(1.0, _pow2_exponent(math.sqrt(scale) * max(abs(x), abs(y)), 1))
    return _one_step(st, x * f, y * f, ex * f, ey * f, True)


class _Steering:
    """What the plan path knows of a system before any state is given, built
    once per system by :func:`_steering`: the effective pair (a pair itself,
    read with no verdict, else what its verdict's reduction leaves),
    ``expand`` of its controls to the system's (None for a pair), the drift's
    entries (zeros without drift) and norm, the inputs' norms and the
    clearance scale |B1|_F |B2|_F; and, built on first use by the
    controllable route alone, the route and the zero-bottom-row frame."""

    # Slots keep the kernels' reads fast once ``_memo`` has filled __dict__.
    __slots__ = ("drift", "inputs", "tol", "expand", "drift_entries", "drift_norm",
                 "input_norms", "scale", "__dict__")

    def __init__(self, sys: BilinearSystem):
        pair, self.expand = sys, None
        if sys.m != 2:
            red = analyze(sys).reduction
            pair, self.expand = apply_reduction(sys, red), _expander(red, sys.m)
        a = pair.drift
        self.drift, self.inputs, self.tol = a, pair.inputs, pair.tol
        self.drift_entries = (a.a11, a.a12, a.a21, a.a22) if a is not None else (0.0,) * 4
        self.drift_norm = math.hypot(*self.drift_entries)
        # Each norm is the member's Frobenius norm, finite as its system checked.
        f1, f2 = self.input_norms = tuple(math.hypot(b.a11, b.a12, b.a21, b.a22)
                                          for b in pair.inputs)
        self.scale = f1 * f2

    @_memo
    def route(self) -> tuple:
        """(q's principal axis, whether the route is the two-step construction):
        it is, exactly where the one step from the axis, where |q(z)| / |z|^2 is
        largest, to the axis's own drift image does not exist.  Under that one
        clearance test q vanishes on the plane exactly where it does on its
        axis, and the step, u = 0 where it exists, reads no drift."""
        q = gram_form(*self.inputs)
        # The eigenvector of [[a, b/2], [b/2, c]] of larger |eigenvalue|.
        theta = 0.5 * (math.atan2(q.b, q.a - q.c) + (math.pi if q.a + q.c < 0.0 else 0.0))
        x, y = axis = (math.cos(theta), math.sin(theta))
        e = self.drift_entries
        return axis, _one_step(self, x, y, e[0] * x + e[1] * y, e[2] * x + e[3] * y) is None

    @_memo
    def canonical(self) -> tuple:
        """(P, M_sub, offset, A21, A22, |A-bar|_F) of the zero-bottom-row basis:
        P's entries in row order, M_sub as ``_det2`` gives it (None where
        singular), offset a pair; or NotCanonicalClass (not kept) if none.
        The route comes first, as on the plan path, and so do its refusals."""
        self.route
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
        if a_bar.a21 == 0.0 or self.tol.is_zero(a_bar.a21 / a_scale):
            raise NotCanonicalClass("drift has no coupling into the decoupled coordinate")
        return ((p.a11, p.a12, p.a21, p.a22), _det2(f1.a11, f2.a11, f1.a12, f2.a12, self.tol),
                (a_bar.a11, a_bar.a12), a_bar.a21, a_bar.a22, a_scale)


def _steering(sys: BilinearSystem) -> _Steering:
    """The steering record of sys, built on first use and kept in its ``__dict__``."""
    return sys.__dict__.get("_steering") or sys.__dict__.setdefault("_steering", _Steering(sys))


_NO_ESCAPE = "no escape step cleared the singular set"


def escape_step(sys: BilinearSystem, xi: Vec2) -> tuple[tuple[float, float], Vec2]:
    """One control moving xi, a state on the steering form's zero set, off it.

    There B1 xi and B2 xi are parallel, so every landing is p + t c, with
    p = A xi (zero without drift), c the B_i xi of larger |B_i xi| / |B_i|_F,
    and u = t in c's slot.  The drift alone (u = 0) is taken when it clears,
    else the landing on the form's principal axis, of largest clearance
    |q(x)| / (form_scale |x|^2).  A landing clears when it is not zero next to
    |M|_F |xi| for its step M, and the one step from it exists: here the one
    step to the zero target, which exists exactly where one to any target does."""
    u, lx, ly, v = _escape(_pair(sys), xi.x, xi.y, 0.0, 0.0)
    if v is None:
        raise EscapeFailed(_NO_ESCAPE)
    return u, Vec2(lx, ly)


def _escape(st: _Steering, x: float, y: float, tx: float, ty: float):
    """The landing :func:`escape_step` picks from (x, y), as (u, lx, ly, v), as
    the replay computes it, with v the one step from it to (tx, ty); where no
    landing clears or t is not finite, v is None and the landing is p, or c's
    when p is zero.  ValueError when an image, the landing or v overflows."""
    (ex, ey), _ = st.route
    (b1, b2), (a11, a12, a21, a22), tol = st.inputs, st.drift_entries, st.tol
    px, py = a11 * x + a12 * y, a21 * x + a22 * y
    c1x, c1y = b1.a11 * x + b1.a12 * y, b1.a21 * x + b1.a22 * y
    c2x, c2y = b2.a11 * x + b2.a12 * y, b2.a21 * x + b2.a22 * y
    _finite(px, py, c1x, c1y, c2x, c2y)
    xn, pn = math.hypot(x, y), math.hypot(px, py)
    if pn != 0.0 and tol.is_zero(pn / st.drift_norm / xn):
        pn = 0.0   # p is lost next to |A|_F |x|: escape as without drift
    if pn != 0.0:
        v = _one_step(st, px, py, tx, ty)
        if v is not None:
            return (0.0, 0.0), px, py, v
    n1, n2 = math.hypot(c1x, c1y), math.hypot(c2x, c2y)
    f1, f2 = st.input_norms
    k, b, cx, cy, cn = (0, b1, c1x, c1y, n1) if n1 / f1 >= n2 / f2 else (1, b2, c2x, c2y, n2)
    if cn == 0.0:
        return (0.0, 0.0), px, py, None
    # Where p + t c crosses the axis (any t != 0 when p = 0; with p on c's
    # line, the origin, lost in round-off).  When c nearly lies on the axis
    # the crossing is far out, and the landing stops 2^-9 rad short.
    cp, cc = px * ey - py * ex, cx * ey - cy * ex
    if pn == 0.0:
        t = 1.0
    elif abs(cp) / pn < 1024.0 * abs(cc) / cn:
        t = -cp / cc
    else:
        t = math.copysign(1024.0 * pn / cn, -cp * cc)
    if not isfinite(t):   # c is too small next to p for any landing near the axis
        return (0.0, 0.0), px, py, None
    m11, m12, m21, m22 = a11 + t * b.a11, a12 + t * b.a12, a21 + t * b.a21, a22 + t * b.a22
    lx, ly = m11 * x + m12 * y, m21 * x + m22 * y
    _finite(lx, ly)
    v = None
    if (lx != 0.0 or ly != 0.0) and not tol.is_zero(
            math.hypot(lx, ly) / math.hypot(m11, m12, m21, m22) / xn):
        v = _one_step(st, lx, ly, tx, ty)
    if v is not None or pn == 0.0:
        return ((t, 0.0) if k == 0 else (0.0, t)), lx, ly, v
    return (0.0, 0.0), px, py, None


def _escape_moves(st: _Steering, x: float, y: float, tx: float, ty: float) -> list:
    """The controls of the escape steps from (x, y), followed by the one step
    to (tx, ty): one escape step, or two when no landing of the first clears,
    as when A and B map one zero line onto the other."""
    moves = []
    while len(moves) < 2:
        u, x, y, v = _escape(st, x, y, tx, ty)
        moves.append(u)
        if v is not None:
            return moves + [v]
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
    st, x, y, ex, ey = _pair(sys), xi.x, xi.y, eta.x, eta.y
    return _verified(sys, x, y, ex, ey, _canonical_steps(st, x, y, ex, ey))


def _canonical_steps(st: _Steering, x: float, y: float, ex: float, ey: float) -> list:
    """The controls of :func:`canonical_steer` from (x, y) to (ex, ey), not
    yet replayed.  Every state and bar step is a pair of floats, checked
    finite where the construction would have built it as a ``Vec2``."""
    tol = st.tol
    (p11, p12, p21, p22), m_sub, (o1, o2), a21, a22, a_scale = st.canonical

    x, y = p11 * x + p12 * y, p21 * x + p22 * y
    _finite(x, y)
    tx, ty = p11 * ex + p12 * ey, p21 * ex + p22 * ey
    _finite(tx, ty)
    state_scale = math.hypot(x, y)
    if tol.is_zero(state_scale):
        raise ZeroState("cannot steer from the zero state")
    bar_steps = []
    if tol.is_zero(x / state_scale) or tol.is_zero((a21 * x + a22 * y) / a_scale / state_scale):
        # x2 is nonzero in both degenerate cases, so (0, c) restores them; c,
        # of the drift's size, must not turn the new A21 x1 + A22 x2 into zero.
        c = next((cc for cc in (a_scale, 2.0 * a_scale) if not tol.is_zero(
            (cc * a21 + a22 * a22) / (a_scale * abs(a21) + a22 * a22))), 2.0 * a_scale)
        bar_steps.append((0.0, c))
        x, y = c * y, a21 * x + a22 * y
        _finite(x, y)
    s = a21 * x + a22 * y
    n = math.hypot(x, y)
    if x == 0.0 or tol.is_zero(x / n) or tol.is_zero(s / a_scale / n):
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
        if m_sub is None:
            raise SingularSubstitution("input substitution matrix is singular")
        steps.append(_cramer(m_sub, r1, r2))
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
    klass = analyze(sys).klass
    if klass is VerdictClass.UNCONTROLLABLE:
        raise NotControllablePair("system is uncontrollable; no transfers are synthesized")
    st, x, y, ex, ey = _steering(sys), xi.x, xi.y, eta.x, eta.y
    if klass is VerdictClass.NEARLY_CONTROLLABLE:
        u = _one_step(st, x, y, ex, ey)
        if u is None:
            raise InExcludedSet("initial state in excluded set")
        steps = [u]
    elif st.tol.is_zero(math.hypot(x, y)) or st.tol.is_zero(math.hypot(ex, ey)):
        raise ZeroState("controllable transfers connect nonzero states only")
    elif st.route[1]:
        steps = _canonical_steps(st, x, y, ex, ey)
    else:
        u = _one_step(st, x, y, ex, ey)
        steps = [u] if u is not None else _escape_moves(st, x, y, ex, ey)
    if st.expand is not None:
        steps = [st.expand(v1, v2) for v1, v2 in steps]
    return _verified(sys, x, y, ex, ey, steps)
