"""Finite control plan synthesis: reach eta from xi in at most three steps.

The basic move is a one-step solve: the step lands on eta exactly when
[B1 xi, B2 xi] u = eta - A xi has a solution, which fails only on the zero
lines of the pair's steering form.  Off-line states steer in one step; on-line
states under a controllable verdict first take an escape step chosen from a
fixed candidate list.  When every candidate lands back on the zero lines, a
candidate move and a second escape step come first (escape + escape + one
step).  Pairs whose steering form vanishes identically are handled by a
dedicated two-step construction in a zero-bottom-row basis.  Every returned
plan is replayed once, through ``simulate.verify_plan``, and accepted only
under its bound.
"""

from __future__ import annotations

from functools import cached_property

from .classify import BilinearSystem, SystemKind, VerdictClass, analyze, expand_controls
from .mat2 import Mat2, SingularMatrix, Vec2, solve2
from .quadform import LineSetKind, form_scale, gram_form, zero_lines
from .simulate import ControlPlan, verify_plan
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
    b1, b2 = sys.inputs
    c1 = b1 @ xi
    c2 = b2 @ xi
    rhs = eta - (sys.drift @ xi) if sys.drift is not None else eta
    try:
        u = solve2(Mat2(c1.x, c2.x, c1.y, c2.y), rhs, sys.tol)
    except SingularMatrix:
        return None
    return (u.x, u.y)


class _Steering:
    """What escape_step and the two-step construction know of a two-input
    system before any state is given: the steering form, its zero lines and
    the candidate step matrices, and on first use the zero-bottom-row frame.
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
            steps.append((u, m))
        self.candidate_steps = tuple(steps)

    @cached_property
    def canonical(self) -> tuple[Mat2, Mat2, Vec2, float, float, float]:
        """(P, M_sub, offset, A21, A22, |A-bar|_F) of the zero-bottom-row basis,
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
        m_sub = Mat2(f1.a11, f2.a11, f1.a12, f2.a12)
        offset = Vec2(a_bar.a11, a_bar.a12)
        a_scale = a_bar.frob()
        if self.tol.is_zero(a_bar.a21, a_scale):
            raise NotCanonicalClass("drift has no coupling into the decoupled coordinate")
        return p, m_sub, offset, a_bar.a21, a_bar.a22, a_scale


def escape_step(sys: BilinearSystem, xi: Vec2) -> tuple[tuple[float, float], Vec2]:
    """One control moving xi off the steering form's zero set.

    Candidates are a fixed list that no single line (or affine line, with
    drift) can swallow.  A candidate survives when the form's magnitude at the
    landed state clears ESCAPE_MARGIN_FACTOR times the zero threshold at that
    state's scale; among survivors the largest normalized magnitude
    |q(x)| / |x|^2 wins, so the choice is insensitive to the landing's size.
    """
    _require_pair(sys)
    steering = sys._steering
    q, fscale = steering.form, steering.form_scale
    best, best_score = None, 0.0
    for u, x in _landings(steering, xi):
        nrm2 = x.x * x.x + x.y * x.y
        value = abs(q.evaluate(x))
        margin = ESCAPE_MARGIN_FACTOR * sys.tol.threshold(fscale * nrm2)
        if value >= margin and value / nrm2 > best_score:
            best, best_score = (u, x), value / nrm2
    if best is None:
        raise EscapeFailed("no escape candidate cleared the singular-set margin")
    return best


def _landings(steering: _Steering, xi: Vec2):
    """(u, x) for each escape candidate u whose step from xi lands on a nonzero x."""
    for u, m in steering.candidate_steps:
        x = m @ xi
        if x.x * x.x + x.y * x.y != 0.0:
            yield u, x


def _escape_moves(sys: BilinearSystem, xi: Vec2) -> list:
    """One escape step; or, when every candidate lands back on the zero lines
    (on some pairs each image of one zero line lies on the other), the first
    candidate's move followed by an escape step from where it landed."""
    try:
        return [escape_step(sys, xi)]
    except EscapeFailed:
        move = next(_landings(sys._steering, xi), None)
        if move is None:
            raise
        return [move, escape_step(sys, move[1])]


def _verified(sys: BilinearSystem, xi: Vec2, eta: Vec2, steps) -> ControlPlan:
    plan = ControlPlan(tuple(steps))
    ok, error = verify_plan(sys, xi, eta, plan)
    if not ok:
        raise RuntimeError(f"synthesized plan misses the target by {error}; "
                           "this is a bug, not a property of the system")
    return ControlPlan(plan.steps, error)


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
    return _verified(sys, xi, eta, _canonical_steps(sys, xi, eta))


def _canonical_steps(sys: BilinearSystem, xi: Vec2, eta: Vec2) -> list:
    """The controls of :func:`canonical_steer`, not yet replayed."""
    _require_pair(sys)
    tol = sys.tol
    p, m_sub, offset, a21, a22, a_scale = sys._steering.canonical

    x = p @ xi
    target = p @ eta
    state_scale = x.norm()
    if tol.is_zero(state_scale):
        raise ZeroState("cannot steer from the zero state")
    bar_steps = []
    if tol.is_zero(x.x, state_scale) or tol.is_zero(a21 * x.x + a22 * x.y, a_scale * state_scale):
        # x2 is nonzero in both degenerate cases, so (0, c) restores them;
        # c must avoid turning the new A21 x1 + A22 x2 into zero again.
        c = next((cc for cc in (1.0, 2.0)
                  if not tol.is_zero(cc * a21 + a22 * a22, abs(a21) + a22 * a22)), 2.0)
        bar_steps.append(Vec2(0.0, c))
        x = Vec2(c * x.y, a21 * x.x + a22 * x.y)
    s = a21 * x.x + a22 * x.y
    if tol.is_zero(x.x, x.norm()) or tol.is_zero(s, a_scale * x.norm()):
        raise EscapeFailed("pre-step failed to clear the degenerate coordinates")
    t = target.y - a22 * s
    if not tol.is_zero(t, abs(target.y) + abs(a22 * s)):
        bar_steps.append(Vec2(t / (a21 * x.x), 0.0))
        bar_steps.append(Vec2(a21 * target.x / t, 0.0))
    else:
        bar_steps.append(Vec2(0.0, 0.0))
        bar_steps.append(Vec2(0.0, target.x / s))
    try:
        return [solve2(m_sub, vb - offset, tol).as_tuple() for vb in bar_steps]
    except SingularMatrix as exc:
        raise SingularSubstitution("input substitution matrix is singular") from exc


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
    eff = sys._effective

    def expand(u):
        return expand_controls(verdict.reduction, sys.m, u[0], u[1])

    if verdict.klass is VerdictClass.NEARLY_CONTROLLABLE:
        u = one_step(eff, xi, eta)
        if u is None:
            raise InExcludedSet("initial state in excluded set")
        return _verified(sys, xi, eta, [expand(u)])

    if sys.tol.is_zero(xi.norm()) or sys.tol.is_zero(eta.norm()):
        raise ZeroState("controllable transfers connect nonzero states only")
    if eff._steering.lines.kind is LineSetKind.ALL_OF_PLANE:
        return _verified(sys, xi, eta, [expand(u) for u in _canonical_steps(eff, xi, eta)])
    u = one_step(eff, xi, eta)
    if u is not None:
        return _verified(sys, xi, eta, [expand(u)])
    moves = _escape_moves(eff, xi)
    u = one_step(eff, moves[-1][1], eta)
    if u is None:
        raise EscapeFailed("escape landed back on the singular set")
    return _verified(sys, xi, eta, [expand(v) for v, _ in moves] + [expand(u)])
