"""Exact replay of control plans and a Monte-Carlo reachability probe.

The step map accumulates A + sum u_i B_i entry by entry in input order, so a
zero control contributes exactly nothing and structurally zero entries stay
exactly zero along the whole trajectory.  ``step``, ``run`` and
``verify_plan`` share one replay kernel, ``_replay``: it computes on plain
floats, builds no intermediate ``Vec2``, and raises ValueError where such a
state would have come out non-finite.  The sampling oracle advances all its
trials at once as numpy arrays, with the same arithmetic in the same order,
so each sample is bit for bit the ``step`` replay of its plan: there is no
second integrator to drift out of agreement.  Its random plans come from one
generator keyed by the seed, one row of uniforms per trial; the final states
are built into ``Vec2`` samples in bulk, with one finiteness pass over the
cloud, and their spread is summarized by a closed-form, scale-free
covariance rank.
"""

from __future__ import annotations

import math
from math import isfinite
from sys import float_info
from typing import Optional

from .classify import BilinearSystem
from .mat2 import Vec2, _Record, _setfield, _vec2s, cross


class ArityMismatch(ValueError):
    """A control vector whose length differs from the system's input count."""


class ControlPlan(_Record):
    """A finite open-loop plan: one control tuple per step.

    ``residual`` is the landing error |x_end - eta| that ``verify_plan``
    measured when ``plan_transfer`` or ``canonical_steer`` accepted the plan,
    and None on a plan built elsewhere.  It is not part of equality or hashing.
    Like ``Vec2``, it has two constructors: ``__init__`` (callers, plan files,
    copies) coerces every control to float and requires it finite, and
    ``_control_plan`` builds a plan ``steer`` has just replayed, unchecked.
    """

    __slots__ = _fields = ("steps", "residual")

    def __init__(self, steps, residual: Optional[float] = None):
        try:
            steps = tuple(tuple(map(float, step)) for step in steps)
        except OverflowError as exc:
            raise ValueError("control value beyond the float range") from exc
        for step in steps:
            if not all(map(isfinite, step)):
                bad = next(c for c in step if not isfinite(c))
                raise ValueError(f"non-finite control value {bad}")
        _set_steps(self, steps)
        _set_residual(self, residual)

    def _key(self) -> tuple:
        return (self.steps,)

    def __reduce__(self):
        return (ControlPlan, (self.steps, self.residual))

    def __len__(self) -> int:
        return len(self.steps)


_set_steps, _set_residual = ControlPlan.steps.__set__, ControlPlan.residual.__set__


def _control_plan(steps: tuple, residual: float) -> ControlPlan:
    """The plan of ``steps``, a tuple of tuples of finite floats, unchecked."""
    plan = object.__new__(ControlPlan)
    _set_steps(plan, steps)
    _set_residual(plan, residual)
    return plan


def _replay(sys: BilinearSystem, x: float, y: float, steps) -> tuple[list, list]:
    """The states of a plan replayed from (x, y), as floats x0, y0, x1, y1, ...,
    and the step matrices it applied, as m11, m12, m21, m22 of each in turn.

    Each step accumulates M_k = A + sum u_i B_i entry by entry in input order
    and applies it to x_k.  A control vector of the wrong length raises
    ArityMismatch, and a non-finite state the ValueError its ``Vec2`` would
    raise, each at the step where it happens.
    """
    drift = sys.drift
    inputs = sys.inputs
    m = len(inputs)
    states = [x, y]
    matrices = []
    for u in steps:
        u = tuple(u)
        if len(u) != m:
            raise ArityMismatch(f"expected {m} controls, got {len(u)}")
        if drift is not None:
            a11, a12, a21, a22 = drift.a11, drift.a12, drift.a21, drift.a22
        else:
            a11 = a12 = a21 = a22 = 0.0
        for ui, b in zip(u, inputs):
            a11 += ui * b.a11
            a12 += ui * b.a12
            a21 += ui * b.a21
            a22 += ui * b.a22
        x, y = a11 * x + a12 * y, a21 * x + a22 * y
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"non-finite vector ({x}, {y})")
        states += (x, y)
        matrices += (a11, a12, a21, a22)
    return states, matrices


def step(sys: BilinearSystem, x: Vec2, u) -> Vec2:
    """One transition x -> (A + sum u_i B_i) x."""
    states = _replay(sys, x.x, x.y, (u,))[0]
    return Vec2(states[2], states[3])


def run(sys: BilinearSystem, x0: Vec2, plan: ControlPlan) -> tuple[Vec2, ...]:
    """Replay a plan from x0: the len(plan) + 1 states, starting with x0."""
    states = _replay(sys, x0.x, x0.y, plan.steps)[0]
    return (x0,) + tuple(map(Vec2, states[2::2], states[3::2]))


_LANDING_TOL = 1e-8
"""The constant of ``verify_plan``'s bound.  A float step M x errs by at most
gamma_2 |M| |x| per entry, gamma_2 = 2u / (1 - 2u), u = 2^-53, plus 2^-1075 an
operation in underflow (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., chs. 2-3): 1e-8 allows 4e7 times the first, the floor 2^-1042 32 ulp(0)."""


def verify_plan(sys: BilinearSystem, xi: Vec2, eta: Vec2,
                plan: ControlPlan) -> tuple[bool, float]:
    """Replay the plan from xi and measure the landing error against eta.

    Returns (ok, error) with ok true when the error is finite and at most
    1e-8 * max(|eta|, max_k |M_k|_F |x_k|, 2^-1042), for step k's matrix M_k
    and the state x_k it applies to, with the max capped at the largest
    float: homogeneous in states and system above the subnormal range.  This
    is the one acceptance rule: ``plan_transfer`` and ``canonical_steer``
    return a plan only when it holds.
    """
    return _verify(sys, xi.x, xi.y, eta.x, eta.y, plan.steps)


def _verify(sys: BilinearSystem, x: float, y: float, ex: float, ey: float,
            steps) -> tuple[bool, float]:
    """:func:`verify_plan` of the plan ``steps`` from (x, y) to (ex, ey).  The
    bound without the reach can only be narrower, so an error within it passes
    at once; only a miss takes the reach from the replayed steps."""
    states, matrices = _replay(sys, x, y, steps)
    dx = states[-2] - ex
    dy = states[-1] - ey
    if not (isfinite(dx) and isfinite(dy)):
        raise ValueError(f"non-finite vector ({dx}, {dy})")
    error = math.hypot(dx, dy)
    # A reach or |eta| that overflows is capped at the largest float, so the
    # bound stays finite: it can only tighten, and an infinite error fails it.
    scale = max(math.hypot(ex, ey), 2.0 ** -1042)
    if error <= _LANDING_TOL * min(scale, float_info.max):
        return True, error
    for k in range(0, len(matrices), 4):
        scale = max(scale, math.hypot(*matrices[k:k + 4])
                    * math.hypot(states[k // 2], states[k // 2 + 1]))
    return error <= _LANDING_TOL * min(scale, float_info.max), error


class OracleReport(_Record):
    """Terminal states of random short plans and the rank of their spread."""

    _fields = ("samples", "covariance_rank")

    def __init__(self, samples: tuple[Vec2, ...], covariance_rank: int):
        _setfield(self, "samples", samples)
        _setfield(self, "covariance_rank", covariance_rank)


def reachability_oracle(sys: BilinearSystem, xi: Vec2, trials: int,
                        seed: int = 42) -> OracleReport:
    """Sample reachable states by playing random plans of length 1 to 3.

    One generator keyed by ``seed`` draws a (trials, 1 + 3m) block of
    uniforms on [0, 1), one row per trial: r[0] sets the plan length
    1 + floor(3 r[0]), and r[1 + k*m + i] the control u_i = -3 + 6 r of step
    k, so control components are uniform on [-3, 3].  Trial t depends only
    on (seed, t): the cloud of n trials is a prefix of the cloud of N > n.

    All trials advance together as arrays.  Each step matrix is accumulated
    like ``step`` does it, from the drift entries (or 0.0) adding u_i B_i in
    input order, so every sample equals the replay of its plan through
    ``step`` bit for bit.  The cloud is checked for finiteness once, in
    numpy, and the samples are built in bulk by ``mat2``; a non-finite sample
    raises the ValueError that ``Vec2`` raises for the first such sample.

    The covariance rank of the cloud separates line-trapped systems (rank 1)
    from ones that spread over the plane (rank 2); it is 0 when every sample
    is the same point.  The moments are formed on the cloud divided by its
    largest coordinate magnitude, and an eigenvalue of the covariance counts
    when its ratio to the mean squared sample norm is not zero under
    ``sys.tol``, so the rank does not depend on the scale of xi.
    """
    import numpy as np  # only the oracle needs numpy; importing bilin2 stays light

    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    m = sys.m
    draws = np.random.default_rng(seed).random((trials, 1 + 3 * m))
    length = 1 + (3.0 * draws[:, 0]).astype(np.intp)
    controls = -3.0 + 6.0 * draws[:, 1:]
    x = np.full(trials, xi.x)
    y = np.full(trials, xi.y)
    a = sys.drift
    start = (a.a11, a.a12, a.a21, a.a22) if a is not None else (0.0, 0.0, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3):
            a11, a12, a21, a22 = start
            for i, b in enumerate(sys.inputs):
                ui = controls[:, k * m + i]
                a11 = a11 + ui * b.a11
                a12 = a12 + ui * b.a12
                a21 = a21 + ui * b.a21
                a22 = a22 + ui * b.a22
            x_next, y_next = a11 * x + a12 * y, a21 * x + a22 * y
            if k == 0:  # every plan takes its first step
                x, y = x_next, y_next
            else:
                live = length > k
                x, y = np.where(live, x_next, x), np.where(live, y_next, y)
    finite = bool(np.isfinite(x).all() and np.isfinite(y).all())
    samples = _vec2s(x.tolist(), y.tolist(), finite)
    return OracleReport(samples, _covariance_rank(x, y, sys.tol))


def _covariance_rank(x, y, tol) -> int:
    """Rank of the 2x2 covariance of the finite cloud (x, y), from its
    closed-form eigenvalues, each measured against the mean squared norm."""
    import numpy as np

    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    if scale == 0.0:
        return 0
    x = x / scale
    y = y / scale
    n = x.size
    # Sums, not means: the trial count cancels in the ratio of an eigenvalue
    # to the mean squared norm.
    sum_sq = float(x @ x + y @ y)
    dx = x - x.sum() / n
    dy = y - y.sum() / n
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    half_trace = 0.5 * (sxx + syy)
    radius = math.hypot(0.5 * (sxx - syy), sxy)
    return sum(not tol.is_zero(ev / sum_sq)
               for ev in (half_trace + radius, half_trace - radius))


def line_hits(sys: BilinearSystem, samples, lines) -> int:
    """How many samples lie on one of the lines (``Direction``s).

    A sample is on a line when the sine of the angle between them,
    cross(s, d) / |s|, is zero under ``sys.tol``; the zero sample is on every
    line.
    """
    hits = 0
    for s in samples:
        r = s.norm()
        if r == 0.0 or any(sys.tol.is_zero(cross(s, d.vector) / r) for d in lines):
            hits += 1
    return hits
