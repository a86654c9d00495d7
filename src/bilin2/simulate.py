"""Exact replay of control plans and a Monte-Carlo reachability probe.

The step map accumulates A + sum u_i B_i entry by entry in input order, so a
zero control contributes exactly nothing and structurally zero entries stay
exactly zero along the whole trajectory.  ``step``, ``run`` and
``verify_plan`` share one replay kernel, ``_replay``: it computes on plain
floats, keeps only the states, builds no intermediate ``Vec2``, and raises
ValueError where such a state would have come out non-finite; ``verify_plan``
replays the step matrices only for a miss beyond 1e-8 |eta|.  The sampling
oracle advances all its trials at once, each numpy call on the whole cloud
(column-stacked step matrices, one (2, trials) state), with the same
arithmetic in the same order, so each sample is bit for bit the ``step``
replay of its plan: there is no second integrator to drift out of agreement.
Its random plans come from one generator keyed by the seed, one row of
uniforms per trial; the states leave numpy in one ``tolist``, are built into
``Vec2`` samples in bulk, with one finiteness pass over the cloud, and their
spread is summarized by a closed-form, scale-free covariance rank.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from math import isfinite
from sys import float_info
from typing import Optional

from .classify import BilinearSystem
from .mat2 import Vec2, _Record, _pow2_exponent, _setfield, _vec2s


class ArityMismatch(ValueError):
    """A control vector whose length differs from the system's input count."""


class ControlPlan(_Record):
    """A finite open-loop plan: one control tuple per step.

    ``residual`` is the landing error |x_end - eta| that ``verify_plan``
    measured when ``plan_transfer`` or ``canonical_steer`` accepted the plan,
    and None on a plan built elsewhere.  It is not part of equality or hashing.
    Like ``Vec2``, it has two constructors: ``__init__`` (callers, plan files,
    copies) refuses a step of text, bytes or an unordered container and
    coerces every control to a finite float, and ``_control_plan`` builds a
    plan ``steer`` has just replayed, unchecked.
    """

    __slots__ = _fields = ("steps", "residual")

    def __init__(self, steps, residual: Optional[float] = None):
        try:
            steps = tuple(tuple(map(float, _controls(k, u))) for k, u in enumerate(steps))
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


def _controls(k: int, u):
    """u, the control vector of step k; TypeError where u is text, bytes or
    an unordered container, whose items would be read as controls."""
    if isinstance(u, (str, bytes, bytearray, Mapping, Set)):
        raise TypeError(f"step {k} is a {type(u).__name__}, not a control vector")
    return u


def _control_plan(steps: tuple, residual: float) -> ControlPlan:
    """The plan of ``steps``, a tuple of tuples of finite floats, unchecked."""
    plan = object.__new__(ControlPlan)
    _set_steps(plan, steps)
    _set_residual(plan, residual)
    return plan


def _replay(sys: BilinearSystem, x: float, y: float, steps) -> list:
    """The states of a plan replayed from (x, y), as floats x0, y0, x1, y1, ...

    Each step accumulates M_k = A + sum u_i B_i entry by entry in input order
    and applies it to x_k.  A control vector of the wrong length raises
    ArityMismatch, and a non-finite state the ValueError its ``Vec2`` would
    raise, each at the step where it happens; each control is a sequence.
    """
    drift = sys.drift
    inputs = sys.inputs
    m = len(inputs)
    states = [x, y]
    for u in steps:
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
    return states


def step(sys: BilinearSystem, x: Vec2, u) -> Vec2:
    """One transition x -> (A + sum u_i B_i) x; u is refused as a plan step is."""
    states = _replay(sys, x.x, x.y, (tuple(_controls(0, u)),))
    return Vec2(states[2], states[3])


def run(sys: BilinearSystem, x0: Vec2, plan: ControlPlan) -> tuple[Vec2, ...]:
    """Replay a plan from x0: the len(plan) + 1 states, starting with x0."""
    states = _replay(sys, x0.x, x0.y, plan.steps)
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
    at once; only a miss takes the reach, with M_k's columns replayed from e1
    and e2: exact, as M_k is finite or x_k's replay raised."""
    states = _replay(sys, x, y, steps)
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
    for k, u in enumerate(steps):
        c1, c2 = _replay(sys, 1.0, 0.0, (u,)), _replay(sys, 0.0, 1.0, (u,))
        scale = max(scale, math.hypot(c1[2], c2[2], c1[3], c2[3])
                    * math.hypot(states[2 * k], states[2 * k + 1]))
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

    All trials advance together, each numpy call on the whole cloud: the
    step matrices stacked column by column, from the drift entries (or 0.0)
    adding u_i B_i in input order like ``step``, and one (2, trials) state
    updated in place where a plan still runs, so every sample equals its
    plan's ``step`` replay bit for bit.  The cloud is checked for finiteness
    once and leaves numpy in one ``tolist``; the samples, ``Vec2`` values by
    contract and about half a call's cost, are built in bulk by ``mat2``, and
    a non-finite one raises the ValueError ``Vec2`` raises for the first such.

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
    r = np.random.default_rng(seed).random((trials, 1 + 3 * m))
    r3 = 3.0 * r[:, 0]  # plan length 1 + floor(r3): step k runs where r3 >= k
    u = np.multiply(6.0, r.T[1:].reshape(3, m, trials), order="C")
    u -= 3.0  # u[k, i] is control i of step k for every trial
    # cols[k, j] is column j of every trial's step-k matrix, a (2, trials) array.
    a = sys.drift
    cols = np.empty((3, 2, 2, trials))
    cols[...] = [[[a.a11], [a.a21]], [[a.a12], [a.a22]]] if a is not None else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, b in enumerate(sys.inputs):
            cols += u[:, i, None, None] * [[[b.a11], [b.a21]], [[b.a12], [b.a22]]]
        s = cols[0, 0] * xi.x
        s += cols[0, 1] * xi.y
        for k in (1, 2):
            nxt = cols[k, 0] * s[0]
            nxt += cols[k, 1] * s[1]
            np.copyto(s, nxt, where=r3 >= k)
    xs, ys = s.tolist()
    samples = _vec2s(xs, ys, bool(np.isfinite(s).all()))
    return OracleReport(samples, _covariance_rank(s, sys.tol))


def _covariance_rank(s, tol) -> int:
    """Rank of the 2x2 covariance of the finite cloud s, of shape (2, n), from
    its closed-form eigenvalues, each measured against the mean squared norm."""
    import numpy as np

    scale = float(np.max(np.abs(s)))
    if scale == 0.0:
        return 0
    x = s[0] / scale
    y = s[1] / scale
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
    line.  The sine is formed on s times the power of two that puts its larger
    entry in [1/2, 1), which is exact, so that no |s| overflows.
    """
    hits = 0
    for s in samples:
        f = math.ldexp(1.0, _pow2_exponent(max(abs(s.x), abs(s.y))))
        x, y = s.x * f, s.y * f
        r = math.hypot(x, y)
        if r == 0.0 or any(sys.tol.is_zero((x * d.y - y * d.x) / r) for d in lines):
            hits += 1
    return hits
