"""Exact replay of control plans and a Monte-Carlo reachability probe.

The step map accumulates A + sum u_i B_i entry by entry in input order, so a
zero control contributes exactly nothing and structurally zero entries stay
exactly zero along the whole trajectory.  Plan verification replays plans
through ``step``.  The sampling oracle advances all its trials at once as
numpy arrays, with the same arithmetic in the same order, so each sample is
bit for bit the ``step`` replay of its plan: there is no second integrator to
drift out of agreement.  Its random plans come from one generator keyed by
the seed, one row of uniforms per trial, and the spread of the cloud is
summarized by a closed-form, scale-free covariance rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .classify import BilinearSystem
from .mat2 import Vec2, cross


class ArityMismatch(ValueError):
    """A control vector whose length differs from the system's input count."""


@dataclass(frozen=True)
class ControlPlan:
    """A finite open-loop plan: one control tuple per step.

    ``residual`` is the landing error |x_end - eta| that ``verify_plan``
    measured when ``plan_transfer`` or ``canonical_steer`` accepted the plan,
    and None on a plan built elsewhere.  It is not part of equality or hashing.
    """

    steps: tuple[tuple[float, ...], ...]
    residual: Optional[float] = field(default=None, compare=False)

    def __post_init__(self):
        steps = tuple(tuple(float(c) for c in step) for step in self.steps)
        object.__setattr__(self, "steps", steps)
        for step in steps:
            for c in step:
                if not math.isfinite(c):
                    raise ValueError(f"non-finite control value {c}")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Trajectory:
    states: tuple[Vec2, ...]
    controls: ControlPlan

    @property
    def final(self) -> Vec2:
        return self.states[-1]


def step(sys: BilinearSystem, x: Vec2, u) -> Vec2:
    """One transition x -> (A + sum u_i B_i) x."""
    u = tuple(u)
    if len(u) != sys.m:
        raise ArityMismatch(f"expected {sys.m} controls, got {len(u)}")
    if sys.drift is not None:
        a11, a12 = sys.drift.a11, sys.drift.a12
        a21, a22 = sys.drift.a21, sys.drift.a22
    else:
        a11 = a12 = a21 = a22 = 0.0
    for ui, b in zip(u, sys.inputs):
        a11 += ui * b.a11
        a12 += ui * b.a12
        a21 += ui * b.a21
        a22 += ui * b.a22
    return Vec2(a11 * x.x + a12 * x.y, a21 * x.x + a22 * x.y)


def run(sys: BilinearSystem, x0: Vec2, plan: ControlPlan) -> Trajectory:
    """Replay a plan from x0; the trajectory has len(plan) + 1 states."""
    states = [x0]
    for u in plan.steps:
        states.append(step(sys, states[-1], u))
    return Trajectory(tuple(states), plan)


_LANDING_TOL = 1e-9


def verify_plan(sys: BilinearSystem, xi: Vec2, eta: Vec2,
                plan: ControlPlan) -> tuple[bool, float]:
    """Replay the plan from xi and measure the landing error against eta.

    Returns (ok, error) with ok true when error <= 1e-9 * (1 + |eta|).  This
    is the one acceptance rule: ``plan_transfer`` and ``canonical_steer``
    return a plan only when it holds.
    """
    error = (run(sys, xi, plan).final - eta).norm()
    return error <= _LANDING_TOL * (1.0 + eta.norm()), error


@dataclass(frozen=True)
class OracleReport:
    """Terminal states of random short plans and the rank of their spread."""

    samples: tuple[Vec2, ...]
    covariance_rank: int


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
    ``step`` bit for bit.  A non-finite sample raises ValueError.

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
            live = length > k
            x, y = (np.where(live, a11 * x + a12 * y, x),
                    np.where(live, a21 * x + a22 * y, y))
    samples = tuple(map(Vec2, x.tolist(), y.tolist()))
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
    mean_sq = float(np.mean(x * x + y * y))
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx = float(np.mean(dx * dx))
    syy = float(np.mean(dy * dy))
    sxy = float(np.mean(dx * dy))
    half_trace = 0.5 * (sxx + syy)
    radius = math.hypot(0.5 * (sxx - syy), sxy)
    return sum(not tol.is_zero(ev / mean_sq)
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
