"""Exact replay of control plans and a Monte-Carlo reachability probe.

The step map accumulates A + sum u_i B_i entry by entry in input order, so a
zero control contributes exactly nothing and structurally zero entries stay
exactly zero along the whole trajectory.  Plan verification and the sampling
oracle both ride on the same step function; there is no second integrator to
drift out of agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .classify import BilinearSystem
from .mat2 import Vec2


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

    Control components are uniform on [-3, 3].  Each trial owns a generator
    derived from (seed, trial index), so the cloud is reproducible and
    independent of evaluation order.  The covariance rank of the cloud
    separates line-trapped systems (rank 1) from ones that spread over the
    plane (rank 2).
    """
    import numpy as np  # only the oracle needs numpy; importing bilin2 stays light

    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    samples = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        length = int(rng.integers(1, 4))
        x = xi
        for _ in range(length):
            x = step(sys, x, tuple(rng.uniform(-3.0, 3.0, sys.m)))
        samples.append(x)
    pts = np.array([[s.x, s.y] for s in samples])
    cov = np.cov(pts, rowvar=False, bias=True)
    eigvals = np.linalg.eigvalsh(cov)
    rank = int(sum(ev > sys.tol.threshold(eigvals[-1]) for ev in eigvals))
    return OracleReport(tuple(samples), rank)
