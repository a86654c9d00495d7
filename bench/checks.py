"""Correctness checks that do not rely on the code under test.

Plans are replayed with the benchmark's own plain-float step on the matrices
the benchmark generated; verdicts are compared with the class each system
was built to have; oracle clouds are checked for their expected rank and,
for starts on an invariant line, for staying on it.  Each check returns None
when the outcome is the expected one, or a short failure key.
"""

from __future__ import annotations

import json
import math

from inputs import FIXTURES, NEARLY, UNCONTROLLABLE, System

# The one landing bound: a replayed plan must end within LANDING_REL of the
# scale of its own arithmetic, max(|eta|, max_k |M_k|_F |x_k|), where M_k is
# the step matrix applied to state x_k.  Round-off in a plan of at most three
# steps stays far below this; a plan that lands on the wrong point does not.
LANDING_REL = 1e-8
MAX_PLAN_STEPS = 3

# A sample counts as on a line when its distance to the line is at most
# LINE_REL times the largest norm a three-step plan from xi can reach.
LINE_REL = 1e-12
# Verdict lines must match the constructed line to this angle (radians).
LINE_ANGLE = 1e-6
ORACLE_CONTROL_BOUND = 3.0


def step_plain(sys: System, x, u):
    """x -> (A + sum u_i B_i) x, with the Frobenius norm of the step matrix."""
    m = list(sys.drift) if sys.drift is not None else [0.0, 0.0, 0.0, 0.0]
    for ui, b in zip(u, sys.inputs):
        for k in range(4):
            m[k] += ui * b[k]
    nxt = (m[0] * x[0] + m[1] * x[1], m[2] * x[0] + m[3] * x[1])
    return nxt, math.sqrt(sum(e * e for e in m))


def landing(sys: System, xi, eta, steps):
    """(error, scale) of replaying steps from xi against eta."""
    x = xi
    scale = math.hypot(*eta)
    for u in steps:
        nxt, frob = step_plain(sys, x, u)
        scale = max(scale, frob * math.hypot(*x))
        x = nxt
    return math.hypot(x[0] - eta[0], x[1] - eta[1]), scale


def check_plan(sys: System, xi, eta, steps):
    if not 1 <= len(steps) <= MAX_PLAN_STEPS or any(len(u) != len(sys.inputs) for u in steps):
        return "plan_shape"
    if not all(math.isfinite(c) for u in steps for c in u):
        return "plan_shape"
    error, scale = landing(sys, xi, eta, steps)
    if not error <= LANDING_REL * scale:
        return "plan_miss"
    return None


def _line_angle(v, line) -> float:
    n = math.hypot(*v)
    return abs(math.asin(max(-1.0, min(1.0, (v[0] * line[1] - v[1] * line[0]) / n))))


def check_verdict(sys: System, klass: str, region):
    """klass is the verdict's class value; region the invariant-line vector or None."""
    if klass != sys.klass:
        return "wrong_class"
    if sys.klass == UNCONTROLLABLE:
        if region is None or _line_angle(region, sys.line) > LINE_ANGLE:
            return "wrong_line"
    return None


def growth(sys: System) -> float:
    """Largest norm factor one oracle step can apply."""
    def frob(m):
        return math.sqrt(sum(e * e for e in m))
    g = frob(sys.drift) if sys.drift is not None else 0.0
    return g + ORACLE_CONTROL_BOUND * sum(frob(b) for b in sys.inputs)


def check_oracle(sys: System, xi, expected_rank: int, trials: int, rank: int, samples):
    if len(samples) != trials:
        return "sample_count"
    if rank != expected_rank:
        return "wrong_rank"
    if sys.line is not None and expected_rank == 1:
        lx, ly = sys.line
        bound = LINE_REL * max(1.0, growth(sys)) ** MAX_PLAN_STEPS * math.hypot(*xi)
        if any(abs(s[0] * ly - s[1] * lx) > bound for s in samples):
            return "off_line_sample"
    return None


def check_cli(cmd, sys: System, code: int, stdout: str):
    """Exit code and JSON document of one bilin2 CLI child."""
    refusal = cmd.expect not in ("class", "plan")
    if code != (3 if refusal else 0):
        return f"cli_exit_{code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "cli_json"
    if refusal:
        return None if isinstance(doc.get("reason"), str) else "cli_json"
    if cmd.command == "analyze":
        region = doc.get("largest_region")
        failure = check_verdict(sys, doc.get("class"), region["unit"] if region else None)
        if failure is None and sys.klass == NEARLY and not doc.get("excluded_initial"):
            return "cli_json"
        return failure
    steps = doc.get("steps")
    if not isinstance(steps, list) or not isinstance(doc.get("residual"), float):
        return "cli_json"
    return check_plan(sys, cmd.xi, cmd.eta, [tuple(u) for u in steps])


def self_test() -> list:
    """(case, passed) for each check on a known-good and a corrupted input.

    A check that never fires, or fires on a correct answer, shows up here.
    """
    readme, trapped = FIXTURES["readme"], FIXTURES["trapped"]
    good_plan = [(0.0, 0.0), (5.0, 16.0)]   # README: (1, 1) -> (-11, -7)
    bad_plan = [(0.0, 0.0), (5.0, 16.0 + 1e-6)]
    on_line = [(2.0 * trapped.line[0], 2.0 * trapped.line[1]), (-trapped.line[0], -trapped.line[1])]
    off_line = on_line + [(trapped.line[0] - 1e-6 * trapped.line[1],
                           trapped.line[1] + 1e-6 * trapped.line[0])]
    results = [
        ("plan accepted", check_plan(readme, (1.0, 1.0), (-11.0, -7.0), good_plan) is None),
        ("corrupted plan caught",
         check_plan(readme, (1.0, 1.0), (-11.0, -7.0), bad_plan) == "plan_miss"),
        ("class accepted", check_verdict(trapped, UNCONTROLLABLE, trapped.line) is None),
        ("wrong class caught", check_verdict(trapped, NEARLY, None) == "wrong_class"),
        ("wrong line caught",
         check_verdict(trapped, UNCONTROLLABLE, (trapped.line[1], -trapped.line[0]))
         == "wrong_line"),
        ("on-line cloud accepted", check_oracle(trapped, trapped.line, 1, 2, 1, on_line) is None),
        ("off-line sample caught",
         check_oracle(trapped, trapped.line, 1, 3, 1, off_line) == "off_line_sample"),
    ]
    return results
