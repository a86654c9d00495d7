"""Seeded inputs for the benchmark workloads, held as plain floats.

Matrices are 4-tuples (a11, a12, a21, a22) and states are 2-tuples, so the
benchmark's own checks never depend on the library's value types.  Every
system carries the class it was built to have; the benchmark compares the
library's answers against that construction, never against the library
itself.

Generation uses ``random.Random`` seeded from a string, which is stable
across Python versions, so one seed gives the same inputs everywhere.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

Mat = tuple  # (a11, a12, a21, a22)
Vec = tuple  # (x1, x2)

CONTROLLABLE = "controllable"
NEARLY = "nearly-controllable"
UNCONTROLLABLE = "uncontrollable"

# Homogeneity range of the scaled shares: log-uniform over 1e-8..1e8.
SCALE_DECADES = 8.0


class System(NamedTuple):
    """A system as plain floats, with the verdict it was built to have."""

    name: str
    kind: str                      # "drift" or "driftless"
    drift: Optional[Mat]
    inputs: tuple
    klass: str
    line: Optional[Vec] = None     # invariant line of an uncontrollable system
    pair: Optional[tuple] = None   # indices of the effective input pair

    @property
    def shape(self) -> str:
        return f"{self.kind}{len(self.inputs)}"

    def matrices(self) -> tuple:
        return ((self.drift,) if self.drift is not None else ()) + self.inputs


# --- plain-float 2x2 algebra ---------------------------------------------------


def matmul(p: Mat, q: Mat) -> Mat:
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def rotation(theta: float) -> Mat:
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s, s, c)


def similarity(rng: random.Random, max_cond: float = 20.0) -> tuple:
    """A change of basis P with condition number at most max_cond, and P^-1."""
    s = math.sqrt(rng.uniform(1.0, max_cond))
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
    p = matmul(matmul(rotation(t1), (s, 0.0, 0.0, 1.0 / s)), rotation(t2))
    p_inv = matmul(matmul(rotation(-t2), (1.0 / s, 0.0, 0.0, s)), rotation(-t1))
    return p, p_inv


def unit(v: Vec) -> Vec:
    n = math.hypot(v[0], v[1])
    return (v[0] / n, v[1] / n)


def conjugate(sys: System, p: Mat, p_inv: Mat) -> System:
    """The same system seen in the basis x' = P x; the invariant line maps by P."""
    drift = matmul(matmul(p, sys.drift), p_inv) if sys.drift is not None else None
    inputs = tuple(matmul(matmul(p, b), p_inv) for b in sys.inputs)
    line = None
    if sys.line is not None:
        lx, ly = sys.line
        line = unit((p[0] * lx + p[1] * ly, p[2] * lx + p[3] * ly))
    return sys._replace(drift=drift, inputs=inputs, line=line)


def steering_lines(b1: Mat, b2: Mat) -> list:
    """Unit directions of the real zero lines of z -> det[b1 z, b2 z].

    Only used on fixture pairs whose form has distinct real roots or no
    roots; the coefficients follow from expanding the determinant by columns.
    """
    a = b1[0] * b2[2] - b1[2] * b2[0]
    b = (b1[0] * b2[3] - b1[2] * b2[1]) + (b1[1] * b2[2] - b1[3] * b2[0])
    c = b1[1] * b2[3] - b1[3] * b2[1]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if abs(a) >= abs(c):
        return [unit((s / a, 1.0)), unit((c / s, 1.0))]
    return [unit((1.0, s / c)), unit((1.0, a / s))]


def _independent(ms, margin: float = 0.05) -> bool:
    """Gram-Schmidt on the matrices as vectors in R^4: each must keep at
    least ``margin`` of its norm after removing the span of the others."""
    basis = []
    for m in ms:
        v = list(m)
        n0 = math.sqrt(sum(e * e for e in v))
        for q in basis:
            d = sum(x * y for x, y in zip(v, q))
            v = [x - d * y for x, y in zip(v, q)]
        n = math.sqrt(sum(e * e for e in v))
        if n0 == 0.0 or n < margin * n0:
            return False
        basis.append([e / n for e in v])
    return True


# --- classify-mix: distinct systems over five shapes and three classes ---------

SHAPES = (("drift", 2), ("drift", 3), ("driftless", 2), ("driftless", 3), ("driftless", 4))

# Family shares per shape.  Shapes missing a class cannot have it: three
# inputs with a drift, or four without, already span every 2x2 matrix, and
# matrices sharing an eigenvector span only a three-dimensional space.
FAMILIES = {
    "drift2": (("generic", 0.40), ("triangular", 0.25), ("trapped", 0.20),
               ("zero_bottom", 0.15)),
    "drift3": (("generic", 1.0),),
    "driftless2": (("generic", 0.40), ("triangular", 0.20), ("trapped", 0.20),
                   ("antidiagonal", 0.20)),
    "driftless3": (("generic", 0.60), ("triangular", 0.40)),
    "driftless4": (("generic", 1.0),),
}
FAMILY_CLASS = {"generic": CONTROLLABLE, "zero_bottom": CONTROLLABLE,
                "triangular": NEARLY, "antidiagonal": NEARLY,
                "trapped": UNCONTROLLABLE}
CLASSIFY_SCALED_SHARE = 0.25


def _pick(rng: random.Random, weighted) -> str:
    r = rng.random()
    for name, share in weighted:
        r -= share
        if r < 0.0:
            return name
    return weighted[-1][0]


def _away_from_zero(rng: random.Random) -> float:
    return rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)


def _family_matrices(rng: random.Random, family: str, kind: str, m: int) -> tuple:
    """(drift, inputs) in the basis where the structure is visible."""
    u = lambda: rng.uniform(-2.0, 2.0)  # noqa: E731
    drift = None
    if family == "generic":
        if kind == "drift":
            drift = (u(), u(), u(), u())
        inputs = tuple((u(), u(), u(), u()) for _ in range(m))
    elif family == "triangular":
        if kind == "drift":
            drift = (u(), u(), 0.0, u())
        # The first input keeps a (2,2) entry clear of zero: the shared
        # eigenvector then does not trap the state, which makes the class
        # nearly-controllable rather than uncontrollable.
        inputs = ((u(), u(), 0.0, _away_from_zero(rng)),)
        inputs += tuple((u(), u(), 0.0, u()) for _ in range(m - 1))
    elif family == "trapped":
        if kind == "drift":
            drift = (u(), u(), 0.0, _away_from_zero(rng))
        inputs = tuple((u(), u(), 0.0, 0.0) for _ in range(m))
    elif family == "zero_bottom":
        drift = (u(), u(), _away_from_zero(rng), u())
        inputs = tuple((u(), u(), 0.0, 0.0) for _ in range(m))
    elif family == "antidiagonal":
        inputs = tuple((0.0, u(), u(), 0.0) for _ in range(m))
    else:
        raise ValueError(family)
    return drift, inputs


def classify_system(rng: random.Random) -> System:
    kind, m = SHAPES[rng.randrange(len(SHAPES))]
    shape = f"{kind}{m}"
    family = _pick(rng, FAMILIES[shape])
    while True:
        drift, inputs = _family_matrices(rng, family, kind, m)
        ms = ((drift,) if drift is not None else ()) + inputs
        if _independent(ms):
            break
    line = (1.0, 0.0) if family == "trapped" else None
    sys = System(f"{shape}.{family}", kind, drift, inputs, FAMILY_CLASS[family], line)
    sys = conjugate(sys, *similarity(rng))
    if rng.random() < CLASSIFY_SCALED_SHARE:
        # Per-matrix factors only change control units (inputs) or scale
        # eigenvalues (drift); neither moves the class or the invariant line.
        factor = lambda: 10.0 ** rng.uniform(-SCALE_DECADES, SCALE_DECADES)  # noqa: E731
        scaled = []
        for mat in sys.matrices():
            f = factor()
            scaled.append(tuple(f * e for e in mat))
        drift = scaled.pop(0) if sys.drift is not None else None
        sys = sys._replace(name=sys.name + ".scaled", drift=drift, inputs=tuple(scaled))
    return sys


def classify_block(seed: int, block: int, size: int) -> list:
    """Block ``block`` of the classify-mix stream; blocks never repeat a system."""
    rng = random.Random(f"classify-mix/{seed}/{block}")
    return [classify_system(rng) for _ in range(size)]


# --- fixed systems shared by plan-stream, oracle-cloud and cli-cold -------------

_TRAPPED = System("trapped", "drift", (1.0, 2.0, 0.0, 3.0),
                  ((1.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)), UNCONTROLLABLE, (1.0, 0.0))
_CONJ = (matmul(matmul(rotation(0.3), (1.5, 0.0, 0.0, 1.0 / 1.5)), rotation(1.1)),
         matmul(matmul(rotation(-1.1), (1.0 / 1.5, 0.0, 0.0, 1.5)), rotation(-0.3)))

FIXTURES = {s.name: s for s in (
    # README drift example.
    System("readme", "drift", (0.0, -1.0, 1.0, 0.0),
           ((1.0, -1.0, 0.0, 2.0), (0.0, 0.0, 1.0, 0.0)), CONTROLLABLE, pair=(0, 1)),
    # Test-suite shared-line system: every matrix fixes the line of (1, -1).
    System("shared", "drift", (5.0, 3.0, -4.0, -2.0),
           ((0.0, -1.0, 2.0, 3.0), (7.0, 1.0, -1.0, 5.0)), NEARLY, pair=(0, 1)),
    # Uncontrollable triangular system, hidden behind a fixed similarity.
    conjugate(_TRAPPED, *_CONJ),
    # Three inputs with a drift that has no real eigenvector; the pair
    # (B1, B2) has the zero lines x1 = +-x2.
    System("drift3", "drift", (1.0, -2.0, 1.0, 0.0),
           ((1.0, 0.0, 0.0, -1.0), (0.0, 1.0, -1.0, 0.0), (1.0, 1.0, 0.0, 1.0)),
           CONTROLLABLE, pair=(0, 1)),
    # Four driftless inputs; B1 is a rotation, and the pair (B2, B3) has the
    # zero lines x2 = 0 and x1 = -x2.
    System("driftless4", "driftless", None,
           ((0.0, -1.0, 1.0, 0.0), (1.0, 0.0, 0.0, -1.0), (1.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0)), CONTROLLABLE, pair=(1, 2)),
    # Test-suite trace-free pair that anti-diagonalizes in a shared basis.
    System("swap", "driftless", None,
           ((-1.0, 0.0, 3.0, 1.0), (4.0, 3.0, -6.0, -4.0)), NEARLY, pair=(0, 1)),
    # Zero-bottom-row inputs under a coupling drift: the steering form
    # vanishes identically, so only the two-step construction steers it.
    System("zero_bottom", "drift", (1.0, 2.0, 1.0, -1.0),
           ((1.0, 2.0, 0.0, 0.0), (3.0, -1.0, 0.0, 0.0)), CONTROLLABLE),
)}


def pair_lines(sys: System) -> list:
    if sys.pair is None:
        return []
    i, j = sys.pair
    return steering_lines(sys.inputs[i], sys.inputs[j])


def _angle_gap(v: Vec, line: Vec) -> float:
    return abs(math.asin(max(-1.0, min(1.0, v[0] * line[1] - v[1] * line[0]))))


def _generic_state(rng: random.Random, avoid=()) -> Vec:
    """Magnitude in [0.5, 2], direction at least 1e-3 rad from every line in avoid."""
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        d = (math.cos(theta), math.sin(theta))
        if all(_angle_gap(d, line) > 1e-3 for line in avoid):
            r = rng.uniform(0.5, 2.0)
            return (r * d[0], r * d[1])


def _on_line(rng: random.Random, lines) -> Vec:
    lx, ly = lines[rng.randrange(len(lines))]
    r = rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    return (r * lx, r * ly)


# --- plan-stream: requests over the fixed systems --------------------------------

class Request(NamedTuple):
    system: str
    xi: Vec
    eta: Vec
    route: str      # the route or refusal the request was built for
    expect: str     # "plan", or the name of the documented refusal
    scaled: bool


# Route shares; each route names the systems it draws from.
PLAN_ROUTES = (
    ("one_step", 0.20, ("readme", "drift3", "driftless4")),
    ("escape", 0.15, ("readme", "drift3", "driftless4")),
    ("canonical", 0.15, ("zero_bottom",)),
    ("nearly", 0.15, ("shared",)),
    ("refuse_excluded", 0.10, ("shared",)),
    ("refuse_uncontrollable", 0.10, ("trapped",)),
    ("refuse_zero", 0.15, ("readme", "drift3", "driftless4", "zero_bottom")),
)
PLAN_REQUESTS = 4800


def plan_request(rng: random.Random, route: str, name: str, scaled: bool) -> Request:
    sys = FIXTURES[name]
    lines = pair_lines(sys)
    expect = "plan"
    if route in ("escape", "refuse_excluded"):
        xi = _on_line(rng, lines)
    else:
        xi = _generic_state(rng, avoid=lines)
    eta = _generic_state(rng)
    if route == "refuse_excluded":
        expect = "InExcludedSet"
    elif route == "refuse_uncontrollable":
        expect = "NotControllablePair"
    elif route == "refuse_zero":
        expect = "ZeroState"
        if rng.random() < 0.5:
            xi = (0.0, 0.0)
        else:
            eta = (0.0, 0.0)
    if scaled:
        # One factor for both endpoints: the same controls then steer c*xi
        # to c*eta, so a correct plan exists at every scale.
        c = 10.0 ** rng.uniform(-SCALE_DECADES, SCALE_DECADES)
        xi, eta = (c * xi[0], c * xi[1]), (c * eta[0], c * eta[1])
    return Request(sys.name, xi, eta, route, expect, scaled)


def plan_requests(seed: int, count: int = PLAN_REQUESTS) -> list:
    """The pool, with exact shares: each route's systems take turns, and one
    turn in four is scaled.  The seed draws the states and the order."""
    rng = random.Random(f"plan-stream/{seed}")
    pool = []
    for route, share, names in PLAN_ROUTES:
        for k in range(round(share * count)):
            turn, name = divmod(k, len(names))
            pool.append(plan_request(rng, route, names[name], turn % 4 == 0))
    rng.shuffle(pool)
    return pool


# --- oracle-cloud: start states with a known covariance rank ---------------------

class OracleRequest(NamedTuple):
    system: str
    xi: Vec
    rank: int
    seed: int
    start: str


ORACLE_TRIALS = 1000
ORACLE_SEEDS_PER_START = 8


def oracle_requests(seed: int) -> list:
    rng = random.Random(f"oracle-cloud/{seed}")
    shared, trapped = FIXTURES["shared"], FIXTURES["trapped"]
    out = []
    for _ in range(ORACLE_SEEDS_PER_START):
        out.append(OracleRequest("readme", _generic_state(rng), 2,
                                 rng.randrange(2**31), "controllable"))
        out.append(OracleRequest("trapped", _on_line(rng, [trapped.line]), 1,
                                 rng.randrange(2**31), "invariant_line"))
        out.append(OracleRequest("shared", _generic_state(rng, avoid=pair_lines(shared)), 2,
                                 rng.randrange(2**31), "nearly"))
    return out


# --- cli-cold: child commands over system files ----------------------------------

class CliCommand(NamedTuple):
    command: str                # "analyze" or "steer"
    system: str
    xi: Optional[Vec]
    eta: Optional[Vec]
    expect: str                 # "class", "plan", or a refusal name (exit 3)


def cli_commands(seed: int) -> list:
    """Analyze and steer commands, interleaved, so one child of each kind alternates."""
    rng = random.Random(f"cli-cold/{seed}")
    shared = FIXTURES["shared"]
    analyze = [CliCommand("analyze", name, None, None, "class")
               for name in ("readme", "shared", "trapped", "drift3", "driftless4", "zero_bottom")]
    steer = [
        CliCommand("steer", "readme", (1.0, 1.0), (-11.0, -7.0), "plan"),
        CliCommand("steer", "readme", _generic_state(rng, pair_lines(FIXTURES["readme"])),
                   _generic_state(rng), "plan"),
        CliCommand("steer", "zero_bottom", _generic_state(rng), _generic_state(rng), "plan"),
        CliCommand("steer", "shared", _generic_state(rng, pair_lines(shared)),
                   _generic_state(rng), "plan"),
        CliCommand("steer", "trapped", _generic_state(rng), _generic_state(rng),
                   "NotControllablePair"),
        CliCommand("steer", "shared", _on_line(rng, pair_lines(shared)), _generic_state(rng),
                   "InExcludedSet"),
    ]
    return [c for pair in zip(analyze, steer) for c in pair]


def system_json(sys: System) -> dict:
    """The CLI's system-file document for sys."""
    def rows(m):
        return [[m[0], m[1]], [m[2], m[3]]]
    doc = {"kind": sys.kind, "B": [rows(b) for b in sys.inputs]}
    if sys.drift is not None:
        doc["A"] = rows(sys.drift)
    return doc
