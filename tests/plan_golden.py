"""A fixed set of plan requests and their ``plan_transfer`` / ``escape_step`` outcomes.

``cases()`` draws 480 requests from a seeded ``random.Random``.  Each is built
for one branch of the plan path (``BRANCHES``): the one step, an escape by the
drift alone, by the axis landing (driftless pairs, and drift pairs whose drift
image lands on the other zero line), two escapes (the drift and the inputs
map one zero line onto the other), the two-step construction with and
without its pre-step, the nearly-controllable one step (to zero targets too), the two-step
construction on inputs of sizes 2^-10 and 2^-24, the refusals
(``NotControllablePair``, ``ZeroState``, ``InExcludedSet`` and the
``ValueError`` of an overflowing image), and
``escape_step`` from states on a zero line, which a nearly-controllable
family or a two-escape state refuses with ``EscapeFailed``.

The matrices have entries in quarters, and each system is seen through a
change of basis P whose inverse is exact: a unimodular shear for most
branches, a signed permutation for the two-step construction, so that its
degenerate states stay degenerate.  A state on a zero line is an integer
direction times a quarter, so it lies on the line exactly.  A quarter of the
requests scale xi by 2^k and eta by 2^j, k and j in [-30, 30].  Only the
arithmetic operators touch the floats, so the requests are the same on every
platform.

``outcome(case)`` is what the library returns: the steps and residual of the
plan, or the control and landing of the escape step, as ``float.hex``; or
the exception's type and message.  ``shows(case, outcome)`` tells whether the
outcome is the one the case's branch stands for.

Standard library only, so the comparison also runs on an interpreter without
numpy or pytest:

    PYTHONPATH=src python tests/plan_golden.py --write   # regenerate
    PYTHONPATH=src python tests/plan_golden.py           # compare
"""

import json
import random
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("plan_golden.json")
COUNT = 480
SCALED_SHARE = 0.25

BRANCHES = (
    "one_step", "escape.drift", "escape.axis", "escape.axis_drift", "escape.twice",
    "canonical", "canonical.prestep", "nearly",
    "refused.NotControllablePair", "refused.ZeroState", "refused.InExcludedSet",
    "canonical.scaled", "refused.ValueError",
    "escape_step", "escape_step.refused",
)


def _pick(rng: random.Random, options):
    return options[int(rng.random() * len(options))]


def _quarter(rng: random.Random) -> float:
    """A quarter in [-2, 2]."""
    return (int(rng.random() * 17) - 8) / 4.0


def _clear(rng: random.Random) -> float:
    """A quarter in [1/4, 2], of either sign."""
    return (int(rng.random() * 8) + 1) / 4.0 * _pick(rng, (-1.0, 1.0))


def _mat(rng: random.Random) -> tuple:
    return tuple(_quarter(rng) for _ in range(4))


def _state(rng: random.Random) -> tuple:
    """A generic state: off every zero line but by a measure-zero chance."""
    return (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def _mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _apply(m: tuple, v: tuple) -> tuple:
    return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])


def _outer(w: tuple, n: tuple) -> tuple:
    return (w[0] * n[0], w[0] * n[1], w[1] * n[0], w[1] * n[1])


def _add(a: tuple, b: tuple, s: float = 1.0) -> tuple:
    return tuple(x + s * y for x, y in zip(a, b))


def _cross(v: tuple, w: tuple) -> float:
    return v[0] * w[1] - v[1] * w[0]


def _shear(rng: random.Random) -> tuple:
    """A unimodular integer P and its (integer) inverse."""
    a, b = int(rng.random() * 5) - 2, int(rng.random() * 5) - 2
    p = _mul((1.0, a, 0.0, 1.0), (1.0, 0.0, b, 1.0))
    return p, (p[3], -p[1], -p[2], p[0])


def _signed_permutation(rng: random.Random) -> tuple:
    """A signed permutation P and its inverse, its transpose."""
    s, t = _pick(rng, (-1.0, 1.0)), _pick(rng, (-1.0, 1.0))
    p = _pick(rng, ((s, 0.0, 0.0, t), (0.0, s, t, 0.0)))
    return p, (p[0], p[2], p[1], p[3])


def _zero_line(rng: random.Random) -> tuple:
    """An integer direction d = (1, k) or (k, 1), and m with m . d = 1."""
    k = float(int(rng.random() * 7) - 3)
    return _pick(rng, (((1.0, k), (1.0, 0.0)), ((k, 1.0), (0.0, 1.0))))


def _adj_apply(m: tuple, v: tuple) -> tuple:
    """adj(m) v, which is det(m) m^-1 v."""
    return (m[3] * v[0] - m[1] * v[1], m[0] * v[1] - m[2] * v[0])


def _on(rng: random.Random, d: tuple) -> tuple:
    """A state on the line of d."""
    s = _clear(rng)
    return (s * d[0], s * d[1])


def _pair_on(rng: random.Random, d: tuple, twice: bool) -> tuple:
    """(B1, B2, e): a pair whose steering form det[B1 z, B2 z] vanishes on d and
    on e.  B1 = l B2 + w n^T with n . d = 0 gives B1 d = l B2 d, and the form
    is (n . z) det[w, B2 z], so its other zero line is e = adj(B2) w.  With
    ``twice``, w = B2^2 d puts e along B2 d; otherwise e is kept off B2 d, so
    that an input image leaves it.  Redrawn until neither d nor w is an
    eigenvector of B2: either would be a line both inputs leave invariant."""
    n = (-d[1], d[0])
    while True:
        b2 = _mat(rng)
        c = _apply(b2, d)
        w = _apply(b2, c) if twice else (_clear(rng), _quarter(rng))
        e = _adj_apply(b2, w)
        if (_cross(d, c) != 0.0 and _cross(w, _apply(b2, w)) != 0.0 and _cross(d, e) != 0.0
                and (twice or _cross(e, c) != 0.0)):
            return _add(_outer(w, n), b2, _clear(rng)), b2, e


def _mapping(rng: random.Random, d: tuple, m: tuple, e: tuple, avoid: tuple) -> tuple:
    """A drift A with A d = c e for a quarter c: A = K + (c e - K d) m^T, with
    m . d = 1.  Redrawn until A e is off the lines of ``avoid``."""
    c = _clear(rng)
    while True:
        k = _mat(rng)
        a = _add(k, _outer(_add((c * e[0], c * e[1]), _apply(k, d), -1.0), m))
        p = _apply(a, e)
        if all(_cross(p, v) != 0.0 for v in avoid):
            return a


def _escape_family(rng: random.Random, route: str) -> tuple:
    """(drift, inputs, xi) with xi on the zero line d of the pair, for the
    escape ``route``: 'drift' (the drift image off both zero lines), 'axis'
    (no drift), 'axis_drift' (the drift image on the other zero line e, the
    input images off it) or 'twice' (the drift and the input images on e, and
    the drift image of e off both lines)."""
    d, m = _zero_line(rng)
    b1, b2, e = _pair_on(rng, d, route == "twice")
    if route == "axis":
        return None, (b1, b2), _on(rng, d)
    if route in ("axis_drift", "twice"):
        return _mapping(rng, d, m, e, (d, e)), (b1, b2), _on(rng, d)
    while True:
        a = _mat(rng)
        p = _apply(a, d)
        if _cross(p, d) != 0.0 and _cross(p, e) != 0.0:
            return a, (b1, b2), _on(rng, d)


def _generic(rng: random.Random) -> tuple:
    """(drift, inputs) of any shape, with entries drawn freely."""
    kind, m = _pick(rng, (("drift", 2), ("drift", 3), ("driftless", 2), ("driftless", 3),
                          ("driftless", 4)))
    return (_mat(rng) if kind == "drift" else None), tuple(_mat(rng) for _ in range(m))


def _zero_bottom(rng: random.Random, coupled: bool = True) -> tuple:
    """(drift, inputs): inputs with zero bottom rows and independent top rows,
    and a drift that couples x1 into x2, or (not ``coupled``) leaves the line
    of e1 invariant, which traps the state."""
    while True:
        t1, t2 = (_quarter(rng), _quarter(rng)), (_quarter(rng), _quarter(rng))
        if _cross(t1, t2) != 0.0:
            break
    if coupled:
        a = (_quarter(rng), _quarter(rng), _clear(rng), _quarter(rng))
    else:  # a live A22 keeps the drift out of the inputs' span
        a = (_quarter(rng), _quarter(rng), 0.0, _clear(rng))
    return a, ((t1[0], t1[1], 0.0, 0.0), (t2[0], t2[1], 0.0, 0.0))


def _nearly(rng: random.Random) -> tuple:
    """(drift, inputs, excluded): a nearly-controllable pair and one of its
    excluded directions; a shared eigenvector e1 with the (2, 2) entries live,
    or a driftless anti-diagonal pair, whose form vanishes on both axes."""
    if rng.random() < 0.5:
        a = (_quarter(rng), _quarter(rng), 0.0, _clear(rng))
        inputs = ((_quarter(rng), _quarter(rng), 0.0, _clear(rng)),
                  (_quarter(rng), _quarter(rng), 0.0, _quarter(rng)))
        return a, inputs, (1.0, 0.0)
    while True:
        b1 = (0.0, _clear(rng), _clear(rng), 0.0)
        b2 = (0.0, _clear(rng), _clear(rng), 0.0)
        if b1[1] * b2[2] != b1[2] * b2[1]:
            return None, (b1, b2), _pick(rng, ((1.0, 0.0), (0.0, 1.0)))


def _request(rng: random.Random, branch: str) -> tuple:
    """(op, drift, inputs, xi, eta, P, P^-1) of a request built for ``branch``:
    the family in the frame where its structure shows, and the change of basis
    that hides it."""
    p, p_inv = _shear(rng)
    op, eta = "plan", _state(rng)
    if branch == "one_step":
        drift, inputs = _generic(rng)
        xi = _state(rng)
    elif branch == "refused.ZeroState":
        drift, inputs, _ = _escape_family(rng, "drift")
        xi, eta = _pick(rng, (((0.0, 0.0), eta), (_state(rng), (0.0, 0.0))))
    elif branch.startswith("escape."):
        drift, inputs, xi = _escape_family(rng, branch.split(".")[1])
    elif branch == "escape_step":
        op = "escape"
        drift, inputs, xi = _escape_family(rng, _pick(rng, ("drift", "axis", "axis_drift")))
    elif branch == "escape_step.refused":
        # No one escape step leaves these zero lines.
        op = "escape"
        if rng.random() < 0.5:
            drift, inputs, xi = _escape_family(rng, "twice")
        else:
            drift, inputs, d = _nearly(rng)
            xi = _on(rng, d)
    elif branch in ("canonical", "canonical.prestep", "canonical.scaled"):
        # A signed permutation keeps the zero-bottom-row frame's coordinates
        # up to sign, so a degenerate state stays degenerate.
        p, p_inv = _signed_permutation(rng)
        drift, inputs = _zero_bottom(rng)
        if branch == "canonical.scaled":
            # Inputs of sizes 2^-10 and 2^-24: the substitution matrix
            # diag(b1 2^-10, b2 2^-24) has det over its column norms 1, so the
            # construction plans, with controls of the sizes 2^10 and 2^24.
            inputs = ((_clear(rng) * 2.0 ** -10, 0.0, 0.0, 0.0),
                      (0.0, _clear(rng) * 2.0 ** -24, 0.0, 0.0))
        xi = _state(rng)
        if branch == "canonical.prestep":
            # x1 = 0, or A21 x1 + A22 x2 = 0
            xi = _on(rng, _pick(rng, ((0.0, 1.0), (drift[3], -drift[2]))))
    elif branch in ("nearly", "refused.InExcludedSet"):
        drift, inputs, d = _nearly(rng)
        if branch == "refused.InExcludedSet":
            xi = _on(rng, d)
        else:
            xi = _state(rng)
            if rng.random() < 0.25:
                eta = (0.0, 0.0)
    elif branch == "refused.NotControllablePair":
        drift, inputs = _zero_bottom(rng, coupled=False)
        xi = _state(rng)
    else:  # refused.ValueError: B1 xi overflows
        p = p_inv = (1.0, 0.0, 0.0, 1.0)
        drift = _pick(rng, (None, _mat(rng)))
        inputs = ((_pick(rng, (-2.0, 2.0)), _quarter(rng), _quarter(rng), _quarter(rng)),
                  _mat(rng))
        xi = (_pick(rng, (-1.0, 1.0)) * rng.uniform(1.0, 2.0) * 2.0 ** 1023, 0.0)
    return op, drift, inputs, xi, eta, p, p_inv


def cases(count: int = COUNT, seed: int = 18) -> list:
    """``count`` requests as dicts of name, branch, op, drift, inputs, xi and eta."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        branch = _pick(rng, BRANCHES)
        op, drift, inputs, xi, eta, p, p_inv = _request(rng, branch)
        hide = lambda x: _mul(_mul(p, x), p_inv)  # noqa: E731
        drift = hide(drift) if drift is not None else None
        inputs = [hide(b) for b in inputs]
        xi = _apply(p, xi)
        name = f"{branch}/{'drift' if drift is not None else 'driftless'}{len(inputs)}"
        if branch != "refused.ValueError" and rng.random() < SCALED_SHARE:
            k, j = int(rng.random() * 61) - 30, int(rng.random() * 61) - 30
            xi = (xi[0] * 2.0 ** k, xi[1] * 2.0 ** k)
            eta = (eta[0] * 2.0 ** j, eta[1] * 2.0 ** j)
            name += f".2^{k},2^{j}"
        out.append({"name": name, "branch": branch, "op": op, "drift": drift,
                    "inputs": inputs, "xi": xi, "eta": eta})
    return out


def _hex(values) -> list:
    return [v.hex() for v in values]


def outcome(case: dict) -> dict:
    """What ``plan_transfer`` (or ``escape_step``) returns for the case, in
    exact (hex) floats, or the exception it raises."""
    from bilin2 import BilinearSystem, Mat2, SystemKind, Vec2, escape_step, plan_transfer

    drift = case["drift"]
    kind = SystemKind.WITH_DRIFT if drift is not None else SystemKind.DRIFTLESS
    try:
        sys = BilinearSystem(kind, drift and Mat2(*drift), tuple(Mat2(*b) for b in case["inputs"]))
        xi = Vec2(*case["xi"])
        if case["op"] == "escape":
            u, landing = escape_step(sys, xi)
            return {"u": _hex(u), "landing": _hex((landing.x, landing.y))}
        plan = plan_transfer(sys, xi, Vec2(*case["eta"]))
    except Exception as exc:  # the outcome records which one
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"steps": [_hex(step) for step in plan.steps], "residual": plan.residual.hex()}


# Steps of each planning branch's plan.
_STEPS = {"one_step": 1, "nearly": 1, "escape.drift": 2, "escape.axis": 2,
          "escape.axis_drift": 2, "escape.twice": 3, "canonical": 2, "canonical.prestep": 3,
          "canonical.scaled": 2}


def shows(case: dict, out: dict) -> bool:
    """Whether ``out`` is what the case's branch stands for: its refusal, an
    escape step's landing, or a plan of the branch's length whose first step
    is the drift alone (u = 0) exactly on the escapes that start with it."""
    branch = case["branch"]
    if branch.startswith("refused."):
        return out.get("error") == branch.split(".", 1)[1]
    if branch == "escape_step":
        return "landing" in out
    if branch == "escape_step.refused":
        return out.get("error") == "EscapeFailed"
    steps = out.get("steps")
    if steps is None or len(steps) != _STEPS[branch]:
        return False
    if branch.startswith("escape."):
        drift_alone = all(float.fromhex(u) == 0.0 for u in steps[0])
        return drift_alone == (branch in ("escape.drift", "escape.twice"))
    return True


def records() -> list:
    """Each case's name with its outcome, as the golden file stores them."""
    return [{"name": c["name"], "outcome": outcome(c)} for c in cases()]


def mismatches() -> list:
    """The names of the cases whose outcome differs from the golden file."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = records()
    if len(golden) != len(current):
        return [f"{len(current)} cases against {len(golden)} stored"]
    return [c["name"] for c, g in zip(current, golden) if c != g]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = ",\n".join(json.dumps(r) for r in records())
        GOLDEN.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    else:
        bad = mismatches()
        print(f"{len(bad)} mismatches" + (": " + ", ".join(bad[:10]) if bad else ""))
        sys.exit(1 if bad else 0)
