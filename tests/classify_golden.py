"""A fixed set of matrix families and their ``analyze`` outcomes.

``families()`` draws 400 families from a seeded ``random.Random``: all five
shapes (drift with 2 or 3 inputs, driftless with 2, 3 or 4), each from the
structure families its shape admits (generic, triangular, trapped,
zero-bottom, anti-diagonal), so all three classes occur.  Each structure is
hidden behind a change of basis with entries in quarters, and a quarter of
the families are then scaled by 2^k, k in [-30, 30].  Only the arithmetic
operators touch the floats, so the entries are the same on every platform.

``outcome(family)`` is what ``analyze`` decides: the class, the reduction,
and the excluded lines and invariant line as ``float.hex``; or the name of
the exception that construction or classification raised.

Standard library only, so the comparison also runs on an interpreter without
numpy or pytest:

    PYTHONPATH=src python tests/classify_golden.py --write   # regenerate
    PYTHONPATH=src python tests/classify_golden.py           # compare
"""

import json
import random
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("classify_golden.json")
COUNT = 400
SCALED_SHARE = 0.25

# (kind, input count, the structure families that shape admits)
SHAPES = (
    ("drift", 2, ("generic", "triangular", "trapped", "zero_bottom")),
    ("drift", 3, ("generic",)),
    ("driftless", 2, ("generic", "triangular", "trapped", "antidiagonal")),
    ("driftless", 3, ("generic", "triangular")),
    ("driftless", 4, ("generic",)),
)


def _pick(rng: random.Random, options):
    return options[int(rng.random() * len(options))]


def _structured(rng: random.Random, family: str, kind: str, m: int) -> list:
    """The family's matrices, drift first, in the basis that shows the structure."""
    u = lambda: rng.uniform(-2.0, 2.0)  # noqa: E731
    clear = lambda: rng.uniform(0.5, 2.0) * _pick(rng, (-1.0, 1.0))  # noqa: E731
    drift = []
    if family == "generic":
        drift = [(u(), u(), u(), u())] if kind == "drift" else []
        inputs = [(u(), u(), u(), u()) for _ in range(m)]
    elif family == "triangular":
        drift = [(u(), u(), 0.0, u())] if kind == "drift" else []
        # a live (2,2) entry: the shared line does not trap the state
        inputs = [(u(), u(), 0.0, clear())] + [(u(), u(), 0.0, u()) for _ in range(m - 1)]
    elif family == "trapped":
        drift = [(u(), u(), 0.0, clear())] if kind == "drift" else []
        inputs = [(u(), u(), 0.0, 0.0) for _ in range(m)]
    elif family == "zero_bottom":
        drift = [(u(), u(), clear(), u())]
        inputs = [(u(), u(), 0.0, 0.0) for _ in range(m)]
    else:  # antidiagonal
        inputs = [(0.0, u(), u(), 0.0) for _ in range(m)]
    return drift + inputs


def _change_of_basis(rng: random.Random) -> tuple:
    """A P with entries in quarters and |det P| >= 1/2, and its inverse."""
    while True:
        p = tuple((int(rng.random() * 17) - 8) / 4.0 for _ in range(4))
        det = p[0] * p[3] - p[1] * p[2]
        if abs(det) >= 0.5:
            return p, (p[3] / det, -p[1] / det, -p[2] / det, p[0] / det)


def _mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def families(count: int = COUNT, seed: int = 17) -> list:
    """``count`` families as dicts of name, kind, drift and inputs (4-tuples)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind, m, options = _pick(rng, SHAPES)
        family = _pick(rng, options)
        p, p_inv = _change_of_basis(rng)
        ms = [_mul(_mul(p, x), p_inv) for x in _structured(rng, family, kind, m)]
        name = f"{kind}{m}.{family}"
        if rng.random() < SCALED_SHARE:
            k = int(rng.random() * 61) - 30
            ms = [tuple(e * 2.0 ** k for e in x) for x in ms]
            name += f".2^{k}"
        drift = ms.pop(0) if kind == "drift" else None
        out.append({"name": name, "kind": kind, "drift": drift, "inputs": ms})
    return out


def _hex(d) -> list:
    return [d.x.hex(), d.y.hex()]


def outcome(family: dict) -> dict:
    """What ``analyze`` decides for the family, in exact (hex) floats."""
    from bilin2 import BilinearSystem, Mat2, SystemKind, analyze

    kind = SystemKind.WITH_DRIFT if family["kind"] == "drift" else SystemKind.DRIFTLESS
    try:
        drift = Mat2(*family["drift"]) if family["drift"] is not None else None
        verdict = analyze(BilinearSystem(kind, drift, tuple(Mat2(*x) for x in family["inputs"])))
    except Exception as exc:  # the outcome records which one
        return {"error": type(exc).__name__}
    red = verdict.reduction
    lines = verdict.excluded_initial
    region = verdict.largest_region
    return {
        "class": verdict.klass.value,
        "reduction": [red.pinned_index, red.pinned_value.hex(),
                      red.combined_indices and list(red.combined_indices),
                      red.combined_coeffs and [c.hex() for c in red.combined_coeffs]],
        "excluded": lines and [lines.kind.value, [_hex(d) for d in lines.lines]],
        "region": region and _hex(region),
    }


def records() -> list:
    """Each family's name with its outcome, as the golden file stores them."""
    return [{"name": f["name"], "outcome": outcome(f)} for f in families()]


def _stored(rs: list) -> list:
    # JSON has no tuples: compare what a round trip through the file gives
    return json.loads(json.dumps(rs))


def mismatches() -> list:
    """The names of the families whose outcome differs from the golden file."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = _stored(records())
    if len(golden) != len(current):
        return [f"{len(current)} families against {len(golden)} stored"]
    return [c["name"] for c, g in zip(current, golden) if c != g]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = ",\n".join(json.dumps(r) for r in _stored(records()))
        GOLDEN.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    else:
        bad = mismatches()
        print(f"{len(bad)} mismatches" + (": " + ", ".join(bad[:10]) if bad else ""))
        sys.exit(1 if bad else 0)
