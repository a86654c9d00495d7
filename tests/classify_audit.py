"""Class audit of whole classify-mix blocks against their construction.

Every family of ``bench/inputs.classify_block(seed, b, 4096)``, for blocks
0 to 2 of the benchmark's tuning seed and its held-out seed, is built into a
``BilinearSystem`` and classified by ``analyze``.  The family was built to
have its class (and, if uncontrollable, its invariant line), and
``bench/checks.check_verdict`` compares the verdict with that construction.
A family that raises counts as wrong as well.  The benchmark times only what
it gets through in its run, so this untimed pass is what sees every family.

It also prints a sha256 over every family's outcome in order:
``repr(analyze(sys))``, or the type and message of the exception ingestion
or ``analyze`` raised.  Two trees with the same digest give the same
verdicts, certificates and refusals, bit for bit, on all of these families.
The digest is pinned: one that differs from ``DIGEST`` fails the audit too,
and both digests are printed.
A verdict that combines two inputs (three inputs with drift, four without)
also counts as wrong where its ``combined_coeffs`` are not what the public
``combine_inputs`` finds for the family's members; the digest is over the
outcomes of ``analyze`` alone.

One more line, outside the digest, counts the audited four-member families
(drift and three inputs, or four inputs) that ``linearly_independent``
settles by the determinant of their rows over their norms, |det R| above
64 (abs_eps + 2^-40), and those left to its elimination, with the least
|det R| found.  The determinant is formed here by cofactor expansion.

Standard library only (``bench/inputs.py`` and ``bench/checks.py`` are read
as they are):

    PYTHONPATH=src python tests/classify_audit.py   # exits 1 on any wrong family,
                                                    # or on a digest other than DIGEST
"""

import hashlib
import math
import sys
from pathlib import Path

sys.dont_write_bytecode = True   # leave no cache files in bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402

SEEDS = (1, 20261017)
BLOCKS = 3
BLOCK_SIZE = 4096
DIGEST = "a235ddfa6f722454faa0e27f22a09b3c51153ea9aa010fc22b141c35143e39ea"


def families():
    """(name, family) for every audited family, its name seed/block/index."""
    for seed in SEEDS:
        for b in range(BLOCKS):
            for i, family in enumerate(inputs.classify_block(seed, b, BLOCK_SIZE)):
                yield f"{seed}/{b}/{i}", family


def outcome(family):
    """analyze's verdict for the family, or the exception it or ingestion raised."""
    from bilin2 import BilinearSystem, Mat2, SystemKind, analyze

    kind = SystemKind.WITH_DRIFT if family.kind == "drift" else SystemKind.DRIFTLESS
    try:
        drift = Mat2(*family.drift) if family.drift is not None else None
        return analyze(BilinearSystem(kind, drift, tuple(Mat2(*b) for b in family.inputs)))
    except Exception as exc:  # the report names which one
        return exc


def wrong(family, found):
    """Why the outcome found for the family differs from its construction, or
    from ``combine_inputs`` on its members where the verdict combines two
    inputs; or None."""
    from bilin2 import Mat2, combine_inputs

    if isinstance(found, Exception):
        return type(found).__name__
    coeffs = found.reduction.combined_coeffs
    if coeffs is not None:
        members = [Mat2(*m) for m in (family.drift, *family.inputs) if m is not None]
        try:
            expected = combine_inputs(*members)
        except Exception as exc:  # the report names which one
            expected = type(exc).__name__
        if coeffs != expected:
            return f"combined_coeffs {coeffs}, combine_inputs gives {expected}"
    region = found.largest_region
    return checks.check_verdict(family, found.klass.value,
                                (region.x, region.y) if region else None)


def det(rows) -> float:
    """The determinant of a square list of rows, by expansion along the first."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def row_det(family):
    """|det R| of a four-member family's rows over their norms, or None for
    fewer members or a member whose norm is zero or not finite."""
    members = family.matrices()
    norms = [math.hypot(*m) for m in members]
    if len(members) != 4 or not all(0.0 < n < math.inf for n in norms):
        return None
    return abs(det([[e / n for e in m] for m, n in zip(members, norms)]))


def text(found) -> str:
    """The digested text of an outcome."""
    if isinstance(found, Exception):
        return f"{type(found).__name__}: {found}"
    return repr(found)


if __name__ == "__main__":
    from bilin2 import DEFAULT_TOL

    digest, bad, dets = hashlib.sha256(), [], []
    for name, family in families():
        found = outcome(family)
        digest.update(text(found).encode())
        if (why := wrong(family, found)) is not None:
            bad.append((name, family.name, why))
        if (d := row_det(family)) is not None:
            dets.append(d)
    print(f"{len(bad)} of {len(SEEDS) * BLOCKS * BLOCK_SIZE} families wrong")
    print(f"outcome digest sha256 {digest.hexdigest()}")
    bound = 64.0 * (DEFAULT_TOL.abs_eps + 2.0 ** -40)
    settled = sum(d > bound for d in dets)
    print(f"four-member families: {settled} of {len(dets)} settled by |det R| > {bound:.2g}, "
          f"{len(dets) - settled} by elimination; least |det R| {min(dets, default=0.0):.2g}")
    for name, built, why in bad[:20]:
        print(f"  {name} {built}: {why}")
    if digest.hexdigest() != DIGEST:
        print(f"outcome digest differs: got {digest.hexdigest()}, pinned {DIGEST}")
    sys.exit(1 if bad or digest.hexdigest() != DIGEST else 0)
