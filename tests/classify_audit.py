"""Class audit of whole classify-mix blocks against their construction.

Every family of ``bench/inputs.classify_block(seed, b, 4096)``, for blocks
0 to 2 of the benchmark's tuning seed and its held-out seed, is built into a
``BilinearSystem`` and classified by ``analyze``.  The family was built to
have its class (and, if uncontrollable, its invariant line), and
``bench/checks.check_verdict`` compares the verdict with that construction.
A family that raises counts as wrong as well.  The benchmark times only what
it gets through in its run, so this untimed pass is what sees every family.

Standard library only (``bench/inputs.py`` and ``bench/checks.py`` are read
as they are):

    PYTHONPATH=src python tests/classify_audit.py   # exits 1 on any wrong family
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True   # leave no cache files in bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402

SEEDS = (1, 20261017)
BLOCKS = 3
BLOCK_SIZE = 4096


def families():
    """(name, family) for every audited family, its name seed/block/index."""
    for seed in SEEDS:
        for b in range(BLOCKS):
            for i, family in enumerate(inputs.classify_block(seed, b, BLOCK_SIZE)):
                yield f"{seed}/{b}/{i}", family


def wrong(family):
    """Why analyze's answer for the family differs from its construction, or None."""
    from bilin2 import BilinearSystem, Mat2, SystemKind, analyze

    kind = SystemKind.WITH_DRIFT if family.kind == "drift" else SystemKind.DRIFTLESS
    try:
        drift = Mat2(*family.drift) if family.drift is not None else None
        verdict = analyze(BilinearSystem(kind, drift, tuple(Mat2(*b) for b in family.inputs)))
    except Exception as exc:  # the report names which one
        return type(exc).__name__
    region = verdict.largest_region
    return checks.check_verdict(family, verdict.klass.value,
                                (region.x, region.y) if region else None)


if __name__ == "__main__":
    bad = [(name, family.name, why) for name, family in families()
           if (why := wrong(family)) is not None]
    print(f"{len(bad)} of {len(SEEDS) * BLOCKS * BLOCK_SIZE} families wrong")
    for name, built, why in bad[:20]:
        print(f"  {name} {built}: {why}")
    sys.exit(1 if bad else 0)
