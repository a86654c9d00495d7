"""The package's public surface: the names it exports are its contract."""

import re
import types
from pathlib import Path

import bilin2
import bilin2.cli  # noqa: F401  (the benchmark reaches the CLI as bilin2.cli)

EXPORTED = [
    "AllIsotropic", "ArityMismatch", "BilinearSystem", "ControlPlan", "DEFAULT_TOL",
    "Direction", "EscapeFailed", "FormClass", "InExcludedSet", "InvalidSystem",
    "LineSetKind", "LineUnion", "Mat2", "NoCombinationFound", "NotCanonicalClass",
    "NotCommonEigenvector", "NotControllablePair", "OracleReport", "Reduction",
    "SingularMatrix", "SingularSubstitution", "StructureReport", "SystemKind",
    "TolerancePolicy", "Vec2", "Verdict", "VerdictClass", "ZeroState", "ZeroVector",
    "analyze", "antidiagonalize_pair", "apply_reduction", "canonical_steer",
    "combine_inputs", "common_real_eigenvector", "escape_step", "form_scale", "gram_form",
    "linearly_independent", "one_step", "plan_transfer", "reachability_oracle",
    "real_eigen_directions", "run", "solve2", "step", "triangularize", "verify_plan",
    "zero_bottom_row_pair", "zero_lines",
]


def test_public_surface_is_pinned_and_covers_the_benchmark():
    public = sorted(name for name, value in vars(bilin2).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == EXPORTED
    # The benchmark calls the library as lib.<name>; each name must resolve.
    bench = Path(__file__).resolve().parents[1] / "bench"
    called = set()
    for path in bench.glob("*.py"):
        called |= set(re.findall(r"(?<![\w.])lib\.([A-Za-z_]\w*)",
                                 path.read_text(encoding="utf-8")))
    assert "plan_transfer" in called
    assert sorted(name for name in called if not hasattr(bilin2, name)) == []
