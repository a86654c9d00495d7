"""The package's public surface: the names it exports are its contract."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bilin2
import bilin2.cli  # noqa: F401  (the benchmark reaches the CLI as bilin2.cli)
from bilin2.quadform import QuadraticForm

ROOT = Path(__file__).resolve().parents[1]

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
    bench = ROOT / "bench"
    called = set()
    for path in bench.glob("*.py"):
        called |= set(re.findall(r"(?<![\w.])lib\.([A-Za-z_]\w*)",
                                 path.read_text(encoding="utf-8")))
    assert "plan_transfer" in called
    assert sorted(name for name in called if not hasattr(bilin2, name)) == []


def test_steer_refusals_are_six_exported_classes_the_cli_shares():
    # steer owns the refusal list: a transfer it refuses exits 3 in the CLI.
    assert bilin2.steer.REFUSALS == (
        bilin2.InExcludedSet, bilin2.NotControllablePair, bilin2.ZeroState,
        bilin2.EscapeFailed, bilin2.NotCanonicalClass, bilin2.SingularSubstitution)
    assert bilin2.cli.REFUSALS is bilin2.steer.REFUSALS


# The value types are boundary types: fields, the measures the library reads,
# and @ (the benchmark computes b1 @ xv), but no value arithmetic.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__abs__",
              "__matmul__", "__rmatmul__")
VALUE_TYPES = {
    bilin2.Vec2: ({"x", "y", "norm"}, set()),
    bilin2.Mat2: ({"a11", "a12", "a21", "a22", "det", "frob", "rows", "trace"}, {"__matmul__"}),
    QuadraticForm: ({"a", "b", "c"}, set()),
}


@pytest.mark.parametrize("cls", list(VALUE_TYPES), ids=lambda cls: cls.__name__)
def test_value_type_members_are_pinned(cls):
    members, operators = VALUE_TYPES[cls]
    public = (set(cls._fields)
              | {name for name in dir(cls) if not name.startswith("_")})
    assert public == members
    assert {name for name in ARITHMETIC if hasattr(cls, name)} == operators


def test_readme_library_example_prints_its_plan(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "((0.0, 0.0), (5.0, 16.0))\n"


# The standard library modules the package itself imports; a bare interpreter
# that has imported them is the baseline of the test below.
STDLIB_USED = ("argparse", "collections", "enum", "functools", "itertools", "json", "math",
               "operator", "os", "typing")


def test_import_loads_no_dataclasses_csv_fractions_or_numpy():
    # A child interpreter: pytest itself has already imported dataclasses.
    code = (f"import sys, {', '.join(STDLIB_USED)}\n"
            "before = set(sys.modules)\n"
            "import bilin2, bilin2.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "bilin2.cli" in out
    assert {"dataclasses", "inspect", "csv", "fractions", "numpy"} & set(out) == set()
