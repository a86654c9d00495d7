"""End-to-end command line checks: JSON shapes, CSV bytes, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bilin2 import cli, simulate

ROTATION_DRIFT = {"kind": "drift", "A": [[0, -1], [1, 0]],
                  "B": [[[1, -1], [0, 2]], [[0, 0], [1, 0]]]}
SHARED_LINE = {"kind": "drift", "A": [[5, 3], [-4, -2]],
               "B": [[[0, -1], [2, 3]], [[7, 1], [-1, 5]]]}
SWAP_PAIR = {"kind": "driftless", "B": [[[-1, 0], [3, 1]], [[4, 3], [-6, -4]]]}
TRAPPED = {"kind": "drift", "A": [[1, 2], [0, 3]],
           "B": [[[1, 1], [0, 0]], [[0, 1], [0, 0]]]}
# Controllable, with inputs near 1e-5: the steering form -1e-10 (z1^2 + 2 z2^2)
# has every coefficient below 1e-9, yet its largest clearance
# |q(z)| / (|B1|_F |B2|_F |z|^2) is 0.63, which is not zero.
TINY_DRIFTLESS = {"kind": "driftless", "B": [[[0, -1e-5], [1e-5, 0]], [[1e-5, 0], [0, 2e-5]]]}
# Controllable, with inputs that share the left null direction e2: the
# pivots of the family, rows divided by their norms, call it independent
# (the last is 1.13e-9), while the substitution matrix [[1, 1], [1, 1 + 1.6e-9]]
# has det over its column norms 0.8e-9, which the zero test calls singular.
SINGULAR_SUBSTITUTION = {"kind": "drift", "A": [[0, 0], [1, 0]],
                         "B": [[[1, 1], [0, 0]], [[1, 1.0000000016], [0, 0]]]}
# Controllable; the steering form -1.2e-9 z2^2 is zero next to |B1|_F |B2|_F
# (0.85e-9), so the two-step construction is asked for, but det B1 over its
# larger squared column norm is 1.2e-9: no shared left null direction.
NO_SHARED_KERNEL = {"kind": "drift", "A": [[0, 0], [1, 0]],
                    "B": [[[1, 1], [0, 1.2e-9]], [[0, 1], [0, 0]]]}
# An anti-diagonal pair near 1e160: its certificate's canonical forms, in the
# basis [v, B1 v], hold -det B1 = 2e320, beyond the float range, so the
# verdict cannot be formed (and oracle's sampled states overflow first).
OVERFLOWING_CERTIFICATE = {"kind": "driftless",
                           "B": [[[0, 1e160], [2e160, 0]], [[0, 1e160], [-1e160, 0]]]}
# Members near 1e-8 and 1e200: each member's eigen-directions are found on it
# over a power of two, so both are the axes, which the second member does not
# keep, and neither verdict is out of reach.
SMALL_MEMBER = {"kind": "driftless", "B": [[[1e-8, 0], [0, 1.15e-8]], [[1, 2], [0.5, 3]]]}
LARGE_MEMBER = {"kind": "driftless", "B": [[[1e200, 0], [0, 2e200]], [[1, 2], [0.5, 3]]]}

ANALYZE_KEYS = {"class", "excluded_initial", "excluded_terminal", "largest_region",
                "transform", "canonical_forms", "reduction"}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("BILIN2_TOL_ABS", raising=False)
    monkeypatch.delenv("BILIN2_TOL_REL", raising=False)


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return _write


# stdout and exit code of `analyze` and of `steer --from 1,1 --to -11,-7` on
# the four fixture documents, and of two `oracle` runs, byte for byte.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))
FIXTURE_DOCS = {"ROTATION_DRIFT": ROTATION_DRIFT, "SHARED_LINE": SHARED_LINE,
                "SWAP_PAIR": SWAP_PAIR, "TRAPPED": TRAPPED}


@pytest.mark.parametrize("name", sorted(FIXTURE_DOCS))
def test_analyze_and_steer_stdout_is_pinned(name, write_doc, capsys):
    path = write_doc(FIXTURE_DOCS[name])
    for argv in (["analyze", path], ["steer", path, "--from", "1,1", "--to", "-11,-7"]):
        expected = GOLDEN[f"{name} {argv[0]}"]
        assert cli.main(argv) == expected["exit"]
        assert capsys.readouterr().out == expected["stdout"]


@pytest.mark.parametrize("name, start", [("ROTATION_DRIFT", "1,1"), ("SHARED_LINE", "1,-1")])
def test_oracle_stdout_is_pinned(name, start, write_doc, capsys):
    argv = ["oracle", write_doc(FIXTURE_DOCS[name]), "--from", start,
            "--trials", "8", "--seed", "7"]
    expected = GOLDEN[f"{name} oracle"]
    assert cli.main(argv) == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


def test_steer_replays_its_plan_once(write_doc, monkeypatch, capsys):
    calls = []
    replay = simulate._replay

    def counting_replay(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(simulate, "_replay", counting_replay)
    assert cli.main(["steer", write_doc(ROTATION_DRIFT), "--from", "1,1", "--to", "-11,-7"]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] == 0.0
    assert len(calls) == 1


@pytest.mark.parametrize("command, call", [
    ("analyze", "analyze"), ("steer", "plan_transfer"), ("simulate", "run"),
    ("oracle", "reachability_oracle"),
])
def test_main_alone_decides_the_exit_code(command, call, write_doc, tmp_path, monkeypatch,
                                          capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[[0.0, 0.0]]", encoding="utf-8")
    argv = [command, write_doc(ROTATION_DRIFT)] + {
        "analyze": [], "steer": ["--from", "1,1", "--to", "-11,-7"],
        "simulate": ["--from", "1,1", "--plan", str(plan_path)],
        "oracle": ["--from", "1,1", "--trials", "3"]}[command]

    def raising(exc):
        def library_call(*args, **kwargs):
            raise exc
        return library_call

    # Every ValueError the library raises exits 2, with the message on stderr.
    monkeypatch.setattr(cli, call, raising(ValueError("boom")))
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: boom\n")
    # A refusal from steer exits 3 with its reason, ZeroState (a ValueError) too.
    if command == "steer":
        for refusal in cli.REFUSALS:
            monkeypatch.setattr(cli, call, raising(refusal("boom")))
            assert cli.main(argv) == 3
            assert capsys.readouterr() == ('{\n  "reason": "boom"\n}\n', "")
    # The "this is a bug" RuntimeError is never turned into an exit code.
    monkeypatch.setattr(cli, call, raising(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(argv)


def test_import_leaves_numpy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, bilin2, bilin2.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "False"


def test_analyze_controllable_shape(write_doc, capsys):
    assert cli.main(["analyze", write_doc(ROTATION_DRIFT)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == ANALYZE_KEYS
    assert doc["class"] == "controllable"
    assert doc["excluded_initial"] is None
    assert doc["excluded_terminal"] is None
    assert doc["largest_region"] is None
    assert doc["transform"] is None
    assert doc["canonical_forms"] is None
    assert doc["reduction"] is None


def test_analyze_nearly_controllable_certificates(write_doc, capsys):
    assert cli.main(["analyze", write_doc(SHARED_LINE)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "nearly-controllable"
    assert [line["integer"] for line in doc["excluded_initial"]] == [[4, -7], [1, -1]]
    for line in doc["excluded_initial"]:
        x, y = line["unit"]
        assert x * x + y * y == pytest.approx(1.0)
    assert doc["excluded_terminal"] == []
    assert doc["largest_region"] is None
    assert len(doc["canonical_forms"]) == 3
    for form in doc["canonical_forms"]:
        assert abs(form[1][0]) <= 1e-9
    assert doc["reduction"] is None


def test_analyze_uncontrollable_reports_the_invariant_line(write_doc, capsys):
    assert cli.main(["analyze", write_doc(TRAPPED)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "uncontrollable"
    assert doc["excluded_initial"] is None
    assert doc["excluded_terminal"] is None
    assert doc["largest_region"] == {"unit": [1.0, 0.0], "integer": [1, 0]}


def test_analyze_reports_reductions(write_doc, capsys):
    path = write_doc({"kind": "driftless",
                      "B": [[[1, -1], [0, 2]], [[0, 0], [1, 0]], [[0, 1], [0, 0]]]})
    assert cli.main(["analyze", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == "controllable"
    assert doc["reduction"] == {"pinned_index": 0, "pinned_value": 1.0,
                                "combined_indices": None, "combined_coeffs": None}


def test_analyze_rejects_dependent_inputs(write_doc, capsys):
    path = write_doc({"kind": "drift", "A": [[0, -1], [1, 0]],
                      "B": [[[1, -1], [0, 2]], [[1, -1], [0, 2]]]})
    assert cli.main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "linearly dependent" in captured.err


def test_steer_then_simulate_roundtrip(write_doc, tmp_path, capsys):
    path = write_doc(ROTATION_DRIFT)
    assert cli.main(["steer", path, "--from", "1,1", "--to", "-11,-7"]) == 0
    steer_doc = json.loads(capsys.readouterr().out)
    assert steer_doc == {"steps": [[0.0, 0.0], [5.0, 16.0]], "residual": 0.0}

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(steer_doc["steps"]), encoding="utf-8")
    assert cli.main(["simulate", path, "--from", "1,1", "--plan", str(plan_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("k,x1,x2,u1,u2\n"
                            "0,1.0,1.0,0.0,0.0\n"
                            "1,-1.0,1.0,5.0,16.0\n"
                            "2,-11.0,-7.0,,\n")
    assert captured.err == "terminal state: -11.0,-7.0\n"


def test_simulate_writes_csv_file(write_doc, tmp_path, capsys):
    path = write_doc(ROTATION_DRIFT)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"steps": [[0.0, 0.0], [5.0, 16.0]]}),
                         encoding="utf-8")
    out_path = tmp_path / "traj.csv"
    assert cli.main(["simulate", path, "--from", "1,1", "--plan", str(plan_path),
                     "--csv", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert out_path.read_text(encoding="utf-8") == ("k,x1,x2,u1,u2\n"
                                                    "0,1.0,1.0,0.0,0.0\n"
                                                    "1,-1.0,1.0,5.0,16.0\n"
                                                    "2,-11.0,-7.0,,\n")


def test_simulate_empty_plan(write_doc, tmp_path, capsys):
    path = write_doc(ROTATION_DRIFT)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[]", encoding="utf-8")
    assert cli.main(["simulate", path, "--from", "2,3", "--plan", str(plan_path)]) == 0
    assert capsys.readouterr().out == "k,x1,x2,u1,u2\n0,2.0,3.0,,\n"


def test_simulate_rejects_wrong_arity(write_doc, tmp_path, capsys):
    path = write_doc(ROTATION_DRIFT)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[[1.0]]", encoding="utf-8")
    assert cli.main(["simulate", path, "--from", "1,1", "--plan", str(plan_path)]) == 2
    assert "steps[0] must list 2 control values" in capsys.readouterr().err


def test_simulate_reports_an_unwritable_csv_path(write_doc, tmp_path, capsys):
    path = write_doc(ROTATION_DRIFT)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[[0.0, 0.0]]", encoding="utf-8")
    out_path = tmp_path / "missing" / "traj.csv"
    assert cli.main(["simulate", path, "--from", "1,1", "--plan", str(plan_path),
                     "--csv", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out_path}: ")


@pytest.mark.parametrize("field, doc", [
    ("A", dict(ROTATION_DRIFT, A=[["0", "-1"], [True, False]])),
    ("B[1]", dict(ROTATION_DRIFT, B=[[[1, -1], [0, 2]], [[0, 0], ["1", 0]]])),
    ("tolerance.abs", dict(ROTATION_DRIFT, tolerance={"abs": True})),
    ("tolerance.rel", dict(ROTATION_DRIFT, tolerance={"rel": "1e-9"})),
])
def test_system_file_accepts_only_json_numbers(field, doc, write_doc, capsys):
    assert cli.main(["analyze", write_doc(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")
    assert "number" in err


@pytest.mark.parametrize("step", [[True, 5.0], [1.0, "5"]])
def test_plan_file_accepts_only_json_numbers(step, write_doc, tmp_path, capsys):
    path = write_doc(ROTATION_DRIFT)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps([[0.0, 0.0], step]), encoding="utf-8")
    assert cli.main(["simulate", path, "--from", "1,1", "--plan", str(plan_path)]) == 2
    assert "steps[1] must be numeric" in capsys.readouterr().err


def test_system_file_rejects_an_integer_beyond_the_float_range(write_doc, capsys):
    doc = dict(ROTATION_DRIFT, A=[[0, -(10 ** 400)], [1, 0]])
    assert cli.main(["analyze", write_doc(doc)]) == 2
    assert "A must be a 2x2 array of finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("analyze", []),
    ("steer", ["--from", "1,1", "--to", "2,1"]),
    ("simulate", ["--from", "1,1", "--plan"]),
    ("oracle", ["--from", "1,1", "--trials", "2"]),
])
def test_system_file_rejects_a_member_whose_norm_overflows(command, extra, write_doc, capsys):
    # Every entry is finite, but |B1|_F is not: a file error, exit 2.
    doc = dict(ROTATION_DRIFT, B=[[[1.5e308, 1.5e308], [0, 0]], [[0, 0], [1, 0]]])
    if command == "simulate":
        extra = extra + [write_doc([], name="plan.json")]
    assert cli.main([command, write_doc(doc)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {write_doc(doc)}: non-finite matrix norm of "
                            "((1.5e+308, 1.5e+308), (0.0, 0.0))\n")


def test_steer_refuses_excluded_start(write_doc, capsys):
    assert cli.main(["steer", write_doc(SHARED_LINE), "--from", "1,-1",
                     "--to", "1,0"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"reason": "initial state in excluded set"}


def test_steer_refuses_uncontrollable(write_doc, capsys):
    assert cli.main(["steer", write_doc(TRAPPED), "--from", "1,1",
                     "--to", "2,2"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert "uncontrollable" in doc["reason"]


def test_steer_refuses_zero_endpoint(write_doc, capsys):
    assert cli.main(["steer", write_doc(ROTATION_DRIFT), "--from", "0,0",
                     "--to", "1,1"]) == 3
    assert "nonzero states" in json.loads(capsys.readouterr().out)["reason"]


@pytest.mark.parametrize("doc, start, target, reason", [
    # (-1, 2) spans the kernel of B2, so every landing lies on B1 (-1, 2) =
    # (2, -3), whose clearance 2 / (sqrt(13) sqrt(5) 13) = 0.019 is zero under
    # 0.02; the second escape lands on B1 (2, -3) = (-2, 4), the kernel again.
    ({"kind": "driftless", "tolerance": {"abs": 0.02},
      "B": [[[2, 2], [-1, -2]], [[0, 0], [2, 1]]]},
     "-1,2", "2,1", "no escape step cleared the singular set"),
    (NO_SHARED_KERNEL, "1.3,0.4", "1.7,-0.6", "inputs do not share a left null direction"),
    (SINGULAR_SUBSTITUTION, "1.3,0.4", "1.7,-0.6", "input substitution matrix is singular"),
], ids=["EscapeFailed", "NotCanonicalClass", "SingularSubstitution"])
def test_steer_refuses_when_no_plan_is_found(doc, start, target, reason, write_doc, capsys):
    assert cli.main(["steer", write_doc(doc), "--from", start, "--to", target]) == 3
    assert json.loads(capsys.readouterr().out) == {"reason": reason}


def test_steer_plans_on_small_inputs(write_doc, capsys):
    # The route does not depend on the size of the inputs: the pair steers in
    # one step, as it does scaled by 1e5.
    assert cli.main(["steer", write_doc(TINY_DRIFTLESS), "--from", "1,1", "--to", "2,1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"steps": [[-100000.0, 100000.0]],
                                                    "residual": 0.0}


def test_steer_reports_overflow(write_doc, capsys):
    assert cli.main(["steer", write_doc(ROTATION_DRIFT), "--from", "1,1",
                     "--to", "1e308,1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite vector (")


def test_negative_components_survive_argparse(write_doc, capsys):
    path = write_doc(ROTATION_DRIFT)
    assert cli.main(["steer", path, "--to", "-11,-7", "--from", "1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == [[0.0, 0.0], [5.0, 16.0]]


def test_oracle_output_is_deterministic(write_doc, capsys):
    path = write_doc(ROTATION_DRIFT)
    assert cli.main(["oracle", path, "--from", "1,1", "--trials", "25"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["oracle", path, "--from", "1,1", "--trials", "25"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert len(doc["samples"]) == 25
    assert doc["covariance_rank"] == 2
    assert doc["excluded_set_hits"] is None


def test_oracle_counts_excluded_hits_from_the_invariant_line(write_doc, capsys):
    path = write_doc(SHARED_LINE)
    assert cli.main(["oracle", path, "--from", "1,-1", "--trials", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["covariance_rank"] == 1
    assert doc["excluded_set_hits"] == 20


def test_oracle_counts_excluded_hits_with_the_file_tolerance(write_doc, monkeypatch, capsys):
    # Every sample from near the invariant line stays 2e-4..2e-3 (in sin of
    # the angle) off the excluded lines: a hit under abs 1e-2, a miss under 1e-9.
    path = write_doc(dict(SHARED_LINE, tolerance={"abs": 1e-2}))
    argv = ["oracle", path, "--from", "1,-1.001", "--trials", "20"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["excluded_set_hits"] == 20
    monkeypatch.setenv("BILIN2_TOL_ABS", "1e-9")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["excluded_set_hits"] == 0


def test_oracle_rejects_bad_trials(write_doc, capsys):
    assert cli.main(["oracle", write_doc(ROTATION_DRIFT), "--from", "1,1",
                     "--trials", "0"]) == 2
    assert "--trials must be positive" in capsys.readouterr().err


def test_oracle_rejects_negative_seed(write_doc, capsys):
    assert cli.main(["oracle", write_doc(ROTATION_DRIFT), "--from", "1,1",
                     "--trials", "3", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must not be negative, got -1\n"


def test_simulate_reports_overflow(write_doc, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps([[1e200, 1e200]] * 3), encoding="utf-8")
    assert cli.main(["simulate", write_doc(ROTATION_DRIFT), "--from", "1,1",
                     "--plan", str(plan_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite vector (")


def test_oracle_reports_overflow(write_doc, capsys):
    assert cli.main(["oracle", write_doc(ROTATION_DRIFT), "--from", "1e307,1e307",
                     "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite vector (")


@pytest.mark.parametrize("command, extra", [
    ("analyze", []),
    ("oracle", ["--from", "1,1", "--trials", "2"]),
    ("steer", ["--from", "1,1", "--to", "2,1"]),
])
def test_unorientable_candidate_is_reported(command, extra, write_doc, capsys):
    # A verdict whose certificate overflows cannot be formed: exit 2, as for
    # a sampled state that overflows.  Small or large members are no such case.
    assert cli.main([command, write_doc(OVERFLOWING_CERTIFICATE)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite ")
    assert cli.main([command, write_doc(SMALL_MEMBER)] + extra) == 0
    if command == "analyze":
        assert json.loads(capsys.readouterr().out)["class"] == "controllable"
        assert cli.main([command, write_doc(LARGE_MEMBER)]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "controllable"


def test_env_tolerance_must_be_numeric(write_doc, monkeypatch, capsys):
    monkeypatch.setenv("BILIN2_TOL_ABS", "garbage")
    assert cli.main(["analyze", write_doc(ROTATION_DRIFT)]) == 2
    assert "BILIN2_TOL_ABS must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("where, rel", [("file", -1e-9), ("file", 0), ("file", 10**400),
                                        ("env", "inf"), ("env", "nan"), ("env", "0")],
                         ids=["negative", "zero", "overflow", "env-inf", "env-nan", "env-zero"])
def test_rel_tolerance_still_parses_and_is_refused_when_not_positive_finite(
        where, rel, write_doc, monkeypatch, capsys):
    # rel decides nothing and does not reach TolerancePolicy, but every file
    # and environment that ran before runs the same: a rel that is not a
    # positive finite number is refused, with the message it had.
    doc = dict(ROTATION_DRIFT, tolerance={"abs": 1e-9, "rel": 1e-9})
    if where == "file":
        doc["tolerance"]["rel"] = rel
    else:
        monkeypatch.setenv("BILIN2_TOL_REL", rel)
    assert cli.main(["analyze", write_doc(doc)]) == 2
    message = ("tolerance beyond the float range" if rel == 10**400
               else "rel_eps must be positive and finite")
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setenv("BILIN2_TOL_REL", "1e-3")
    assert cli.main(["analyze", write_doc(ROTATION_DRIFT)]) == 0


def test_env_tolerance_changes_the_verdict(write_doc, monkeypatch, capsys):
    nearly_dependent = {"kind": "driftless",
                        "B": [[[1, -1], [0, 2]], [[1.000001, -1], [0, 2]]]}
    path = write_doc(nearly_dependent)
    assert cli.main(["analyze", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("BILIN2_TOL_ABS", "1e-3")
    assert cli.main(["analyze", path]) == 2
    assert "linearly dependent" in capsys.readouterr().err


def test_env_tolerance_overrides_the_file(write_doc, monkeypatch, capsys):
    doc = {"kind": "driftless", "tolerance": {"abs": 1e-3},
           "B": [[[1, -1], [0, 2]], [[1.000001, -1], [0, 2]]]}
    path = write_doc(doc)
    assert cli.main(["analyze", path]) == 2
    capsys.readouterr()
    monkeypatch.setenv("BILIN2_TOL_ABS", "1e-12")
    assert cli.main(["analyze", path]) == 0


def test_file_validation_errors(write_doc, tmp_path, capsys):
    cases = [
        ({"kind": "driftless", "A": [[1, 0], [0, 1]],
          "B": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}, "must not carry field 'A'"),
        ({"kind": "sideways", "B": []}, "'kind' must be"),
        ({"kind": "driftless", "B": "nope"}, "field 'B' must be a list"),
        ({"kind": "drift", "B": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
         "need field 'A'"),
        ({"kind": "drift", "A": [[1, 0]], "B": [[[1, 0], [0, 1]]]},
         "A must be a 2x2 array"),
    ]
    for doc, fragment in cases:
        assert cli.main(["analyze", write_doc(doc)]) == 2
        assert fragment in capsys.readouterr().err
    assert cli.main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("system, plan, start, message", [
    ("{", [], "1,1", "invalid JSON at line 1 column 2"),
    ("[1]", [], "1,1", "top level must be an object"),
    (dict(ROTATION_DRIFT, tolerance=[1]), [], "1,1",
     "tolerance must be an object with keys 'abs' and 'rel'"),
    (dict(ROTATION_DRIFT, tolerance={"abs": 0}), [], "1,1", "abs_eps must be positive and finite"),
    (ROTATION_DRIFT, [], "a,b", "--from expects two numbers, got 'a,b'"),
    (ROTATION_DRIFT, {"steps": 5}, "1,1", "plan must be a list of control tuples"),
    (ROTATION_DRIFT, "[[1e400, 0]]", "1,1", "non-finite control value inf"),
], ids=["invalid-json", "top-level", "tolerance-type", "tolerance-value", "state",
        "plan-type", "plan-overflow"])
def test_simulate_reports_bad_input(system, plan, start, message, tmp_path, capsys):
    def write(doc, name):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return str(path)

    assert cli.main(["simulate", write(system, "system.json"), "--from", start,
                     "--plan", write(plan, "plan.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_bad_state_argument(write_doc, capsys):
    assert cli.main(["steer", write_doc(ROTATION_DRIFT), "--from", "1",
                     "--to", "1,1"]) == 2
    assert "--from expects 'x1,x2'" in capsys.readouterr().err
