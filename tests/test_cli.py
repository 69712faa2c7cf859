"""Problem file loading, pipeline commands, exit codes, and report shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftlyap
from liftlyap.cli import (
    EXIT_INPUT,
    EXIT_NOT_LIFTABLE,
    EXIT_OK,
    SpecError,
    build_problem,
    fixture_path,
    load_spec,
    main,
    run,
)


def _fixture_raw(name):
    return load_spec(fixture_path(name))


def _problem(name):
    return build_problem(_fixture_raw(name))


def test_load_ex_ps_shape():
    p = _problem("ex_ps")
    assert (p.sys.m, p.sys.r, p.qsys.n, p.qsys.s) == (2, 1, 1, 1)
    assert p.state_names == ["x1", "x2"]


def test_bad_beta_shape_rejected():
    raw = _fixture_raw("ex_ps")
    raw["beta"] = [["1", "0"]]  # s x (r+1)
    with pytest.raises(SpecError):
        build_problem(raw)


def test_quotient_not_smaller_rejected():
    raw = _fixture_raw("ex_ps")
    raw["quotient_states"] = ["y1", "y2"]
    raw["g0"] = ["0", "0"]
    raw["g"] = [["1", "0"]]
    raw["gamma"] = []
    raw["vtilde"] = "1/2*y1^2 + 1/2*y2^2"
    with pytest.raises(SpecError):
        build_problem(raw)


def test_undeclared_identifier_rejected():
    raw = _fixture_raw("ex_ps")
    raw["f0"] = ["0", "-x3"]
    with pytest.raises(SpecError) as err:
        build_problem(raw)
    assert "f0[1]" in str(err.value)


def test_validate_and_quotient_commands():
    p = _problem("ex_ps")
    report, code = run("validate", p)
    assert code == EXIT_OK and report["verdict"] == "VALID"
    report, code = run("quotient", p)
    assert code == EXIT_OK and report["verdict"] == "QUOTIENT_VERIFIED"
    assert report["quotient"]["w"] == "-y1^2"


def test_quotient_mismatch_is_input_error():
    raw = _fixture_raw("ex_ps")
    raw["beta"] = [["2"]]
    p = build_problem(raw)
    with pytest.raises(SpecError):
        run("quotient", p)


def test_intermediate_commands_ex_ps():
    for command, verdict in (
        ("integrability", "LIFTABLE"),
        ("lift", "LIFTED"),
        ("synthesize", "SYNTHESIZED"),
        ("simulate", "LIFTABLE_AND_VERIFIED"),
    ):
        report, code = run(command, _problem("ex_ps"))
        assert code == EXIT_OK and report["verdict"] == verdict


def test_report_ex_ps_verified():
    report, code = run("report", _problem("ex_ps"))
    assert code == EXIT_OK
    assert report["verdict"] == "LIFTABLE_AND_VERIFIED"
    assert report["lift"]["coefficients"] == {"(0, 2)": "1/2"}
    assert report["feedback"]["symbolic"] == ["-2*x1"]
    assert report["simulation"]["final_norm"] <= 1e-3


def test_report_ex_di_stops_before_lift():
    report, code = run("report", _problem("ex_di"))
    assert code == EXIT_NOT_LIFTABLE
    assert report["verdict"] == "NOT_LIFTABLE(consistency)"
    assert report["reasons"] == ["consistency"]
    assert report["lift"] is None and report["feedback"] is None
    # every negative verdict carries a concrete witness
    assert report["integrability"]["failures"]


def test_integrability_ex_curv_flatness():
    report, code = run("integrability", _problem("ex_curv"))
    assert code == EXIT_NOT_LIFTABLE
    assert "flatness" in report["reasons"]
    assert report["integrability"]["flat_offenders"]["F[3](1,2)"] == "-1"


def test_report_determinism():
    texts = []
    for _ in range(2):
        report, _ = run("report", _problem("ex_ps"))
        texts.append(json.dumps(report, indent=2, sort_keys=True))
    assert texts[0] == texts[1]


def test_symbol_section_ex_fa():
    report, code = run("integrability", _problem("ex_fa"))
    assert code == EXIT_OK
    symbol = report["integrability"]["symbol"]
    assert symbol["dim_g1"] == 1 and symbol["dim_g2"] == 1
    assert symbol["quasi_regular"] and symbol["permutation"] == [2, 1]


def test_user_complement_and_projection():
    raw = _fixture_raw("ex_ps")
    raw["d"] = [["0", "1"]]
    raw["p_d"] = [["0", "1"]]
    p = build_problem(raw)
    report, code = run("report", p)
    assert code == EXIT_OK and report["verdict"] == "LIFTABLE_AND_VERIFIED"


def test_report_non_constant_complement_determinant():
    # det[C | D] = 1 + 1/2*x1^2: P_D is rational, the lift and its checks stay exact
    raw = _fixture_raw("ex_ps")
    raw["d"] = [["0", "1 + 1/2*x1^2"]]
    report, code = run("report", build_problem(raw))
    assert code == EXIT_OK and report["verdict"] == "LIFTABLE_AND_VERIFIED"
    assert report["lift"]["coefficients"] == {"(0, 2)": "1/2"}


def test_user_projection_must_annihilate_controls():
    raw = _fixture_raw("ex_ps")
    raw["d"] = [["0", "1"]]
    raw["p_d"] = [["1", "1"]]  # does not kill the control column
    p = build_problem(raw)
    with pytest.raises(SpecError):
        run("report", p)


def test_definiteness_failure_reported():
    raw = _fixture_raw("ex_ps")
    raw["f0"] = ["0", "x2"]  # unstable fibre dynamics the input cannot reach
    report, code = run("report", build_problem(raw))
    assert code == EXIT_NOT_LIFTABLE
    assert report["verdict"] == "NOT_LIFTABLE(definiteness)"
    # the formal solve goes through and pins the indefinite coefficient
    assert report["lift"]["coefficients"] == {"(0, 2)": "-1/2"}
    assert report["lift"]["witness"] is not None
    json.dumps(report)  # report stays serializable on this path


def test_option_overrides():
    raw = _fixture_raw("ex_ps")
    p = build_problem(raw, {"order": 4, "h": 0.02})
    assert p.options.order == 4 and p.options.h == 0.02


def test_main_report_exit_codes(tmp_path, capsys):
    spec = str(fixture_path("ex_ps"))
    out = tmp_path / "report.json"
    code = main(["report", "--spec", spec, "--out", str(out), "--trajectories", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "LIFTABLE_AND_VERIFIED"
    csv_files = list(tmp_path.glob("*_trajectory_0.csv"))
    assert len(csv_files) == 1
    assert csv_files[0].read_text().splitlines()[0] == "t,x1,x2,u1,Vstar"
    summary = capsys.readouterr().err
    assert "LIFTABLE_AND_VERIFIED" in summary


def test_main_not_liftable_exit(capsys):
    code = main(["report", "--spec", str(fixture_path("ex_di"))])
    assert code == EXIT_NOT_LIFTABLE
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["verdict"] == "NOT_LIFTABLE(consistency)"


def test_main_missing_file_is_input_error(tmp_path, capsys):
    code = main(["report", "--spec", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT


def test_main_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", "--spec", str(bad)])
    assert code == EXIT_INPUT


def test_main_quotient_mismatch_exit(tmp_path, capsys):
    raw = _fixture_raw("ex_ps")
    raw["beta"] = [["2"]]
    path = tmp_path / "bad_quotient.json"
    path.write_text(json.dumps(raw))
    code = main(["report", "--spec", str(path)])
    assert code == EXIT_INPUT
    assert "not a quotient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, options, f0, states",
    [
        (["--grid", "0"], None, None, None),
        (["--grid", "1"], None, None, None),
        ([], {"symbol_seed": 0}, None, None),
        (["--h", "0"], None, None, None),
        (["--h", "0.1", "--horizon", "0.01"], None, None, None),
        (["--order", "30"], None, None, None),
        ([], {"order": "six"}, None, None),
        ([], {"x0": 5}, None, None),
        ([], None, ["0", "x1^30"], None),
        ([], {"x0": [1e200, 1]}, None, None),
        ([], {"x0": [float("nan"), 1]}, None, None),
        ([], None, None, [1, 2]),
    ],
    ids=[
        "grid-0",
        "grid-1",
        "options-unknown-key",
        "h-0",
        "horizon-below-h",
        "order-30",
        "order-six",
        "x0-scalar",
        "f0-degree-30",
        "x0-beyond-guard",
        "x0-nan",
        "states-not-strings",
    ],
)
def test_main_bad_input_is_input_error(tmp_path, capsys, args, options, f0, states):
    raw = _fixture_raw("ex_ps")
    if options is not None:
        raw["options"] = options
    if f0 is not None:
        raw["f0"] = f0
    if states is not None:
        raw["states"] = states
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = main(["validate", "--spec", str(path), *args])
    assert code == EXIT_INPUT
    assert "[liftlyap] error:" in capsys.readouterr().err


def test_unknown_option_key_is_named():
    raw = _fixture_raw("ex_ps")
    raw["options"] = {"order": 4, "grdi": 5}
    with pytest.raises(SpecError, match="unknown key 'grdi'"):
        build_problem(raw)


@pytest.mark.parametrize("module", ["liftlyap", "liftlyap.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(liftlyap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "validate", "--spec", str(fixture_path("ex_ps"))],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "VALID"
