"""Problem file loading, pipeline commands, exit codes, and report shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftlyap
from liftlyap import lift, synth
from liftlyap.cli import (
    EXIT_INPUT,
    EXIT_NOT_LIFTABLE,
    EXIT_OK,
    EXIT_VALIDATION,
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
    assert report["simulation"]["monotone_violation"] is None
    assert report["simulation"]["analytic_witness"] is None


@pytest.mark.parametrize("coeff", ["10000000000", "1" + "0" * 20])
def test_large_right_hand_side_stays_consistent(coeff):
    """f0[1] = -x2 + c*x2^3 makes b huge at most points; [M | b] ranked against
    its own largest singular value then lost M and read NOT_LIFTABLE(consistency)."""
    raw = _fixture_raw("ex_ps")
    raw["f0"] = ["0", f"-x2 + {coeff}*x2^3"]
    report, code = run("integrability", build_problem(raw))
    assert (code, report["verdict"]) == (EXIT_OK, "LIFTABLE")
    assert report["integrability"]["failures"] == []


@pytest.mark.parametrize(
    ("keys", "outcome"),
    [
        ({"f0": ["0", "-x2 + 1" + "0" * 160 + "*x2^3"]}, (EXIT_NOT_LIFTABLE, "NOT_LIFTABLE(definiteness)")),
        ({"vtilde": "1/2*y1^2 + 1" + "0" * 160 + "*y1^4"}, (EXIT_VALIDATION, "LIFTED_BUT_VALIDATION_FAILED(simulation)")),
    ],
    ids=["f0", "vtilde"],
)
def test_right_hand_side_beyond_the_squared_float_range_is_decided(keys, outcome):
    """f0[1] = -x2 + 10^160*x2^3 makes P_D X huge, which the consistency check does not read, and
    vtilde = 1/2*y1^2 + 10^160*y1^4 makes beta = P_VM^T X about 4e160, whose square is beyond the
    float range; the row norms are taken with hypot, so both runs reach a verdict."""
    raw = _fixture_raw("ex_ps")
    raw.update(keys)
    report, code = run("integrability", build_problem(raw))
    assert (code, report["verdict"]) == (EXIT_OK, "LIFTABLE")
    report, code = run("report", build_problem(raw))
    assert (code, report["verdict"]) == outcome


def test_consistency_does_not_depend_on_the_complement():
    """A = P_VM^T C and beta = P_VM^T X read neither D nor P_D, so the automatic complement
    and two user ones, one with a non-constant det [C | D], give the same consistency fields."""
    sections = []
    for d in (None, [["0", "1", "0"], ["0", "x1", "1"]], [["0", "1 + 1/2*x1^2", "0"], ["0", "0", "1"]]):
        raw = _fixture_raw("ex_curv")
        if d is not None:
            raw["d"] = d
        report, code = run("integrability", build_problem(raw))
        assert code == EXIT_NOT_LIFTABLE
        section = report["integrability"]
        sections.append({key: section[key] for key in ("consistent", "failures", "worst_gap", "worst_point")})
    # |beta_2| = 3 at (-1, -1, -1), divided by |P_VM column 2| * |C|_F = sqrt(2) * 1
    assert abs(sections[0]["worst_gap"] - 3 / 2**0.5) <= 1e-15
    assert sections[1] == sections[0] and sections[2] == sections[0]


def test_quotient_decrease_witness_is_an_exact_grid_point():
    raw = _fixture_raw("ex_ps")
    raw["alpha"] = ["-y1 + 3*y1^2"]  # W = -y1^2 + 3*y1^3 >= 0 from y1 = 1/3
    with pytest.raises(SpecError, match=r"W is not negative at grid point \('1/3',\)$"):
        run("quotient", build_problem(raw, {"grid_per_axis": 4}))


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


def _assert_stopped_at(report, code, verdict, reason, exit_code, key):
    """The run ended at section ``key`` with this verdict; no later section ran."""
    assert (report["verdict"], report["reasons"], code) == (verdict, [reason], exit_code)
    order = ["quotient", "integrability", "lift", "feedback", "simulation"]
    assert report[key] is not None
    assert all(report[later] is None for later in order[order.index(key) + 1 :])


def test_lift_infeasible_is_not_liftable(monkeypatch):
    def infeasible(*args, **kwargs):
        raise lift.JetInfeasibleError("forced", "d[2] @ x^(0, 2)")

    monkeypatch.setattr(lift, "solve_jets", infeasible)
    report, code = run("report", _problem("ex_ps"))
    verdict = "NOT_LIFTABLE(lift_infeasible)"
    _assert_stopped_at(report, code, verdict, "lift_infeasible", EXIT_NOT_LIFTABLE, "lift")
    assert report["lift"] == {"infeasible": True, "witness": "d[2] @ x^(0, 2)"}


def test_feedback_residual_is_validation_failure(monkeypatch):
    def unsolvable(*args, **kwargs):
        raise synth.FeedbackResidualError("feedback residual forced")

    monkeypatch.setattr(synth, "solve_feedback", unsolvable)
    report, code = run("report", _problem("ex_ps"))
    verdict = "LIFTED_BUT_VALIDATION_FAILED(feedback)"
    _assert_stopped_at(report, code, verdict, "feedback", EXIT_VALIDATION, "feedback")
    assert report["feedback"] == {"error": "feedback residual forced"}


def test_divergent_simulation_is_validation_failure():
    raw = _fixture_raw("ex_ps")
    raw["options"] = {"h": 2, "horizon": 40}  # RK4 is unstable at this step for the -2*x1 loop
    report, code = run("report", build_problem(raw))
    verdict = "LIFTED_BUT_VALIDATION_FAILED(simulation)"
    _assert_stopped_at(report, code, verdict, "simulation", EXIT_VALIDATION, "simulation")
    assert report["simulation"] == {"error": "state norm exceeded 1e+06 at t=18.000"}


def test_sampled_increase_is_decrease_failure():
    raw = _fixture_raw("ex_ps")
    raw["options"] = {"h": 1.4, "horizon": 5}  # stable but overshooting steps
    report, code = run("report", build_problem(raw))
    verdict = "LIFTED_BUT_VALIDATION_FAILED(decrease)"
    _assert_stopped_at(report, code, verdict, "decrease", EXIT_VALIDATION, "simulation")
    assert report["simulation"]["vstar_monotone"] is False
    assert report["simulation"]["analytic_negative"] is True
    # the witness: the first step at which V* did not decrease
    violation = report["simulation"]["monotone_violation"]
    assert set(violation) == {"t", "vstar", "next_vstar"}
    assert violation["next_vstar"] >= violation["vstar"] > 0
    assert round(violation["t"] / 1.4) * 1.4 == pytest.approx(violation["t"])
    assert report["simulation"]["analytic_witness"] is None


@pytest.mark.parametrize(
    "name, csv_name",
    [
        ("../../escaped", "_.._escaped_trajectory_0.csv"),
        ("lift-exact/seed=7/#0", "lift-exact_seed_7__0_trajectory_0.csv"),
    ],
)
def test_trajectory_csv_stays_in_its_directory(tmp_path, name, csv_name):
    raw = _fixture_raw("ex_ps")
    raw["name"] = name
    out_dir = tmp_path / "a" / "b" / "out"
    report, code = run("report", build_problem(raw), str(out_dir))
    assert code == EXIT_OK
    assert report["simulation"]["csv"] == str(out_dir / csv_name)
    assert list(tmp_path.rglob("*.csv")) == [out_dir / csv_name]


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


def test_main_spec_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code = main(["validate", "--spec", str(bad)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "not valid UTF-8" in err and "Traceback" not in err


def test_main_quotient_mismatch_exit(tmp_path, capsys):
    raw = _fixture_raw("ex_ps")
    raw["beta"] = [["2"]]
    path = tmp_path / "bad_quotient.json"
    path.write_text(json.dumps(raw))
    code = main(["report", "--spec", str(path)])
    assert code == EXIT_INPUT
    assert "not a quotient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, args, options, keys",
    [
        ("validate", ["--grid", "0"], None, {}),
        ("validate", ["--grid", "1"], None, {}),
        ("validate", [], {"symbol_seed": 0}, {}),
        ("validate", ["--h", "0"], None, {}),
        ("validate", ["--h", "0.1", "--horizon", "0.01"], None, {}),
        ("validate", ["--order", "30"], None, {}),
        ("validate", [], {"order": "six"}, {}),
        ("validate", [], {"x0": 5}, {}),
        ("validate", [], None, {"f0": ["0", "x1^30"]}),
        ("validate", [], {"x0": [1e200, 1]}, {}),
        ("validate", [], {"x0": [float("nan"), 1]}, {}),
        ("validate", [], None, {"states": [1, 2]}),
        ("validate", ["--grid", "100000"], None, {}),
        ("validate", [], {"horizon": float("inf")}, {}),
        ("validate", ["--horizon", "inf"], None, {}),
        ("validate", ["--h", "1e-6"], None, {}),
        ("validate", [], {"order": 4.9}, {}),
        ("validate", [], {"grid": 2.7}, {}),
        ("validate", ["--grid", "2.7"], None, {}),
        ("validate", [], None, {"g": 5}),
        ("validate", [], None, {"beta": 5}),
        ("validate", [], None, {"name": 5}),
        ("validate", [], None, {"f0": ["0", "(" * 250 + "x1" + ")" * 250]}),
        ("validate", [], None, {"f0": ["0", "2^100000000"]}),
        ("validate", [], None, "[" * 100000),
        ("report", [], None, {"vtilde": "1/2*y1^2 + y1^20", "alpha": ["-y1 - y1^15"]}),
        ("validate", [], None, {"vtilde": "1/2*y1^2 + 1" + "0" * 400 + "*y1^4"}),
        ("validate", [], None, {"f0": ["0", "-x2 + 1" + "0" * 400 + "*x1^3"]}),
        ("report", [], None, {"vtilde": "1/2*y1^2 + 1" + "0" * 308 + "*y1^2"}),
        # X1 and X2 about 1.6e308 at a corner, and gamma = 1 adds them in beta = (X1 + X2)/sqrt(2)
        (
            "integrability",
            [],
            None,
            {
                "gamma": [["1"]],
                "vtilde": "1/2*y1^2 + 4" + "0" * 307 + "*y1^4",
                "f0": ["0", "-x2 + 16" + "0" * 307 + "*x2^3"],
            },
        ),
        ("integrability", [], None, {"f": [["1", "1" + "0" * 308 + "*x1^2 + 1" + "0" * 308 + "*x1^4"]]}),
        ("integrability", [], None, {"d": [["0", "1 + 1" + "0" * 308 + "*x1^2 + 1" + "0" * 308 + "*x1^4"]]}),
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
        "grid-points-above-cap",
        "horizon-infinite",
        "horizon-flag-inf",
        "steps-above-cap",
        "order-fractional",
        "grid-fractional",
        "grid-flag-not-int",
        "g-not-list",
        "beta-not-list",
        "name-not-string",
        "f0-nested-250",
        "f0-constant-power-huge",
        "json-nested-100000",
        "derived-degree-above-cap",
        "vtilde-coefficient-beyond-float",
        "f0-coefficient-beyond-float",
        "vtilde-derived-value-beyond-float",
        "consistency-row-norm-beyond-float",
        "frame-value-beyond-float",
        "complement-value-beyond-float",
    ],
)
def test_main_bad_input_is_input_error(request, tmp_path, capsys, command, args, options, keys):
    # keys is either top-level keys to replace in EX-PS or the whole file as text
    if isinstance(keys, str):
        text = keys
    else:
        raw = _fixture_raw("ex_ps")
        if options is not None:
            raw["options"] = options
        raw.update(keys)
        text = json.dumps(raw)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main([command, "--spec", str(path), *args])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "[liftlyap] error:" in err and "Traceback" not in err
    if request.node.callspec.id.endswith("-beyond-float"):
        assert "beyond the float range" in err


def test_main_unknown_command_is_input_error(capsys):
    # argparse alone would exit 2, which reads as NOT_LIFTABLE
    code = main(["bogus", "--spec", str(fixture_path("ex_ps"))])
    assert code == EXIT_INPUT
    assert "[liftlyap] error:" in capsys.readouterr().err


def test_main_out_in_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["validate", "--spec", str(fixture_path("ex_ps")), "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "[liftlyap] error:" in err and "Traceback" not in err
    assert not out.exists()


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
