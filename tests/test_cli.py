"""Problem file loading, pipeline commands, exit codes, and report shape."""

import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from liftbench import gen

import liftlyap
from liftlyap import cli, integrability, numutil, synth
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
from liftlyap.parsing import parse_poly
from liftlyap.poly import MAX_MINORS, Poly, PolyMatrix, poly_det
from liftlyap.sysmodel import ControlAffineSystem


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
    """f0[1] = -x2 + 10^160*x2^3 makes P_D X huge, and vtilde = 1/2*y1^2 + 10^160*y1^4 puts about
    4e160 into X, whose square is beyond the float range; the integrability test is exact and
    evaluates nothing on the grid when it holds, so both runs reach a verdict."""
    raw = _fixture_raw("ex_ps")
    raw.update(keys)
    report, code = run("integrability", build_problem(raw))
    assert (code, report["verdict"]) == (EXIT_OK, "LIFTABLE")
    report, code = run("report", build_problem(raw))
    assert (code, report["verdict"]) == outcome


def test_consistency_does_not_depend_on_the_complement():
    """The graph form reads D only through the scale d of its rows: the automatic complement and
    the sheared one give the same consistency fields, and one with det [C | D] = 1 + x1^2/2 makes
    d = 1 + x1^2/2, which scales each gap and leaves the verdict and the failing points."""
    sections = []
    for d in (None, [["0", "1", "0"], ["0", "x1", "1"]], [["0", "1 + 1/2*x1^2", "0"], ["0", "0", "1"]]):
        raw = _fixture_raw("ex_curv")
        if d is not None:
            raw["d"] = d
        report, code = run("integrability", build_problem(raw))
        assert code == EXIT_NOT_LIFTABLE
        section = report["integrability"]
        sections.append({key: section[key] for key in ("consistent", "failures", "worst_gap", "worst_point")})
    # the identity -(X2 + x1 X3) is 3 at (-1, -1, -1)
    assert (sections[0]["worst_gap"], sections[0]["worst_point"]) == (3.0, [-1.0, -1.0, -1.0])
    assert sections[1] == sections[0]
    scaled = sections[2]
    assert (scaled["consistent"], scaled["worst_point"]) == (False, [-1.0, -1.0, -1.0])
    assert [f["point"] for f in scaled["failures"]] == [f["point"] for f in sections[0]["failures"]]
    for got, want in zip(scaled["failures"], sections[0]["failures"]):
        assert got["gap"] == want["gap"] * (1 + got["point"][0] ** 2 / 2)


def test_sheared_complement_lifts_with_the_automatic_coefficients():
    """D = (e3, e4 + x4 e3) spans the same distribution as the automatic (e3, e4); its P_D rows
    do not commute, which once read NOT_LIFTABLE(condition_a) with A[4](1,2) = 1."""
    inst = gen.liftable_flat(random.Random("flip"), "flip", 4, 2, 4)
    automatic, _ = run("report", build_problem(inst.spec))
    sheared, code = run("report", build_problem({**inst.spec, "d": [["0", "0", "1", "0"], ["0", "0", "x4", "1"]]}))
    assert (code, sheared["verdict"]) == (EXIT_OK, "LIFTABLE_AND_VERIFIED")
    assert sheared["lift"]["coefficients"] == automatic["lift"]["coefficients"] == inst.coefficients
    assert sheared["integrability"] == automatic["integrability"]


CROSS_BLOCK = {
    "name": "cross-block",
    "states": ["x1", "x2", "x3"],
    "inputs": ["u1"],
    "quotient_states": ["y1"],
    "quotient_inputs": ["v1"],
    "f0": ["0", "-x2 + x1*x2", "-x3"],
    "f": [["1", "0", "0"]],
    "g0": ["0"],
    "g": [["1"]],
    "varphi": ["0"],
    "beta": [["1"]],
    "gamma": [["0"], ["0"]],
    "vtilde": "1/2*y1^2",
    "alpha": ["-y1"],
}


@pytest.mark.parametrize("order", [2, 3, 4, 6, 8])
def test_fibre_drift_reading_the_base_is_not_liftable(order, tmp_path, capsys):
    """The VM block says d1 V = 0 and the D block d2 V = x2 - x1 x2, so d1 d2 V = -x2 != d2 d1 V:
    a D row paired with a VM row.  No check saw it before, and the lift then failed."""
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(CROSS_BLOCK))
    assert main(["integrability", "--spec", str(path), "--order", str(order)]) == EXIT_NOT_LIFTABLE
    section = json.loads(capsys.readouterr().out)["integrability"]
    assert (section["verdict"], section["reasons"]) == ("NOT_LIFTABLE", ["condition_b"])
    assert section["condition_b_offenders"] == {"B(1,2)": "-x2"}


def test_rank_drop_at_the_origin_is_input_error(tmp_path, capsys):
    """f = (x1, 1) and beta = x1: the D row (1, -x1) and the VM row (1, x1) agree only at the
    origin, so no graph form holds there; the run names the row and exits 1."""
    raw = _fixture_raw("ex_ps")
    raw.update(f=[["x1", "1"]], beta=[["x1"]])
    path = tmp_path / "drop.json"
    path.write_text(json.dumps(raw))
    for command in ("integrability", "report"):
        assert main([command, "--spec", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "[liftlyap] error:" in err and "row vm[1]" in err and "Traceback" not in err


@pytest.mark.parametrize("rtol", [1e-3, 1e-15])
def test_integrability_verdict_does_not_rest_on_float_rounding(monkeypatch, rtol):
    keys = ("verdict", "reasons", "flat_offenders", "condition_a_offenders", "condition_b_offenders", "consistent")
    expected = {}
    for name in ("ex_ps", "ex_di", "ex_fa", "ex_curv"):
        expected[name] = {key: run("integrability", _problem(name))[0]["integrability"][key] for key in keys}
    monkeypatch.setattr(numutil, "RANK_RTOL", rtol)
    for name in ("ex_ps", "ex_di", "ex_fa", "ex_curv"):
        section = run("integrability", _problem(name))[0]["integrability"]
        assert {key: section[key] for key in keys} == expected[name]


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


@pytest.mark.parametrize(
    "spec", [_fixture_raw("ex_ps"), gen.instance("lift-exact", 7, 0).spec], ids=["ex_ps", "lift-exact-7-0"]
)
def test_report_builds_one_graph_form(spec, monkeypatch):
    """The lift solves the graph form that the integrability check built, so a report builds it once."""
    calls = []
    build = integrability.graph_form

    def counted(rs):
        calls.append(rs)
        return build(rs)

    monkeypatch.setattr(integrability, "graph_form", counted)
    report, code = run("report", build_problem(spec))
    assert (report["verdict"], code, len(calls)) == ("LIFTABLE_AND_VERIFIED", EXIT_OK, 1)


def test_build_problem_parses_each_distinct_string_once(monkeypatch):
    """One parse per distinct (text, variables) pair in a build_problem call, and none kept after it."""
    fields, parses = [], Counter()
    parse_field, parse = cli._parse_field, cli.parse_poly

    def counted_field(text, variables, *args):
        fields.append(text)
        return parse_field(text, variables, *args)

    def counted_parse(text, variables):
        parses[text, tuple(variables)] += 1
        return parse(text, variables)

    monkeypatch.setattr(cli, "_parse_field", counted_field)
    monkeypatch.setattr(cli, "parse_poly", counted_parse)
    spec = gen.instance("obstruct-wide", 7, 0).spec
    build_problem(spec)
    assert set(parses.values()) == {1} and len(fields) > len(parses)
    build_problem(spec)
    assert set(parses.values()) == {2}


def test_repeated_malformed_string_names_the_first_field():
    raw = _fixture_raw("ex_ps")
    raw["f0"] = ["x1 +", "x1 +"]
    with pytest.raises(SpecError, match=r"^f0\[0\]: "):
        build_problem(raw)


def test_feedback_residual_is_validation_failure(monkeypatch):
    def unsolvable(*args, **kwargs):
        raise synth.FeedbackResidualError("feedback residual forced")

    monkeypatch.setattr(synth, "solve_feedback", unsolvable)
    report, code = run("report", _problem("ex_ps"))
    verdict = "LIFTED_BUT_VALIDATION_FAILED(feedback)"
    _assert_stopped_at(report, code, verdict, "feedback", EXIT_VALIDATION, "feedback")
    assert report["feedback"] == {"error": "feedback residual forced"}


def test_feedback_degree_cap_is_input_error(monkeypatch, capsys):
    # normal equations F^T F of degree 26, beyond DEGREE_CAP: exit 1, as every other cap
    solve = synth.solve_feedback
    column = (parse_poly("1 - x1^13", ["x1", "x2"]), parse_poly("x1^13", ["x1", "x2"]))
    capped = ControlAffineSystem(2, 1, (Poly.zero(2),) * 2, (column,))
    monkeypatch.setattr(synth, "solve_feedback", lambda sys, rhs: solve(capped, rhs))
    code = main(["report", "--spec", str(fixture_path("ex_ps"))])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "[liftlyap] error: product degree 26 exceeds cap 24" in err and "Traceback" not in err


@pytest.mark.parametrize("power, code", [(11, EXIT_OK), (12, EXIT_INPUT)])
def test_normal_equations_past_the_degree_budget_is_input_error(monkeypatch, tmp_path, capsys, power, code):
    """The second input column (0, 1 - x2^k, x2) makes det F_S = 1 - x2^k, not evidently positive, so the
    feedback takes F^T F, whose det has degree 2k.  At k = 12 the budget 2k + deg rhs passes DEGREE_CAP:
    the product adj(F^T F) F^T rhs has degree 25, and the problem file exits 1 with no traceback."""
    spec = gen.liftable_flat(random.Random("fb"), "fb", 3, 1, 4).spec
    spec["f"] = [*spec["f"], ["0", f"1 - x2^{power}", "x2"]]
    spec["inputs"] = ["u1", "u2"]
    spec["beta"] = [["1", "0"]]
    spec["d"] = [["0", "-x2", f"1 - x2^{power}"]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    dets = []
    monkeypatch.setattr(synth, "poly_det", lambda mat: dets.append(poly_det(mat)) or dets[-1])
    assert main(["report", "--spec", str(path)]) == code
    assert [det.degree() for det in dets] == [power, 2 * power]  # det F_S, then det(F^T F)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_INPUT:
        assert "[liftlyap] error: product degree 25 exceeds cap 24" in err
    else:
        assert "LIFTABLE_AND_VERIFIED" in err


def test_cofactor_expansion_limit_is_input_error(monkeypatch, capsys):
    # a dense non-constant 11x11 determinant takes about e 11! minors: exit 1 naming the size, no traceback
    dense = PolyMatrix(
        [[parse_poly(f"{int(i == j)} + {i + 1}*x1 + {j + 1}*x2", ["x1", "x2"]) for j in range(11)] for i in range(11)]
    )
    monkeypatch.setattr(synth, "solve_feedback", lambda sys, rhs: poly_det(dense))
    code = main(["report", "--spec", str(fixture_path("ex_ps"))])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    message = f"the cofactor expansion of a polynomial matrix of size 11x11 takes more than {MAX_MINORS} minors"
    assert f"[liftlyap] error: {message}" in err and "Traceback" not in err


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


def test_near_singular_constant_frame_is_decided_exactly(tmp_path, capsys):
    """The constant fields (1, 0, 0) and (1, 10^-12, 0) span a plane, though their float rank falls
    under RANK_RTOL: the exact rank at the origin keeps the frame, and the problem lifts."""
    spec = {
        "name": "near-singular",
        "states": ["x1", "x2", "x3"],
        "inputs": ["u1", "u2"],
        "quotient_states": ["y1"],
        "quotient_inputs": ["v1"],
        "f0": ["0", "-x2", "-x3"],
        "f": [["1", "0", "0"], ["1", "1/1000000000000", "0"]],
        "g0": ["0"],
        "g": [["1"]],
        "varphi": ["0"],
        "beta": [["1", "1"]],
        "gamma": [["0"], ["0"]],
        "vtilde": "1/2*y1^2",
        "alpha": ["-y1"],
    }
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_text(json.dumps(spec))
    assert main(["report", "--spec", str(path), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "LIFTABLE_AND_VERIFIED"
    assert payload["lift"]["coefficients"] == {"(0, 0, 2)": "1/2", "(0, 2, 0)": "1/2"}
    assert "Traceback" not in capsys.readouterr().err


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
        ("validate", [], {"x0": "11"}, {}),
        ("validate", [], {"x0": ["1", 1]}, {}),
        ("validate", [], {"h": True}, {}),
        ("validate", [], {"grid": "3"}, {}),
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
        # EX-DI, whose consistency identity -X1 reads about 2e308 at x1 = +-1 with this alpha
        (
            "integrability",
            [],
            None,
            {
                "f0": ["x2", "0"],
                "f": [["0", "1"]],
                "varphi": ["x2"],
                "beta": [["0"]],
                "alpha": ["-y1 - 1" + "0" * 308 + "*y1^3 - 1" + "0" * 308 + "*y1^5"],
            },
        ),
        ("integrability", [], None, {"f": [["1", "1" + "0" * 308 + "*x1^2 + 1" + "0" * 308 + "*x1^4"]]}),
        ("integrability", [], None, {"d": [["0", "1 + 1" + "0" * 308 + "*x1^2 + 1" + "0" * 308 + "*x1^4"]]}),
        ("validate", [], None, {"f0": ["x1^\u00b2", "0"]}),
        ("validate", [], None, {"f0": ["1/\u00b2", "0"]}),
        ("validate", [], None, {"f0": ["1.\u00b2", "0"]}),
        ("report", [], None, {"states": ["x 1", "x2"]}),
        ("report", [], None, {"inputs": [""]}),
        ("report", [], None, {"quotient_inputs": ["2x"]}),
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
        "x0-string",
        "x0-entry-string",
        "h-boolean",
        "grid-string",
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
        "consistency-identity-beyond-float",
        "frame-value-beyond-float",
        "complement-value-beyond-float",
        "f0-superscript-exponent",
        "f0-superscript-denominator",
        "f0-superscript-decimal",
        "state-name-with-space",
        "input-name-empty",
        "quotient-input-name-digit-first",
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
    if options is not None:  # a refused option is named
        assert any(re.search(rf"\b{key}\b", err) for key in options)


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


@pytest.mark.parametrize(
    "options, named",
    [({"h": 10**400}, "h"), ({"horizon": 10**400}, "horizon"), ({"x0": [1, -(10**400)]}, "x0[1]")],
    ids=["h", "horizon", "x0-entry"],
)
def test_integer_option_beyond_float_is_named(tmp_path, capsys, options, named):
    raw = _fixture_raw("ex_ps")
    raw["options"] = options
    with pytest.raises(SpecError, match=re.escape(f"'options': {named} is beyond the float range")):
        build_problem(raw)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--spec", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"[liftlyap] error: 'options': {named} is beyond the float range" in err and "Traceback" not in err


def test_whole_float_order_and_grid_are_accepted():
    raw = _fixture_raw("ex_ps")
    raw["options"] = {"order": 4.0, "grid": 3.0, "h": 1, "x0": [1, 0.5]}
    options = build_problem(raw).options
    assert (options.order, options.grid_per_axis, options.h, options.x0) == (4, 3, 1.0, [1.0, 0.5])


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
