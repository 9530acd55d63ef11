import json
import os
import subprocess
import sys
import tempfile

import pytest
from conftest import _assert_golden

from planegalois.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, render_report, run_command
from planegalois.maps import LineMobius
from planegalois.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_from_json,
)


def _tmpfile(data) -> str:
    fh = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    json.dump(data, fh)
    fh.close()
    return fh.name


CONIC_FILE = {
    "field": {"kind": "rational"},
    "curve": {"implicit": "X^2 - Y*Z"},
    "point": ["1", "0", "0"],
}


def test_builtin_names():
    assert BUILTIN_NAMES == ("cubic-char3", "cubic-omega", "quartic-i", "quintic-zeta5")


def test_load_builtin_scenarios():
    cubic = load_scenario("cubic-omega")
    assert cubic.field.descriptor.n == 3
    assert cubic.point.coords[0] == cubic.field.one()
    assert len(cubic.generators) == 1
    quintic = load_scenario("quintic-zeta5")
    assert quintic.field.descriptor.n == 5
    assert quintic.curve.param.degree == 7
    gen = quintic.generators[0]
    assert isinstance(gen, LineMobius)


def test_load_scenario_missing():
    with pytest.raises(ScenarioError):
        load_scenario("no-such-scenario")


def test_scenario_file_validation():
    path = _tmpfile({"field": {"kind": "rational"}, "curve": {"implicit": "X"}, "point": ["0", "0", "0"]})
    try:
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert "projective point" in str(err.value)
    finally:
        os.unlink(path)
    for field in (
        {"kind": "weird"},
        {"kind": "cyclotomic"},
        {"kind": "cyclotomic", "n": 2},
        {"kind": "cyclotomic", "n": 65},
        {"kind": "cyclotomic", "n": None},
        {"kind": "prime"},
        {"kind": "prime", "p": 9},
    ):
        with pytest.raises(ScenarioError):
            scenario_from_json({"field": field, "curve": {"implicit": "X"}, "point": ["1", "0", "0"]})
    with pytest.raises(ScenarioError):
        scenario_from_json(
            {"field": {"kind": "rational"}, "curve": {"implicit": "X + Y^2"}, "point": ["1", "0", "0"]}
        )
    with pytest.raises(ScenarioError):
        scenario_from_json(
            {
                "field": {"kind": "rational"},
                "curve": {"implicit": "X"},
                "point": ["1", "0", "0"],
                "generators": [[["1", "0"], ["0", "0"]]],
            }
        )


def test_run_command_exit_codes():
    assert run_command(["verify", "no-such-scenario"]) == EXIT_INPUT
    assert run_command(["verify", "cubic-omega"]) == EXIT_OK
    # numeric flags out of range are input errors, not failed verifications
    assert run_command(["verify", "cubic-omega", "--degree-bound", "-1"]) == EXIT_INPUT
    assert run_command(["verify", "cubic-omega", "--precision-budget", "0"]) == EXIT_INPUT
    path = _tmpfile(CONIC_FILE)
    try:
        assert run_command(["galois", "test", path, "--point", "1,0,0"]) == EXIT_OK
        assert run_command(["curve", "info", path]) == EXIT_OK
        # without a parametrization the reduction report marks rationality unknown
        assert run_command(["cremona", "reduce", path]) == EXIT_OK
    finally:
        os.unlink(path)
    # degenerate projections from [1:0:0] are input errors, not tracebacks
    for implicit in ("Y - 3*Z", "(X - 2*Y)^2*(X - 3*Z)"):
        path = _tmpfile({"field": {"kind": "rational"}, "curve": {"implicit": implicit}, "point": ["1", "0", "0"]})
        try:
            assert run_command(["galois", "test", path, "--point", "1,0,0"]) == EXIT_INPUT
            assert run_command(["verify", path]) == EXIT_INPUT
        finally:
            os.unlink(path)
    # a quartic deck over F_5: the multiplicity-bound resultants need no interpolation nodes
    path = _tmpfile(
        {
            "field": {"kind": "prime", "p": 5},
            "curve": {"param": ["2*u^4 - 3*u^3*v - u^2*v^2 + 2*u*v^3 - 2*v^4", "u^4", "v^4"]},
            "point": ["1", "0", "0"],
            "generators": [[["2", "0"], ["0", "1"]]],
        }
    )
    try:
        assert run_command(["galois", "test", path, "--point", "1,0,0"]) == EXIT_OK
        assert run_command(["verify", path]) == EXIT_OK
    finally:
        os.unlink(path)


def test_verify_conic_over_f2():
    # characteristic 2: the deck element u -> u + v of a conic over F_2 extends as a de Jonquieres map
    path = _tmpfile(
        {
            "field": {"kind": "prime", "p": 2},
            "curve": {"implicit": "X^2 + Y^2 + X*Z", "param": ["u^2", "u^2 + u*v", "v^2"]},
            "point": ["1", "0", "0"],
            "generators": [[["1", "1"], ["0", "1"]]],
        }
    )
    try:
        assert run_command(["verify", path]) == EXIT_OK
        with open(path, "r", encoding="utf-8") as fh:
            report = run_scenario(scenario_from_json(json.load(fh), name=path), seed=0)
    finally:
        os.unlink(path)
    assert report["galois"] is True and report["group_order"] == 2
    verdicts = {e["label"]: e["verdict"] for e in report["extensions"]}
    assert verdicts == {"identity": "jonquieres", "generator": "jonquieres"}
    witness = report["extensions"][1]["witness"]
    assert witness[0]["mobius_over_base"] == {"alpha": "0", "beta": "y^2", "gamma": "1", "delta": "0"}
    assert witness[1]["plane_map"] == ["Y^2", "X*Y", "X*Z"]


def test_param_only_f3_cubic_verifies(capsys):
    # implicitizing over F_3 needs no sample points: the built-in cubic-char3
    # given by its parametrization alone verifies like the built-in
    path = _tmpfile(
        {
            "field": {"kind": "prime", "p": 3},
            "curve": {"param": ["v^3", "u^3", "u^2*v - v^3"]},
            "point": ["1", "0", "0"],
            "generators": [[["1", "0"], ["1", "1"]]],
        }
    )
    try:
        assert run_command(["curve", "info", path, "--json"]) == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert run_command(["verify", path, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
    finally:
        os.unlink(path)
    assert info["implicit"] == "X^3 + 2*X*Y^2 + Z^3"
    assert report["galois"] is True and report["group_order"] == 3
    assert [e["verdict"] for e in report["extensions"]] == ["jonquieres"] * 3


def test_cli_conic_galois_test_subprocess():
    path = _tmpfile(CONIC_FILE)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "planegalois", "galois", "test", path, "--point", "1,0,0", "--json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["extension_degree"] == 2
        assert report["galois"] is True
        verdicts = {e["label"]: e["verdict"] for e in report["extensions"]}
        assert verdicts == {"identity": "jonquieres", "sigma": "jonquieres"}
    finally:
        os.unlink(path)


def test_reports_are_deterministic():
    a = run_scenario(load_scenario("cubic-omega"), seed=3)
    b = run_scenario(load_scenario("cubic-omega"), seed=3)
    assert render_report(a, "json") == render_report(b, "json")
    c = run_scenario(load_scenario("cubic-char3"), seed=9)
    d = run_scenario(load_scenario("cubic-char3"), seed=9)
    assert json.dumps(c) == json.dumps(d)
    _assert_golden(run_scenario(load_scenario("cubic-char3"), seed=0), "cubic-char3")


def test_render_report_shapes():
    assert render_report({}, "json") == "{}"
    report = run_scenario(load_scenario("cubic-omega"), seed=0)
    text = render_report(report, "json")
    parsed = json.loads(text)
    assert parsed == report
    human = render_report(report, "human")
    assert "status: verified" in human
    _assert_golden(report, "cubic-omega")


def test_quartic_report_flags():
    report = run_scenario(load_scenario("quartic-i"), seed=0)
    text = render_report(report, "json")
    assert '"jonquieres": false' in text
    assert '"cremona": true' in text
    _assert_golden(report, "quartic-i")


def test_quintic_report_extendable_elements():
    report = run_scenario(load_scenario("quintic-zeta5"), seed=0)
    assert report["extendable_elements"] == ["identity"]
    assert report["jonquieres"] is False and report["cremona"] is False
    _assert_golden(report, "quintic-zeta5")


def test_verify_failure_exit_code():
    # a scenario whose expectations contradict the computation must exit 1
    sc = load_scenario("cubic-omega")
    sc.expected["curve_degree"] = 5
    from planegalois.cli import _exit_for

    report = run_scenario(sc, seed=0)
    assert report["status"] == "failed"
    assert _exit_for(report) == EXIT_FAILED


def test_scenario_user_file_without_expectations():
    data = {
        "field": {"kind": "cyclotomic", "n": 3},
        "curve": {"param": ["u*v^2 + u^2*v", "u^3", "v^3"]},
        "point": ["1", "0", "0"],
        "generators": [[["z", "0"], ["0", "1"]]],
    }
    path = _tmpfile(data)
    try:
        scenario = load_scenario(path)
        report = run_scenario(scenario, seed=0)
        assert report["status"] == "verified"
        assert report["galois"] is True
    finally:
        os.unlink(path)


def test_galois_extend_cli():
    data = {
        "field": {"kind": "cyclotomic", "n": 3},
        "curve": {"param": ["u*v^2 + u^2*v", "u^3", "v^3"]},
        "point": ["1", "0", "0"],
        "generators": [[["z", "0"], ["0", "1"]]],
    }
    path = _tmpfile(data)
    try:
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "planegalois",
                "galois",
                "extend",
                path,
                "--point",
                "1,0,0",
                "--generator",
                "0",
                "--json",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["galois"] is True
        assert all(e["verdict"] == "jonquieres" for e in payload["extensions"])
        bad = subprocess.run(
            [sys.executable, "-m", "planegalois", "galois", "extend", path, "--point", "1,0,0", "--generator", "7"],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == EXIT_INPUT
    finally:
        os.unlink(path)


def test_cremona_reduce_cli():
    data = {
        "field": {"kind": "rational"},
        "curve": {"param": ["u^2", "u*v", "v^2"], "implicit": "Y^2 - X*Z"},
        "point": ["1", "0", "0"],
    }
    path = _tmpfile(data)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "planegalois", "cremona", "reduce", path, "--json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["kodaira_pairing"] == 2 - 6
        assert payload["line_equivalence"] == "equivalent_to_line"
    finally:
        os.unlink(path)


def test_cremona_reduce_measures_the_stage_curve(capsys):
    # The linear step carries the start conic onto XY + YZ + ZX, which passes
    # once through each coordinate point; the start conic misses all three.
    data = {
        "field": {"kind": "rational"},
        "curve": {"implicit": "X^2 + Y^2 + Z^2 + 3*X*Y + 3*X*Z + 3*Y*Z"},
        "chain": {
            "steps": [
                {"linear": [["1", "1", "0"], ["0", "1", "1"], ["1", "0", "1"]]},
                {"std_quadratic_at": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            ]
        },
    }
    path = _tmpfile(data)
    try:
        assert run_command(["cremona", "reduce", path, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["chain_stages"] == ["X*Y + X*Z + Y*Z", "X + Y + Z"]
        assert payload["chain_replay"] is True
        assert payload["per_point_coefficients"] == [1, 1, 1]
    finally:
        os.unlink(path)
