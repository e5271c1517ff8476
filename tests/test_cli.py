import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ccm import cli, lp, market
from ccm.tolerances import EPS_LP

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_town(capsys):
    code, out, _ = run(capsys, "solve", path("town.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lindahl"
    assert np.allclose(doc["payoffs"], [0.5, 0.5], atol=1e-9)
    assert np.allclose(doc["q"], [0.5, 0.5], atol=1e-9)
    assert np.allclose(doc["p"], [[2, 0], [0, 2]], atol=1e-9)


def test_solve_is_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "solve", path("cakes.json"))
    _, out2, _ = run(capsys, "solve", path("cakes.json"))
    assert out1 == out2


def test_solve_cakes_explicit_zero_shift(capsys):
    code, out, _ = run(capsys, "solve", path("cakes.json"), "--c", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["payoffs"], [0.5, 1.0], atol=1e-6)


@pytest.mark.parametrize("name", ["town.json", "office1.json", "pair.json"])
def test_solve_tol_is_the_tolerance_checked(name, monkeypatch, capsys):
    # The certificate records eps_lp; every equilibrium check behind it must use that value.
    seen = []
    verify = market.verify_lindahl

    def spy(P, p, q, tol=EPS_LP):
        seen.append(tol)
        return verify(P, p, q, tol)

    monkeypatch.setattr(market, "verify_lindahl", spy)
    code, out, _ = run(capsys, "solve", path(name), "--tol", "1e-6")
    assert code == 0
    eps = json.loads(out)["tolerances"]["eps_lp"]
    assert eps == 1e-6
    assert seen and all(t == eps for t in seen)


def test_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "solve", path("town.json"), "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_detects_tampering(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "solve", path("town.json"), "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["p"][0][0] = 0.5
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["violations"]


def test_verify_rejects_stale_hash(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "solve", path("town.json"), "--out", str(cert))
    code, _, err = run(capsys, "verify", path("cakes.json"), str(cert))
    assert code == 1
    assert "stale" in json.loads(err)["error"]


def test_equitable_member_and_witness(capsys):
    code, out, _ = run(capsys, "equitable", path("cakes-bargaining.json"), "--point", "0.75,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "member_with_certificate"
    assert np.allclose(doc["witness"]["base"], [0.5, 0.0], atol=1e-9)


def test_equitable_non_member_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "equitable",
        path("3person.json"),
        "--point",
        "0.3333333333333333,0.3333333333333333,1",
    )
    assert code == 3
    assert json.loads(out)["status"] == "non_member_certified"
    # A dominated point is certified out as well.
    code, out, _ = run(capsys, "equitable", path("cakes-bargaining.json"), "--point", "0.5,0.5")
    assert code == 3
    # Infeasible points report "not feasible".
    code, out, _ = run(capsys, "equitable", path("cakes-bargaining.json"), "--point", "2,2")
    assert code == 3
    assert json.loads(out)["reason"] == "not feasible"


def test_equitable_on_a_flat_set(tmp_path, capsys):
    # Feasibility is decided first: a point outside a flat set is not
    # feasible, and one inside still needs a full-dimensional set.
    problem = tmp_path / "flat.json"
    problem.write_text(json.dumps({"type": "bargaining", "generators": [[0, 0], [1, 0]]}))
    code, out, _ = run(capsys, "equitable", str(problem), "--point", "2,2")
    assert code == 3
    assert json.loads(out)["reason"] == "not feasible"
    code, _, err = run(capsys, "equitable", str(problem), "--point", "0.5,0")
    assert code == 1
    assert "full-dimensional" in json.loads(err)["error"]


def test_verify_accepts_equitable_certificate_with_resolution(tmp_path, capsys):
    cert = tmp_path / "eq.json"
    problem = path("cakes-bargaining.json")
    code, _, _ = run(capsys, "equitable", problem, "--point", "0.75,0.5", "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    assert "resolution" not in doc
    doc["resolution"] = 0  # written by earlier versions of `ccm equitable`
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", problem, str(cert))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_nash_command(capsys):
    code, out, _ = run(capsys, "nash", path("cakes.json"))
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["payoffs"], [0.5, 1.0], atol=1e-6)
    assert doc["kkt_residual"] <= 1e-8
    code, out, _ = run(capsys, "nash", path("cakes-bargaining.json"))
    assert code == 0
    assert np.allclose(json.loads(out)["point"], [0.5, 1.0], atol=1e-6)


def test_commodify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "econ.json"
    code, _, _ = run(capsys, "commodify", path("cakes-bargaining.json"), "--mode", "two",
                     "--out", str(out_file))
    assert code == 0
    econ = json.loads(out_file.read_text())
    assert econ["type"] == "economy" and econ["kind"] == "additive"
    # Feed the emitted economy back in: its bargaining set matches the input.
    code, out, _ = run(capsys, "equitable", str(out_file), "--point", "0.75,0.5")
    assert code == 0


def test_commodify_general_emits_valid_problem(tmp_path, capsys):
    out_file = tmp_path / "econ3.json"
    code, _, _ = run(capsys, "commodify", path("3person.json"), "--mode", "general",
                     "--out", str(out_file))
    assert code == 0
    econ = json.loads(out_file.read_text())
    assert econ["kind"] == "table"
    assert len(econ["goods"]) == 12


def test_commodify_rejects_offset_disagreement(tmp_path, capsys):
    prob = tmp_path / "shifted.json"
    prob.write_text(json.dumps({"type": "bargaining", "generators": [["1", "1"], ["2", "1"]]}))
    code, _, err = run(capsys, "commodify", str(prob), "--mode", "two")
    assert code == 1
    assert "origin" in json.loads(err)["error"]


def test_solve_office2_sweep_has_multiple_payoffs(capsys):
    code, out, _ = run(capsys, "solve", path("office2.json"), "--sweep", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lindahl_sweep"
    assert len(doc["payoffs"]) >= 3


def test_match_pipeline(capsys):
    code, out, _ = run(capsys, "match", path("pair.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "walras_matching"
    assert doc["round_trip_payoff_gap"] == 0.0
    assert np.allclose(doc["payoffs"], [1.0, 1.0], atol=1e-9)


def test_schema_rejects_malformed_problem(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "collective"}))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "bundle, named",
    [({"agent": 0, "items": [5], "value": "1"}, "good 5"), ({"agent": 3, "items": [0], "value": "1"}, "agent 3")],
)
def test_out_of_range_bundle_is_a_json_error(bundle, named, tmp_path, capsys):
    doc = {
        "type": "economy",
        "kind": "table",
        "goods": ["a", "b"],
        "agents": 2,
        "bundles": [{"agent": 1, "items": [1], "value": "1"}, bundle],
    }
    bad = tmp_path / "economy.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "nash", str(bad))
    assert code == 1 and out == ""
    assert named in json.loads(err)["error"]


_TABLE = {"type": "economy", "kind": "table", "goods": ["a", "b"], "agents": 2,
          "bundles": [{"agent": 0, "items": [0], "value": "1"},
                      {"agent": 1, "items": [1], "value": "1"}]}
_MATCHING = {"type": "matching", "weights": [[0, 1], [1, 0]], "matchings": [[0, 1], [1, 0]],
             "groups": [[0], [1]]}


@pytest.mark.parametrize(
    "field, value, where, named",
    [
        ("agents", 1.0, ["agents"], "agents must be an integer, not 1.0"),
        ("agents", 10**20, ["agents"], "agent with no stake"),
        ("agent", 1.0, ["bundles", 1, "agent"], "bundle agent must be an integer, not 1.0"),
        ("items", 1.0, ["bundles", 1, "items", 0], "bundle item must be an integer, not 1.0"),
        ("matchings", 10**20, ["matchings", 1, 0], f"matching entry {10**20} is out of range"),
        ("matchings", 1.0, ["matchings", 1, 0], "matching entry must be an integer, not 1.0"),
        ("groups", 1.0, ["groups", 1, 0], "group member must be an integer, not 1.0"),
    ],
    ids=["agents_float", "agents_huge", "agent_float", "items_float", "matchings_huge",
         "matchings_float", "groups_float"],
)
def test_integer_fields_hold_integers_in_range(field, value, where, named, tmp_path, capsys):
    # The schema's `integer` admits 1.0 and integers of any size.
    doc = json.loads(json.dumps(_MATCHING if field in ("matchings", "groups") else _TABLE))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    cli.schema_validate(doc, "problem.schema.json")
    code, out, err = run(capsys, "nash", str(problem))
    assert code == 1 and out == ""
    assert named in json.loads(err)["error"]


def test_inadmissible_shift_exit_code(capsys):
    code, _, err = run(capsys, "solve", path("town.json"), "--c", "0.9,0.9")
    assert code == 2
    assert "inadmissible" in json.loads(err)["error"]


def test_solve_at_a_shift_reached_through_a_twin(tmp_path, capsys):
    # Corpus problem 12 (seed 2026); see test_market's twin tests.
    problem = tmp_path / "p12.json"
    problem.write_text(json.dumps({
        "type": "collective",
        "utilities": [["0.375", "0.125", "0.75", "0.5", "1"], ["1", "0.875", "1", "0.625", "0.25"]],
    }))
    cert = tmp_path / "cert.json"
    code, _, err = run(capsys, "solve", str(problem), "--c", "0.75,0", "--out", str(cert))
    assert code == 0, err
    assert json.loads(cert.read_text())["q"][0] == 0.0
    code, out, _ = run(capsys, "verify", str(problem), str(cert))
    assert code == 0 and json.loads(out)["passed"] is True


def test_sweep_certificate_on_stdout_and_in_a_file_is_the_same_text(tmp_path, capsys):
    cert = tmp_path / "c.json"
    code, out, _ = run(capsys, "solve", path("office2.json"), "--sweep", "6")
    assert code == 0 and json.loads(out)["kind"] == "lindahl_sweep"
    assert run(capsys, "solve", path("office2.json"), "--sweep", "6", "--out", str(cert)) == (0, "", "")
    assert cert.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--sweep", "0"], "positive number of grid steps"),
        (["--sweep", "-1"], "positive number of grid steps"),
        (["--sweep", "2", "--c", "0,0"], "--c and --sweep exclude each other"),
        (["--c", "0,0", "--sweep", "4"], "--c and --sweep exclude each other"),
    ],
)
def test_a_sweep_needs_positive_steps_and_no_shift(argv, named, tmp_path, capsys):
    cert = tmp_path / "c.json"
    code, out, err = run(capsys, "solve", path("town.json"), *argv, "--out", str(cert))
    assert code == 1 and out == "" and not cert.exists()
    assert named in json.loads(err)["error"]


def _indented(text):
    """The text json.dump(doc, fh, sort_keys=True, indent=2) writes for the document in text."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DATA) if f.endswith(".json")))
def test_command_output_is_the_stock_indented_text(name, tmp_path, capsys):
    doc = json.loads(open(path(name)).read())
    if doc["type"] == "bargaining":
        commands = [["nash"], ["commodify", "--mode", "general"]]
        commands += [["commodify", "--mode", "two"]] if len(doc["generators"][0]) == 2 else []
    else:
        commands = [["nash"], ["solve"], ["solve", "--sweep", "3"]]
        commands += [["match"]] if doc["type"] == "matching" else []
    for argv in commands:
        code, out, err = run(capsys, argv[0], path(name), *argv[1:])
        assert code == 0 and out == _indented(out) + "\n", (argv, err)
    if doc["type"] != "bargaining":
        cert = tmp_path / "sweep.json"
        assert run(capsys, "solve", path(name), "--sweep", "4", "--out", str(cert)) == (0, "", "")
        text = cert.read_text()
        assert text == _indented(text) + "\n"
        code, out, _ = run(capsys, "verify", path(name), str(cert))
        assert code == 0 and out == _indented(out) + "\n"
        _, point, _ = run(capsys, "nash", path(name))
        x = ",".join(repr(v) for v in json.loads(point)["payoffs"])
        code, out, _ = run(capsys, "equitable", path(name), "--point", x)
        assert out == _indented(out) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {}, [], {"a": {}, "b": []}, [[]], [{}], [[1, [2.5, []]], [[[-3]]]],
        ["a, b", ", ", "x"], {"k, v": ["1, 2", 3]}, [True, False, None],
        {"b": True, "a": None, "c": False}, [0, -7, 10**30], [-0.0, 1e300, -1e-300, 5e-324],
        {"é": "ü\n\"", "z": [1.0, "\t"]}, [float("inf"), -float("inf")], 12, "s, t", None,
        [0.5, float("nan")], {"a": [[1e16, 0.1], [float("inf")]]}, -0.0, 1e300, False,
        (1, [2, 3]), {"t": (1.5, "a"), "u": ()}, {1: "a", 0: [True]},
    ],
)
def test_the_emitter_writes_the_stock_indented_text(value):
    import io

    fh = io.StringIO()
    cli._write_json(fh, value, "\n")
    assert fh.getvalue() == json.dumps(value, sort_keys=True, indent=2)


def test_sweep_certificate_round_trip(tmp_path, capsys):
    cert = tmp_path / "c.json"
    code, _, _ = run(capsys, "solve", path("town.json"), "--sweep", "4", "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 0
    assert json.loads(out)["passed"] is True
    doc = json.loads(cert.read_text())
    doc["certificates"][-1]["p"][1] = [2.0 * v for v in doc["certificates"][-1]["p"][1]]
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 1
    report = json.loads(out)["certificates"][-1]
    assert {"condition": "budget", "agent": 1} in [
        {"condition": v["condition"], "agent": v["agent"]} for v in report["violations"]
    ]


@pytest.mark.parametrize("field, value", [("q", {"a": 1}), ("p", [[1.0, "x"], [0.0, 1.0]]), (None, 5)])
def test_a_malformed_inner_sweep_certificate_is_a_json_error(field, value, tmp_path, capsys):
    cert = tmp_path / "c.json"
    assert run(capsys, "solve", path("town.json"), "--sweep", "4", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    if field is None:
        doc["certificates"][0] = value
    else:
        doc["certificates"][0][field] = value
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 1 and out == ""
    assert "On instance['certificates'][0]" in json.loads(err)["error"]


def test_bargaining_nash_certificate_round_trip(tmp_path, capsys):
    cert = tmp_path / "nash.json"
    code, _, _ = run(capsys, "nash", path("cakes-bargaining.json"), "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    assert abs(doc["kkt_residual"]) <= 1e-8
    code, out, _ = run(capsys, "verify", path("cakes-bargaining.json"), str(cert))
    assert code == 0
    assert json.loads(out)["passed"] is True
    for moved in ([0.5, 0.9], [0.6, 0.8]):  # dominated, off-Nash
        doc["point"] = moved
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", path("cakes-bargaining.json"), str(cert))
        assert code == 1
        assert abs(json.loads(out)["kkt_residual"]) > 1e-8
    # Infeasible or on the disagreement boundary.  [0.5, 1.2] has a zero
    # residual: its tangent hyperplane supports B at the vertex (1, 0).
    for moved in ([0.6, 1.1], [0.5, 1.2], [0.0, 1.0]):
        doc["point"] = moved
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", path("cakes-bargaining.json"), str(cert))
        assert code == 1
        report = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert report == {"passed": False, "kkt_residual": None}


def _reported(report):
    return {(v["condition"], v["agent"]) for v in report["violations"]}


@pytest.mark.parametrize(
    "argv, forge, expected",
    [
        (["solve", "town.json"], {"payoffs": [9, 9], "alpha": [5, 5]},
         {("payoffs", 0), ("payoffs", 1), ("payoff_split", 0), ("payoff_split", 1)}),
        (["solve", "town.json"], {"alpha": [5, 0.5]}, {("payoff_split", 0)}),
        (["solve", "town.json"], {"c": [0.0, 0.25]}, {("payoff_split", 1)}),
        (["solve", "pair.json"], {"payoffs": [1.0, 0.5]}, {("payoffs", 1), ("payoff_split", 1)}),
        (["match", "pair.json"], {"payoffs": [0.0, 1.0]}, {("payoffs", 0)}),
        (["nash", "cakes.json"], {"payoffs": [0.5, 0.5]}, {("payoffs", 1)}),
    ],
)
def test_verify_rejects_forged_payoffs(argv, forge, expected, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    command, name = argv
    assert run(capsys, command, path(name), "--out", str(cert))[0] == 0
    assert run(capsys, "verify", path(name), str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc.update(forge)
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path(name), str(cert))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and _reported(report) == expected


def test_verify_rejects_forged_sweep_payoffs(tmp_path, capsys):
    cert = tmp_path / "c.json"
    assert run(capsys, "solve", path("cakes.json"), "--sweep", "4", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc["payoffs"][0] = [9.0, 9.0]
    doc["certificates"][-1]["alpha"][1] += 0.5
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path("cakes.json"), str(cert))
    assert code == 1
    reports = json.loads(out)["certificates"]
    assert _reported(reports[0]) == {("listed_payoffs", 0), ("listed_payoffs", 1)}
    assert _reported(reports[-1]) == {("payoff_split", 1)}
    assert all(r["passed"] for r in reports[1:-1])


def test_a_sweep_certificate_is_verified_in_one_batch(tmp_path, capsys, monkeypatch):
    cert = tmp_path / "c.json"
    assert run(capsys, "solve", path("office2.json"), "--sweep", "16", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    certs = doc["certificates"]
    assert 3 * len(certs) >= lp._LOCKSTEP_ROWS  # the lockstep chains run
    certs[0]["p"][1] = [2.0 * v for v in certs[0]["p"][1]]
    certs[5]["q"] = certs[5]["q"][::-1]
    certs[-1]["p"][2] = [1.5 * v for v in certs[-1]["p"][2]]
    doc["payoffs"][7][0] += 1.0
    cert.write_text(json.dumps(doc))
    P = cli._collective_of(json.loads(open(path("office2.json")).read()))
    expect = [
        cli._verdict_json(
            market.verify_lindahl(P, np.array(c["p"]), np.array(c["q"])),
            cli._payoff_violations(P, c, EPS_LP, row),
        )
        for c, row in zip(certs, doc["payoffs"])
    ]
    batches = []
    batched = market._lindahl_violations

    def spy(P, p, q, tol):
        batches.append(len(p))
        return batched(P, p, q, tol)

    monkeypatch.setattr(market, "_lindahl_violations", spy)
    code, out, _ = run(capsys, "verify", path("office2.json"), str(cert))
    assert code == 1 and batches == [len(certs)]
    report = json.loads(out)
    assert report["certificates"] == json.loads(json.dumps(expect))
    failed = [i for i, r in enumerate(report["certificates"]) if not r["passed"]]
    assert failed == [0, 5, 7, len(certs) - 1]
    # Input errors still come in file order, before any equilibrium check.
    batches.clear()
    certs[3]["q"].pop()
    certs[-2]["p"][0][0] = -1.0
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", path("office2.json"), str(cert))
    assert (code, out, batches) == (1, "", [])
    assert json.loads(err) == {"error": "lottery has the wrong length"}


def test_verify_rejects_a_forged_equitable_witness(tmp_path, capsys):
    cert = tmp_path / "eq.json"
    problem = path("cakes-bargaining.json")
    assert run(capsys, "equitable", problem, "--point", "0.75,0.5", "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    # The last game has the fair point (0.75, 0.5) but does not dominate B.
    for witness in ({"scale": [100, -3], "base": [7, 7]}, {"scale": [0.25], "base": [0.5]},
                    {"base": [0.5, 0.0]}, None, {"scale": [0.05, 0.05], "base": [0.7, 0.45]}):
        doc["witness"] = witness
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", problem, str(cert))
        assert code == 1 and json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "name, point", [("cakes-bargaining.json", "5,5"), ("3person.json", "5,5,5")]
)
def test_verify_accepts_an_infeasible_point_certified_out(name, point, tmp_path, capsys):
    cert = tmp_path / "eq.json"
    assert run(capsys, "equitable", path(name), "--point", point, "--out", str(cert))[0] == 3
    code, out, _ = run(capsys, "verify", path(name), str(cert))
    assert code == 0
    assert json.loads(out) == {"passed": True, "status": "non_member_certified"}
    # A feasible member claimed out is still caught.
    doc = json.loads(cert.read_text())
    doc["point"] = [0.75, 0.5] if name == "cakes-bargaining.json" else [1.0, 1.0, 0.5]
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path(name), str(cert))
    assert code == 1
    assert json.loads(out) == {"passed": False, "status": "member_with_certificate"}


@pytest.mark.parametrize("eps", ["x", 0, -1e-9, None, True])
def test_verify_rejects_a_tolerance_that_is_not_a_positive_number(eps, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(capsys, "solve", path("town.json"), "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    doc["tolerances"]["eps_lp"] = eps
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 1 and out == ""
    assert "On instance['tolerances']['eps_lp']" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_positive_and_finite(command, tol, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(capsys, "solve", path("town.json"), "--out", str(cert))[0] == 0
    argv = [command, path("town.json"), f"--tol={tol}"] + ([str(cert)] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "tolerance" in json.loads(err)["error"]


@pytest.mark.parametrize("eps", ["NaN", "Infinity", "9" * 400])
def test_verify_rejects_an_eps_lp_the_schema_lets_through(eps, tmp_path, capsys):
    # Python's json reads these as numbers that pass exclusiveMinimum: 0.
    cert = tmp_path / "cert.json"
    assert run(capsys, "solve", path("town.json"), "--out", str(cert))[0] == 0
    cert.write_text(cert.read_text().replace('"eps_lp": 1e-09', f'"eps_lp": {eps}'))
    code, _, err = run(capsys, "verify", path("town.json"), str(cert))
    assert code == 1 and "tolerance" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "collective", "utilities": [[int("9" * 400), 0], [0, 1]]},
        {"type": "economy", "kind": "table", "goods": ["a"], "agents": 1,
         "bundles": [{"agent": 0, "items": [0], "value": int("9" * 400)}]},
    ],
)
def test_an_integer_beyond_float_range_is_not_finite(doc, tmp_path, capsys):
    problem = tmp_path / "huge.json"
    problem.write_text(json.dumps(doc))
    code, out, err = run(capsys, "nash", str(problem))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "numbers must be finite"}


@pytest.mark.parametrize(
    "argv, where",
    [
        (["nash", "cakes.json"], ["q", 1]),
        (["nash", "cakes.json"], ["payoffs", 0]),
        (["solve", "town.json"], ["alpha", 0]),
        (["solve", "town.json"], ["c", 1]),
        (["match", "pair.json"], ["q", 0]),
        (["match", "pair.json"], ["pi", 0, 0]),
        (["nash", "cakes-bargaining.json"], ["point", 0]),
        (["solve", "town.json", "--sweep", "4"], ["certificates", 0, "q", 0]),
        (["solve", "town.json", "--sweep", "4"], ["payoffs", 0, 1]),
        (["equitable", "cakes-bargaining.json", "--point", "0.75,0.5"], ["witness", "scale", 0]),
        (["equitable", "cakes-bargaining.json", "--point", "0.75,0.5"], ["witness", "base", 1]),
        (["exchange", "office1.json"], ["prices", "additive", 0]),
        (["exchange", "office1.json"], ["theta", "weights", 0]),
    ],
)
def test_an_integer_beyond_float_range_in_a_certificate_is_not_finite(argv, where, tmp_path, capsys):
    command, name, *rest = argv
    cert = tmp_path / "cert.json"
    if command == "exchange":  # no command writes a walras_exchange certificate
        doc = {"kind": "walras_exchange", "version": "0", "tolerances": {},
               "problem_sha256": cli._load_problem(path(name))[1],
               "prices": {"additive": [2.0, 1.0, 0.0]},
               "theta": {"weights": [0.5, 0.5], "allocations": [[1, 2, 4], [4, 2, 1]]}}
    else:
        assert run(capsys, command, path(name), *rest, "--out", str(cert))[0] == 0
        doc = json.loads(cert.read_text())
    cert.write_text(json.dumps(doc))
    assert run(capsys, "verify", path(name), str(cert))[0] == 0
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = int("9" * 400)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", path(name), str(cert))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "numbers must be finite"}


def _in_a_new_interpreter(*argv):
    """`ccm argv` in a new Python process: (exit code, whether it loaded jsonschema, stderr)."""
    script = "import sys; from ccm import cli; code = cli.main(sys.argv[1:]); " \
             "print('jsonschema' in sys.modules); sys.exit(code)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    return done.returncode, done.stdout.splitlines()[-1] == "True", done.stderr


def test_valid_files_are_checked_without_loading_jsonschema(tmp_path):
    cert, report = str(tmp_path / "nash.json"), str(tmp_path / "report.json")
    assert _in_a_new_interpreter("nash", path("cakes.json"), "--out", cert) == (0, False, "")
    assert _in_a_new_interpreter("verify", path("cakes.json"), cert, "--out", report) == (0, False, "")


def test_an_invalid_problem_file_gets_the_stock_message(tmp_path):
    from importlib import resources

    import jsonschema
    from jsonschema.exceptions import best_match

    doc = {"type": "collective", "utilities": [[1, True], [0, 1]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    schema = json.loads(resources.files("ccm.schemas").joinpath("problem.schema.json").read_text())
    stock = best_match(jsonschema.validators.validator_for(schema)(schema).iter_errors(doc))
    expected = json.dumps({"error": str(stock)}) + "\n"
    assert _in_a_new_interpreter("nash", str(bad)) == (1, True, expected)
