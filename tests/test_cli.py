import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from privbuy.cli import main, parse_config, write_reports
from privbuy.verifiers import CheckResult

LN2 = math.log(2.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def base_config(tmp_path, **overrides):
    theta = 2.0  # alg1(8, 0.5, 4)
    cfg = {
        "mechanism": {"name": "alg1", "budget": 8.0, "epsilon": 0.5, "n": 4},
        "loss_model": {"kind": "dp_bounded_monotonic"},
        "profiles": [
            {"bits": [1, 1, 0, 1], "valuations": [1.0, 3.0, 0.0, 2.0]},
            {"bits": [0, 0, 0, 0], "valuations": [0.0, theta, 2 * theta, 0.5]},
        ],
        "checks": ["ir", {"check": "truthful", "players": "claimed"}],
        "mass_tol": 1e-12,
        "output": {
            "csv": str(tmp_path / "report.csv"),
            "report": str(tmp_path / "report.json"),
        },
    }
    cfg.update(overrides)
    return cfg


def test_run_passing_suite(tmp_path, capsys):
    cfg = base_config(tmp_path)
    code = main(["run", write_config(tmp_path, "ok.json", cfg)])
    assert code == 0
    with open(cfg["output"]["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "mechanism", "profile", "player", "verdict", "margin", "witness"]
    assert all(r[4] == "pass" for r in rows[1:])
    report = json.loads(Path(cfg["output"]["report"]).read_text())
    assert report["exit_code"] == 0
    assert len(report["rows"]) == len(rows) - 1


def test_run_untruthful_baseline_exits_one(tmp_path):
    cfg = base_config(
        tmp_path,
        mechanism={"name": "pay_declared", "epsilon": 0.5, "n": 2},
        loss_model={"kind": "dp_bounded_general"},
        profiles=[{"bits": [1, 0], "valuations": [1.0, 0.0]}],
        checks=["truthful"],
    )
    assert main(["run", write_config(tmp_path, "untruthful.json", cfg)]) == 1


def test_run_truthful_extra_deviations_extend_grid(tmp_path):
    # the canonical grid alone passes here; the user extra exposes the gain
    cfg = base_config(
        tmp_path,
        mechanism={"name": "pay_declared", "epsilon": 0.5, "n": 2},
        loss_model={"kind": "dp_bounded_general"},
        profiles=[{"bits": [1, 0], "valuations": [1.0, 0.0]}],
        checks=[{"check": "truthful", "players": [0], "deviations": [123.0]}],
    )
    assert main(["run", write_config(tmp_path, "extras.json", cfg)]) == 1
    report = json.loads(Path(cfg["output"]["report"]).read_text())
    assert report["rows"][0]["verdict"] == "fail"


def test_run_empty_checks_exits_zero(tmp_path):
    cfg = base_config(tmp_path, checks=[])
    assert main(["run", write_config(tmp_path, "empty.json", cfg)]) == 0
    report = json.loads(Path(cfg["output"]["report"]).read_text())
    assert report["rows"] == [] and report["audits"] == []


def test_run_inconclusive_exits_two(tmp_path):
    # coarse truncation straddles the beta target
    cfg = base_config(
        tmp_path,
        mechanism={"name": "alg1", "budget": 8.0, "epsilon": LN2, "n": 2},
        profiles=[{"bits": [1, 1], "valuations": [0.0, 0.0]}],
        checks=[{"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 2.0 / 3.0 - 0.003}],
        mass_tol=0.01,
    )
    assert main(["run", write_config(tmp_path, "straddle.json", cfg)]) == 2


def test_run_malformed_json_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mechanism": ', encoding="utf-8")
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_run_bad_field_exits_three(tmp_path, capsys):
    cfg = base_config(tmp_path, mechanism={"name": "alg1", "budget": -1.0, "epsilon": 0.5, "n": 4})
    assert main(["run", write_config(tmp_path, "bad.json", cfg)]) == 3
    assert "config error" in capsys.readouterr().err


def test_run_missing_seed_for_monte_carlo(tmp_path, capsys):
    cfg = base_config(
        tmp_path,
        checks=[{"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.9, "method": "monte_carlo"}],
    )
    assert main(["run", write_config(tmp_path, "noseed.json", cfg)]) == 3
    assert "seed" in capsys.readouterr().err


def test_run_profile_size_mismatch(tmp_path, capsys):
    cfg = base_config(tmp_path, profiles=[{"bits": [1], "valuations": [0.0]}])
    assert main(["run", write_config(tmp_path, "mismatch.json", cfg)]) == 3


def test_run_report_bytes_reproducible(tmp_path):
    cfg = base_config(
        tmp_path,
        checks=[
            "ir",
            {"check": "truthful", "players": "claimed"},
            {"check": "dp"},
            {"check": "distinguishability", "delta": 0.3},
            {"check": "audit_general"},
            {"check": "audit_monotonic"},
        ],
    )
    path = write_config(tmp_path, "repro.json", cfg)
    assert main(["run", path]) == 0
    first = Path(cfg["output"]["report"]).read_bytes()
    first_csv = Path(cfg["output"]["csv"]).read_bytes()
    assert main(["run", path]) == 0
    assert Path(cfg["output"]["report"]).read_bytes() == first
    assert Path(cfg["output"]["csv"]).read_bytes() == first_csv
    # re-serializing the parsed config yields the identical run
    roundtrip = write_config(tmp_path, "repro2.json", json.loads(Path(path).read_text()))
    assert main(["run", roundtrip]) == 0
    assert Path(cfg["output"]["report"]).read_bytes() == first


def test_run_audit_tradeoff_config(tmp_path):
    cfg = base_config(
        tmp_path,
        mechanism={"name": "alg1", "budget": 8.0, "epsilon": LN2, "n": 8},
        profiles=[],
        checks=[{"check": "audit_tradeoff", "tau": 8.0, "gamma": 0.125, "eta": 0.25, "beta": 0.25}],
    )
    assert main(["run", write_config(tmp_path, "tradeoff.json", cfg)]) == 0
    report = json.loads(Path(cfg["output"]["report"]).read_text())
    assert report["audits"][0]["verdict"] == "accuracy_violated"


def test_run_out_flag_overrides_paths(tmp_path):
    cfg = base_config(tmp_path, checks=["ir"])
    stem = str(tmp_path / "alt")
    assert main(["run", write_config(tmp_path, "o.json", cfg), "--out", stem]) == 0
    assert (tmp_path / "alt.csv").exists() and (tmp_path / "alt.json").exists()


def test_run_profiles_file(tmp_path):
    entries = [{"bits": [1, 0, 1, 0], "valuations": [0.0, 1.0, 2.0, 0.0]}]
    pfile = tmp_path / "profiles.json"
    pfile.write_text(json.dumps(entries), encoding="utf-8")
    cfg = base_config(tmp_path, checks=["ir"])
    del cfg["profiles"]
    cfg["profiles_file"] = str(pfile)
    assert main(["run", write_config(tmp_path, "pf.json", cfg)]) == 0
    report = json.loads(Path(cfg["output"]["report"]).read_text())
    assert len(report["rows"]) == 4
    cfg["profiles_file"] = str(tmp_path / "missing.json")
    assert main(["run", write_config(tmp_path, "pf2.json", cfg)]) == 3


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"bits": [1, 0, 1], "valuations": [0.0, 1.0]}, "profiles_file[1]: "),
        ({"bits": [1, 0], "valuations": [0.0, 1.0]}, "profiles_file[1]: has 2 players, mechanism expects 4"),
    ],
    ids=["bad_entry", "player_count"],
)
def test_run_names_a_bad_profiles_file_entry_as_that_field(tmp_path, capsys, entry, message):
    # a bad entry is refused when the config is read, a wrong player count
    # once the mechanism is built
    pfile = tmp_path / "profiles.json"
    pfile.write_text(json.dumps([{"bits": [1, 0, 1, 0], "valuations": [0.0, 1.0, 2.0, 0.0]}, entry]), encoding="utf-8")
    cfg = base_config(tmp_path, checks=["ir"])
    del cfg["profiles"]
    cfg["profiles_file"] = str(pfile)
    assert main(["run", write_config(tmp_path, "pf.json", cfg)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"check": "audit_general", "delta": 0.5}, ".delta: delta must be in (0, 1/(6n)] = (0, 0.041666666666666664], got 0.5"),
        ({"check": "audit_monotonic", "delta": 2}, ".delta: delta must be in (0, 1/(3n)] = (0, 0.08333333333333333], got 2"),
        ({"check": "distinguishability", "delta": -1}, ": delta must be > 0, got -1"),
        ({"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.5, "method": "exactt"},
         ": unknown accuracy method 'exactt'"),
    ],
    ids=["audit_general", "audit_monotonic", "distinguishability", "accuracy"],
)
def test_run_names_the_check_whose_field_the_library_refuses(tmp_path, capsys, entry, message):
    cfg = base_config(tmp_path, checks=["ir", entry])
    assert main(["run", write_config(tmp_path, "check.json", cfg)]) == 3
    assert f"config error: checks[1]{message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("delta", [2, 0, -1])
@pytest.mark.parametrize("check, cap", [("audit_general", "1/(6n)] = (0, 0.08333333333333333]"),
                                        ("audit_monotonic", "1/(3n)] = (0, 0.16666666666666666]")],
                         ids=["audit_general", "audit_monotonic"])
def test_run_refuses_an_audit_delta_outside_the_audit_cap(tmp_path, capsys, check, cap, delta):
    # the audit's own range, not the wider (0, 1] of the model it builds
    cfg = base_config(
        tmp_path, mechanism={"name": "exact_sum", "n": 2}, profiles=[], checks=[{"check": check, "delta": delta}]
    )
    assert main(["run", write_config(tmp_path, "delta.json", cfg)]) == 3
    assert capsys.readouterr().err == f"config error: checks[0].delta: delta must be in (0, {cap}, got {delta}\n"
    assert not (tmp_path / "report.json").exists()


def test_run_readme_example(tmp_path, monkeypatch, capsys):
    # the ```json config under "## CLI" in README.md, as it stands there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    cfg = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)  # the config's relative output paths stay unused
    assert main(["run", write_config(tmp_path, "example.json", cfg), "--out", str(tmp_path / "readme")]) == 1
    assert "fail: 1, not_distinguishable: 4, pass: 7; audits: 1; exit code 1" in capsys.readouterr().out
    report = json.loads((tmp_path / "readme.json").read_text(encoding="utf-8"))
    verdicts = [(r["check"], r["player"], r["verdict"]) for r in report["rows"]]
    assert verdicts == (
        [("ir", i, "pass") for i in range(4)]
        + [("truthful", i, "pass") for i in (0, 2, 3)]
        + [("accuracy", None, "fail")]
        + [("distinguishability", i, "not_distinguishable") for i in range(4)]
    )
    assert report["rows"][7]["margin"] == -0.0978794411705815
    assert [a["verdict"] for a in report["audits"]] == ["accuracy_sacrificed"]
    assert not (tmp_path / "report.json").exists()


def test_run_subsample_and_exact_sum_configs(tmp_path):
    cfg = base_config(
        tmp_path,
        mechanism={"name": "subsample", "flat_pay": 1.0, "sample_size": 2, "n": 5},
        loss_model={"kind": "zero"},
        profiles=[{"bits": [1, 0, 1, 0, 0], "valuations": [0.0] * 5}],
        checks=["ir", {"check": "accuracy", "alpha": 0.9, "alpha_prime": 0.9, "beta": 0.9}],
    )
    assert main(["run", write_config(tmp_path, "sub.json", cfg)]) == 0


@pytest.mark.parametrize("name", ["thm_mon", "thm_imp", "thm_monimp", "tradeoff", "subsample"])
def test_demos_run_clean(name, capsys):
    assert main(["demo", name]) == 0
    assert capsys.readouterr().out


def test_demo_unknown_name(capsys):
    assert main(["demo", "nope"]) == 3
    assert "unknown demo" in capsys.readouterr().err


def test_dist_subcommand(capsys):
    cases = {
        ("0.5", "0", "3"): (
            "statistical distance between shift 0 and shift 3 at eps=0.5: [0.542020018171, 0.542020018172]\n"
            "dp level: 1.5\n"
        ),
        (str(LN2), "0", "1"): (
            "statistical distance between shift 0 and shift 1 at eps=0.693147: [0.333333333333, 0.333333333334]\n"
            "dp level: 0.69314718056\n"
        ),
        # disjoint windows: the closed form holds beyond them, so eps |200 - 0|
        ("0.5", "0", "200"): (
            "statistical distance between shift 0 and shift 200 at eps=0.5: [0.999999999999, 1]\n"
            "dp level: 100\n"
        ),
        ("0.05", "-7", "9"): (
            "statistical distance between shift -7 and shift 9 at eps=0.05: [0.329679953964, 0.329679953965]\n"
            "dp level: 0.8\n"
        ),
    }
    for args, want in cases.items():
        assert main(["dist", *args]) == 0
        assert capsys.readouterr().out == want, args
    # eps |shift| is 5e299 below the float range, and overflows beyond it
    for shift, level in ((10**300, "5e+299"), (10**400, "inf")):
        assert main(["dist", "0.5", "0", str(shift)]) == 0
        assert capsys.readouterr().out.endswith(f"\ndp level: {level}\n")


def test_version_subcommand(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "mechanism",
    [
        {"name": "alg1", "budget": 8.0, "epsilon": 0.5, "n": 4},
        {"name": "pay_declared", "epsilon": 0.7, "n": 4},
    ],
)
def test_dp_bound_defaults_to_the_geometric_epsilon(tmp_path, mechanism):
    rows = []
    for label, entry in (("default", {"check": "dp"}), ("explicit", {"check": "dp", "bound": mechanism["epsilon"]})):
        output = {"csv": str(tmp_path / f"{label}.csv"), "report": str(tmp_path / f"{label}.json")}
        cfg = base_config(tmp_path, mechanism=mechanism, checks=[entry], output=output)
        assert main(["run", write_config(tmp_path, f"{label}.json", cfg)]) == 0
        rows.append(json.loads(Path(output["report"]).read_text())["rows"])
    assert rows[0] and rows[0] == rows[1]


def test_dp_check_gives_verdicts_at_a_coarse_mass_tol(tmp_path):
    # the closed form holds beyond the window: verdicts do not move with mass_tol
    rows = []
    for tol in (1e-12, 1e-6):
        output = {"csv": str(tmp_path / f"{tol}.csv"), "report": str(tmp_path / f"{tol}.json")}
        cfg = base_config(tmp_path, checks=[{"check": "dp"}, {"check": "dp", "bound": 0.25}], mass_tol=tol, output=output)
        assert main(["run", write_config(tmp_path, f"{tol}.json", cfg)]) == 1
        rows.append(json.loads(Path(output["report"]).read_text())["rows"])
    assert [r["verdict"] for r in rows[1]] == [r["verdict"] for r in rows[0]]
    assert {r["verdict"] for r in rows[1]} == {"pass", "fail"}
    assert [r["margin"] for r in rows[1]] == pytest.approx([r["margin"] for r in rows[0]], abs=1e-12)


@pytest.mark.parametrize(
    "mechanism",
    [{"name": "exact_sum", "n": 4}, {"name": "subsample", "flat_pay": 1.0, "sample_size": 2, "n": 4}],
)
def test_dp_bound_required_without_epsilon(tmp_path, capsys, mechanism):
    cfg = base_config(tmp_path, mechanism=mechanism, checks=[{"check": "dp"}])
    assert main(["run", write_config(tmp_path, "nobound.json", cfg)]) == 3
    assert "checks[0].bound" in capsys.readouterr().err


def test_seed_flag_satisfies_monte_carlo_check(tmp_path):
    cfg = base_config(
        tmp_path,
        checks=[{"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.9, "method": "monte_carlo", "trials": 200}],
    )
    assert main(["run", write_config(tmp_path, "noseed.json", cfg), "--seed", "5"]) == 0
    assert json.loads(Path(cfg["output"]["report"]).read_text())["config"]["seed"] == 5


@pytest.mark.parametrize("mass_tol", ["-1", "nan", "0", "1.5"])
def test_mass_tol_flag_goes_through_the_config_checks(tmp_path, capsys, mass_tol):
    cfg = base_config(tmp_path, mechanism={"name": "exact_sum", "n": 4}, checks=["ir"])
    assert main(["run", write_config(tmp_path, "es.json", cfg), "--mass-tol", mass_tol]) == 3
    assert "config error: mass_tol" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["dist", "0.5", "0", "1", "--mass-tol", "0"], "mass_tol"),
        (["dist", "1e-300", "0", "1"], "epsilon"),
        (["dist", "1e-10", "0", "1"], "cap of 1000000"),
        (["dist", "1e308", "0", "1"], "epsilon 1e+308 is too large"),
    ],
)
def test_dist_rejects_bad_numbers(capsys, argv, field):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert not out and field in err


@pytest.mark.parametrize(
    "mechanism",
    [{"name": "alg1", "budget": 8.0, "epsilon": 1e-300, "n": 4}, {"name": "pay_declared", "epsilon": 1e-300, "n": 4}],
)
def test_run_rejects_epsilon_whose_decay_rounds_to_one(tmp_path, capsys, mechanism):
    cfg = base_config(tmp_path, mechanism=mechanism)
    assert main(["run", write_config(tmp_path, "tiny.json", cfg)]) == 3
    assert "config error: mechanism: epsilon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mechanism",
    [{"name": "alg1", "budget": 8.0, "epsilon": 1000.0, "n": 4}, {"name": "pay_declared", "epsilon": 1e308, "n": 4}],
)
def test_run_rejects_epsilon_whose_decay_rounds_to_zero(tmp_path, capsys, mechanism):
    cfg = base_config(tmp_path, mechanism=mechanism)
    assert main(["run", write_config(tmp_path, "huge.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert "config error: mechanism: epsilon" in err and "too large" in err
    assert not (tmp_path / "report.json").exists()


def test_run_rejects_windows_above_the_cap(tmp_path, capsys):
    cfg = base_config(
        tmp_path,
        mechanism={"name": "alg1", "budget": 8.0, "epsilon": 1e-10, "n": 4},
        checks=[{"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.3}],
    )
    assert main(["run", write_config(tmp_path, "wide.json", cfg)]) == 3
    assert "cap of 1000000" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"loss_model": {"kind": "zero"}, "checks": ["ir"]},
        {"checks": [{"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.3}]},
    ],
    ids=["ir_only", "accuracy"],
)
def test_run_checks_the_window_cap_when_the_config_is_built(tmp_path, capsys, overrides):
    # whether or not any check would build a law, the field is named
    cfg = base_config(tmp_path, mechanism={"name": "alg1", "budget": 8.0, "epsilon": 1e-10, "n": 4}, **overrides)
    assert main(["run", write_config(tmp_path, "wide.json", cfg)]) == 3
    out, err = capsys.readouterr()
    assert "config error: mechanism.epsilon: " in err and "cap of 1000000" in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "report.csv").exists()


MONTE_CARLO = {"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.9, "method": "monte_carlo"}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"mechanism": {"name": "alg1", "budget": 8.0, "epsilon": 0.5, "n": True}}, "mechanism: n must"),
        ({"mechanism": {"name": "alg1_prime", "budget": 8.0, "epsilon": 0.5, "n": True}}, "mechanism: n must"),
        ({"mechanism": {"name": "pay_declared", "epsilon": 0.5, "n": True}}, "mechanism: n must"),
        ({"mechanism": {"name": "exact_sum", "n": True}}, "mechanism: n must"),
        ({"mechanism": {"name": "subsample", "flat_pay": 1.0, "sample_size": 2, "n": True}}, "mechanism: n must"),
        ({"mechanism": {"name": "subsample", "flat_pay": 1.0, "sample_size": True, "n": 4}}, "mechanism: sample_size"),
        ({"seed": True, "checks": [{**MONTE_CARLO, "trials": 100}]}, "seed: must be an integer"),
        ({"seed": 3, "checks": [{**MONTE_CARLO, "trials": True}]}, "checks[0].trials: must be an integer >= 1"),
        ({"seed": 3, "checks": [{**MONTE_CARLO, "trials": 0}]}, "checks[0].trials: must be an integer >= 1"),
        ({"seed": 3, "checks": [{**MONTE_CARLO, "trials": 2.5}]}, "checks[0].trials: must be an integer >= 1"),
        ({"checks": [{"check": "truthful", "players": [0, True]}]}, "checks[0].players"),
        ({"checks": [{"check": "distinguishability", "delta": 0.3, "players": [False]}]}, "checks[0].players"),
    ],
)
def test_run_rejects_booleans_where_integers_are_needed(tmp_path, capsys, overrides, field):
    cfg = base_config(tmp_path, **overrides)
    assert main(["run", write_config(tmp_path, "bools.json", cfg)]) == 3
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


THRESHOLD_MODEL = {"kind": "increasing_with_threshold", "delta": 0.2}
TRADEOFF = {"check": "audit_tradeoff", "tau": 8.0, "gamma": 0.125, "eta": 0.25, "beta": 0.25}
NAN = math.nan  # json.dumps writes it as NaN, which json.load reads back


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"mechanism": {"name": "alg1", "budget": True, "epsilon": True, "n": 2}}, "mechanism.budget"),
        ({"mechanism": {"name": "alg1", "budget": 8.0, "epsilon": True, "n": 4}}, "mechanism.epsilon"),
        ({"mechanism": {"name": "alg1_prime", "budget": NAN, "epsilon": 0.5, "n": 4}}, "mechanism.budget"),
        ({"mechanism": {"name": "pay_declared", "epsilon": NAN, "n": 4}}, "mechanism.epsilon"),
        ({"mechanism": {"name": "subsample", "flat_pay": True, "sample_size": 2, "n": 4}}, "mechanism.flat_pay"),
        (
            {"mechanism": {"name": "subsample", "flat_pay": 1.0, "sample_size": 2, "n": 4, "distinguishability_budget": NAN}},
            "mechanism.distinguishability_budget",
        ),
        ({"mechanism": {"name": "exact_sum", "n": 4, "flat_pay": True}}, "mechanism.flat_pay"),
        ({"loss_model": {**THRESHOLD_MODEL, "delta": True}}, "loss_model.delta"),
        ({"loss_model": {**THRESHOLD_MODEL, "threshold_offset": NAN}}, "loss_model.threshold_offset"),
        ({"checks": [{"check": "accuracy", "alpha": NAN, "alpha_prime": 0.5, "beta": 0.3}]}, "checks[0].alpha"),
        ({"checks": [{"check": "accuracy", "alpha": 0.5, "alpha_prime": True, "beta": 0.3}]}, "checks[0].alpha_prime"),
        ({"checks": [{"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": True}]}, "checks[0].beta"),
        ({"checks": [{"check": "dp", "bound": NAN}]}, "checks[0].bound"),
        ({"checks": [{"check": "dp", "bound": True}]}, "checks[0].bound"),
        ({"checks": [{"check": "distinguishability", "delta": True}]}, "checks[0].delta"),
        ({"checks": [{"check": "audit_monotonic", "delta": NAN}]}, "checks[0].delta"),
        ({"checks": [{"check": "audit_general", "threshold_offset": True}]}, "checks[0].threshold_offset"),
        ({"checks": [{**TRADEOFF, "tau": True}]}, "checks[0].tau"),
        ({"checks": [{**TRADEOFF, "gamma": NAN}]}, "checks[0].gamma"),
        ({"checks": [{**TRADEOFF, "eta": True}]}, "checks[0].eta"),
        ({"checks": [{**TRADEOFF, "beta": NAN}]}, "checks[0].beta"),
        ({"checks": [{**TRADEOFF, "max_pay": True}]}, "checks[0].max_pay"),
    ],
)
def test_run_refuses_booleans_and_nan_where_numbers_are_needed(tmp_path, capsys, overrides, field):
    cfg = base_config(tmp_path, **overrides)
    assert main(["run", write_config(tmp_path, "numbers.json", cfg)]) == 3
    assert f"config error: {field}: must be a number" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _bool_and_string_config(tmp_path, **overrides):
    cfg = {
        "mechanism": {"name": "alg1", "budget": 4.0, "epsilon": 0.5, "n": 2},
        "loss_model": {"kind": "dp_bounded_monotonic"},
        "profiles": [{"bits": [1, 0], "valuations": [1.0, 2.5]}],
        "checks": ["ir", {"check": "truthful", "players": "all", "deviations": [3.0]}],
        "output": {"csv": str(tmp_path / "report.csv"), "report": str(tmp_path / "report.json")},
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"profiles": [{"bits": [True, False], "valuations": [1.0, 2.5]}]}, "profiles[0]"),
        ({"profiles": [{"bits": [1, 0], "valuations": [True, 2.5]}]}, "profiles[0]"),
        ({"profiles": [{"bits": [1, 0], "valuations": [1.0, "2.5"]}]}, "profiles[0]"),
        ({"checks": [{"check": "truthful", "players": "all", "deviations": ["3.0"]}]}, "checks[0].deviations"),
        ({"checks": [{"check": "truthful", "players": "all", "deviations": [False]}]}, "checks[0].deviations"),
    ],
    ids=["bool_bit", "bool_valuation", "string_valuation", "string_deviation", "bool_deviation"],
)
def test_run_rejects_booleans_and_strings_as_bits_and_valuations(tmp_path, capsys, overrides, field):
    cfg = _bool_and_string_config(tmp_path, **overrides)
    assert main(["run", write_config(tmp_path, "types.json", cfg)]) == 3
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    # with numbers in their place the same config runs to verdicts
    assert main(["run", write_config(tmp_path, "numbers.json", _bool_and_string_config(tmp_path))]) == 1


def run_cli(tmp_path, name, cfg):
    """``privbuy run`` in a subprocess, whose timeout turns a hang into a failure."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "privbuy.cli", "run", write_config(tmp_path, name, cfg)],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_run_runs_a_general_audit_at_n_40(tmp_path):
    # the threshold is read at the n probes, not over 2^40 bit vectors
    cfg = {
        "mechanism": {"name": "exact_sum", "n": 40},
        "loss_model": {"kind": "dp_bounded_general"},
        "profiles": [],
        "checks": ["audit_general"],
        "output": {"csv": str(tmp_path / "report.csv"), "report": str(tmp_path / "report.json")},
    }
    proc = run_cli(tmp_path, "general.json", cfg)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert [a["verdict"] for a in report["audits"]] == ["ir_violated"]


def test_run_report_and_stdout_grow_linearly_in_n(tmp_path, capsys):
    # a chain is written as its start and one move per step, so each doubling
    # of n about doubles the report and stdout (whole hybrids would give x4)
    sizes = []
    for n in (128, 256, 512):
        cfg = {
            "mechanism": {"name": "alg1", "budget": n / 2, "epsilon": LN2, "n": n},
            "loss_model": {"kind": "dp_bounded_monotonic"},
            "profiles": [],
            "checks": ["audit_monotonic"],
            "output": {"csv": str(tmp_path / "report.csv"), "report": str(tmp_path / "report.json")},
        }
        out = str(tmp_path / f"n{n}")
        assert main(["run", write_config(tmp_path, f"n{n}.json", cfg), "--out", out]) == 0
        stdout = capsys.readouterr().out
        steps = re.findall(r"^    step (\d+): player (\d+) -> \(1, ", stdout, re.M)
        assert steps == [(str(k), str(k)) for k in range(n)]
        sizes.append((os.path.getsize(out + ".json"), len(stdout.encode())))
    for (report0, stdout0), (report1, stdout1) in zip(sizes, sizes[1:]):
        assert report1 <= 2.3 * report0 and stdout1 <= 2.3 * stdout0, sizes


@pytest.mark.parametrize("trials", [10**6 + 1, 10**400], ids=["cap_plus_one", "huge"])
def test_run_refuses_monte_carlo_trials_above_the_cap(tmp_path, trials):
    cfg = base_config(tmp_path, seed=3, checks=[{**MONTE_CARLO, "trials": trials}])
    proc = run_cli(tmp_path, "trials.json", cfg)
    assert proc.returncode == 3, proc.stderr
    assert "config error: checks[0].trials: must be at most the cap of 1000000" in proc.stderr
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("check", ["truthful", "distinguishability"])
@pytest.mark.parametrize("index", [-1, 6, 10**400], ids=["minus_one", "n", "huge"])
def test_run_refuses_player_indices_outside_the_profile(tmp_path, capsys, check, index):
    cfg = base_config(
        tmp_path,
        mechanism={"name": "alg1", "budget": 8.0, "epsilon": 0.5, "n": 6},
        profiles=[{"bits": [1, 0, 1, 0, 1, 0], "valuations": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}],
        checks=[{"check": check, "delta": 0.3, "players": [0, 5, index]}],
    )
    assert main(["run", write_config(tmp_path, "players.json", cfg)]) == 3
    assert "config error: checks[0].players: player index " in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.json").exists()


INF = math.inf  # json.dumps writes it as Infinity, which json.load reads back


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"checks": [{"check": "dp", "bound": INF}]}, "checks[0].bound"),
        ({"mechanism": {"name": "alg1", "budget": INF, "epsilon": 0.5, "n": 4}}, "mechanism.budget"),
        (
            {"mechanism": {"name": "subsample", "flat_pay": 1.0, "sample_size": 2, "n": 4, "distinguishability_budget": INF}},
            "mechanism.distinguishability_budget",
        ),
        ({"loss_model": {**THRESHOLD_MODEL, "threshold_offset": -INF}}, "loss_model.threshold_offset"),
        ({"checks": [{**TRADEOFF, "max_pay": INF}]}, "checks[0].max_pay"),
    ],
)
def test_run_refuses_infinity_where_numbers_are_needed(tmp_path, capsys, overrides, field):
    # an infinite dp bound would pass every row with margin inf, and strict
    # JSON parsers reject the bare Infinity a report would then hold
    cfg = base_config(tmp_path, **overrides)
    assert main(["run", write_config(tmp_path, "inf.json", cfg)]) == 3
    assert f"config error: {field}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_names_theta_when_two_theta_overflows(tmp_path, capsys):
    # theta = 1.7e308 / (2 * 0.01 * 2) is inf, and 2 theta is a candidate
    # valuation: the error names theta, not a valuation of some later check
    cfg = base_config(tmp_path, mechanism={"name": "alg1", "budget": 1.7e308, "epsilon": 0.01, "n": 2})
    cfg["profiles"] = [{"bits": [1, 0], "valuations": [1.0, 0.0]}]
    assert main(["run", write_config(tmp_path, "theta.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert "config error: mechanism: 2 theta" in err and "must be finite" in err
    assert not (tmp_path / "report.json").exists()


def pay_declared_config(tmp_path, epsilon, valuation):
    return base_config(
        tmp_path,
        mechanism={"name": "pay_declared", "epsilon": epsilon, "n": 1},
        loss_model={"kind": "dp_bounded_general"},
        profiles=[{"bits": [1], "valuations": [valuation]}],
        checks=["truthful"],
    )


FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "valuation, code, witness",
    [
        (2e306, 1, "profitable deviation v'=1.79769e+308"),
        (1e307, 1, "profitable deviation v'=1.79769e+308"),
        (-1e307, 1, "profitable deviation v'=1.79769e+308"),
        (FLOAT_MAX, 0, "tightest deviation v'=1.79769e+308"),
    ],
    ids=["2e306", "1e307", "-1e307", "float_max"],
)
def test_run_checks_pay_declared_truthfulness_at_huge_valuations(tmp_path, valuation, code, witness):
    # the grid's 100 (|v| + 1) overflows past float max / 100; capped at
    # float max, it is still >= v, and at float max it is the truth itself
    cfg = pay_declared_config(tmp_path, 0.5, valuation)
    assert main(["run", write_config(tmp_path, "huge_v.json", cfg)]) == code
    (row,) = json.loads(Path(cfg["output"]["report"]).read_text())["rows"]
    assert row["witness"].startswith(witness)
    assert code == 1 or row["margin"] == 0.0


def test_run_calls_an_undefined_truthfulness_gap_inconclusive(tmp_path):
    # at eps = 700 the truth's pay 700e306 overflows to inf, and so do its
    # deviations' above it: inf - inf is no gain, so the row is inconclusive
    cfg = pay_declared_config(tmp_path, 700.0, 1e306)
    assert main(["run", write_config(tmp_path, "nan_gap.json", cfg)]) == 2
    (row,) = json.loads(Path(cfg["output"]["report"]).read_text())["rows"]
    assert row["verdict"] == "inconclusive" and math.isnan(row["margin"])
    assert row["witness"] == "deviation v'=1e+308 has an undefined utility gap; no mass_tol settles it"


def old_csv_line(row):
    """How a verdict row was formatted for the CSV before the row itself
    became its line: "" for no player, repr for the margin."""
    return [
        row.check, row.mechanism, row.profile, "" if row.player is None else row.player,
        row.verdict, repr(row.margin), row.witness,
    ]


def test_run_writes_each_row_as_its_own_csv_line(tmp_path):
    margins = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1 / 3, 1e22]
    rows = [
        CheckResult("accuracy", "alg1", f"p{k}", None if k % 2 else k, "pass", m, 'say "a, b"')
        for k, m in enumerate(margins)
    ]
    write_reports(parse_config(base_config(tmp_path)), 0, rows, [])
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["check", "mechanism", "profile", "player", "verdict", "margin", "witness"])
    writer.writerows(old_csv_line(r) for r in rows)
    assert (tmp_path / "report.csv").read_bytes() == want.getvalue().encode("utf-8")


HUGE = 10**400  # json.dumps writes every digit, and json.load reads back an int


BEYOND = "must be finite, got an integer beyond the float range"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"mechanism": {"name": "alg1", "budget": HUGE, "epsilon": 0.5, "n": 4}}, f"mechanism.budget: {BEYOND}"),
        ({"checks": [{"check": "dp", "bound": HUGE}]}, f"checks[0].bound: {BEYOND}"),
        ({"checks": [{"check": "dp", "bound": -HUGE}]}, f"checks[0].bound: {BEYOND}"),
        ({"mechanism": {"name": "alg1", "budget": 8.0, "epsilon": 0.5, "n": HUGE}}, "mechanism: int too large to convert to float"),
        (
            {"profiles": [{"bits": [1, 0, 0, 1], "valuations": [HUGE, 0.0, 0.0, 0.0]}]},
            f"profiles[0]: valuation {BEYOND}",
        ),
        ({"checks": [{"check": "truthful", "deviations": [-HUGE]}]}, f"checks[0].deviations: valuation {BEYOND}"),
    ],
    ids=["budget", "bound", "negative_bound", "n", "valuation", "deviation"],
)
def test_run_refuses_integers_beyond_the_float_range(tmp_path, capsys, overrides, message):
    cfg = base_config(tmp_path, **overrides)
    assert main(["run", write_config(tmp_path, "huge.json", cfg)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_refuses_an_integer_literal_above_the_digit_limit(tmp_path, capsys):
    # json.load raises a plain ValueError, not a JSONDecodeError, for it
    path = tmp_path / "digits.json"
    path.write_text('{"mechanism": {"name": "alg1", "budget": ' + "9" * 5000 + "}}", encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert f"config error: {path}: " in capsys.readouterr().err


DEEP = "[" * 100000 + "]" * 100000  # nested past the recursion limit json.load meets


def test_run_refuses_a_config_nested_past_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP, encoding="utf-8")
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("key", ["csv", "report"])
@pytest.mark.parametrize("path", [None, "", 1, ["r.csv"]], ids=["null", "empty", "int", "list"])
def test_run_refuses_output_paths_that_are_not_strings(tmp_path, capsys, key, path):
    # an int would reach open() as a file descriptor: 1 is stdout. A
    # subprocess keeps a lost guard from closing this process's stdout.
    cfg = base_config(tmp_path)
    cfg["output"][key] = path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "privbuy.cli", "run", write_config(tmp_path, "out.json", cfg)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"config error: output.{key}: must be a non-empty file path, got {path!r}" in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "report.csv").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key", ["csv", "report"])
def test_run_exits_three_when_a_report_cannot_be_written(tmp_path, capsys, key):
    cfg = base_config(tmp_path)
    cfg["output"][key] = str(tmp_path / "missing" / f"report.{key}")
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert f"config error: output.{key}: " in err and "No such file or directory" in err
    # neither file is left behind: a failed run writes no half of its output
    other = "report" if key == "csv" else "csv"
    assert not Path(cfg["output"][other]).exists()


def test_run_keeps_a_csv_it_did_not_create_when_the_report_cannot_be_written(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["output"]["report"] = str(tmp_path / "missing" / "report.json")
    Path(cfg["output"]["csv"]).write_text("an older run\n")
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 3
    assert "config error: output.report: " in capsys.readouterr().err
    assert Path(cfg["output"]["csv"]).read_text() == "an older run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "report.csv"]  # no temporary file left


def test_run_keeps_an_older_csv_when_the_report_path_is_a_directory(tmp_path, capsys):
    cfg = base_config(tmp_path)
    Path(cfg["output"]["csv"]).write_text("an older run\n")
    Path(cfg["output"]["report"]).mkdir()
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 3
    assert "config error: output.report: Is a directory" in capsys.readouterr().err
    assert Path(cfg["output"]["csv"]).read_text() == "an older run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "report.csv", "report.json"]


def test_run_replaces_older_outputs_only_once_both_are_written(tmp_path, capsys):
    cfg = base_config(tmp_path)
    for key, mode in (("csv", 0o600), ("report", 0o640)):
        Path(cfg["output"][key]).write_text("an older run\n")
        os.chmod(cfg["output"][key], mode)
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 0
    # the new outputs keep the older files' modes
    assert [os.stat(cfg["output"][key]).st_mode & 0o777 for key in ("csv", "report")] == [0o600, 0o640]
    assert Path(cfg["output"]["csv"]).read_text().startswith("check,mechanism,")
    assert json.loads(Path(cfg["output"]["report"]).read_text())["exit_code"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "report.csv", "report.json"]


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_run_writes_through_a_symlinked_output(tmp_path, capsys):
    cfg = base_config(tmp_path)
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "kept.csv"
    target.write_text("an older run\n")
    os.symlink(target, cfg["output"]["csv"])
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 0
    assert Path(cfg["output"]["csv"]).is_symlink()
    assert target.read_text().startswith("check,mechanism,")


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_run_refuses_a_report_that_links_to_the_csv(tmp_path, capsys):
    cfg = base_config(tmp_path)
    Path(cfg["output"]["csv"]).write_text("an older run\n")
    os.symlink(cfg["output"]["csv"], cfg["output"]["report"])
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 3
    assert "config error: output.report: must differ from output.csv" in capsys.readouterr().err
    assert Path(cfg["output"]["csv"]).read_text() == "an older run\n"


def test_run_refuses_one_path_for_both_outputs(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["output"]["report"] = cfg["output"]["csv"]
    assert main(["run", write_config(tmp_path, "out.json", cfg)]) == 3
    assert "config error: output.report: must differ from output.csv" in capsys.readouterr().err
    assert not Path(cfg["output"]["csv"]).exists()


@pytest.mark.parametrize("field", ["profiles", "checks"])
@pytest.mark.parametrize("value", [5, {"check": "ir"}, "ir"], ids=["int", "object", "string"])
def test_run_refuses_profiles_and_checks_that_are_not_lists(tmp_path, capsys, field, value):
    cfg = base_config(tmp_path, **{field: value})
    assert main(["run", write_config(tmp_path, "notlist.json", cfg)]) == 3
    assert f"config error: {field}: must be a list of {field}, got {type(value).__name__}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("path", [0, 1, "", None, ["p.json"]], ids=["stdin", "stdout", "empty", "null", "list"])
def test_run_refuses_a_profiles_file_that_is_not_a_path(tmp_path, path):
    # open(0) would read stdin and wait on a terminal; the subprocess's
    # timeout turns such a wait into a failure
    cfg = base_config(tmp_path, checks=["ir"])
    del cfg["profiles"]
    cfg["profiles_file"] = path
    proc = run_cli(tmp_path, "pf.json", cfg)
    assert proc.returncode == 3, proc.stderr
    assert f"config error: profiles_file: must be a non-empty file path, got {path!r}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "content,message",
    [
        ('[{"bits": [1, 0, 1, 0], ', "line 1 column 25: Expecting property name"),
        ("[\n  {}\n  {}\n]", "line 3 column 3: Expecting ',' delimiter"),
        (b"\xff\xfe[]", "codec can't decode byte"),
        ('{"bits": [1, 0, 1, 0], "valuations": [0, 0, 0, 0]}', "must be a list of profiles, got dict"),
        (DEEP, "maximum recursion depth exceeded"),
    ],
    ids=["truncated", "missing_comma", "not_utf8", "object", "nested_too_deeply"],
)
def test_run_refuses_a_profiles_file_that_is_not_a_json_list(tmp_path, capsys, content, message):
    pfile = tmp_path / "profiles.json"
    if isinstance(content, bytes):
        pfile.write_bytes(content)
    else:
        pfile.write_text(content, encoding="utf-8")
    cfg = base_config(tmp_path, checks=["ir"])
    del cfg["profiles"]
    cfg["profiles_file"] = str(pfile)
    assert main(["run", write_config(tmp_path, "pf.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: profiles_file: ") and message in err, err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("offset", [0, 0.0, -0.0, -5.0, -1e-300])
@pytest.mark.parametrize("where", ["loss_model", "audit_general", "audit_monotonic"])
def test_run_refuses_threshold_offsets_at_or_below_zero(tmp_path, capsys, where, offset):
    # the model's loss is v, so T(l) = l + offset exceeds l only for offset > 0;
    # at 0 the general chain's second move would leave its player as they were,
    # and below 0 an IR witness would claim a loss below the pay
    def config(offset):
        mech = {"name": "alg1", "budget": 4.0, "epsilon": LN2, "n": 2}
        if where == "loss_model":
            model = {**THRESHOLD_MODEL, "threshold_offset": offset}
            return base_config(tmp_path, mechanism=mech, loss_model=model, profiles=[], checks=[])
        return base_config(tmp_path, mechanism=mech, profiles=[], checks=[{"check": where, "threshold_offset": offset}])

    field = "loss_model.threshold_offset" if where == "loss_model" else "checks[0].threshold_offset"
    assert main(["run", write_config(tmp_path, "offset.json", config(offset))]) == 3
    assert f"config error: {field}: must be > 0, got {offset!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    # a positive offset runs to a verdict
    assert main(["run", write_config(tmp_path, "offset_ok.json", config(0.5))]) == 0
