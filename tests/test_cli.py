import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from privbuy.cli import main

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
    assert main(["dist", str(LN2), "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.333333333333" in out and "dp level" in out


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
        (["dist", "0.5", "0", "1", "--mass-tol", "1e-6"], "mass_tol"),
        (["dist", "1e-300", "0", "1"], "epsilon"),
        (["dist", "1e-10", "0", "1"], "cap of 1000000"),
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


def test_run_refuses_a_general_audit_above_the_scan_cap(tmp_path, capsys):
    # 2^40 bit vectors would never finish; the guard answers at once. A
    # subprocess with a timeout turns a lost guard into a failure, not a hang.
    cfg = {
        "mechanism": {"name": "exact_sum", "n": 40},
        "loss_model": {"kind": "dp_bounded_general"},
        "profiles": [],
        "checks": ["audit_general"],
        "output": {"csv": str(tmp_path / "report.csv"), "report": str(tmp_path / "report.json")},
    }
    path = write_config(tmp_path, "scan.json", cfg)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "privbuy.cli", "run", path], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 3, proc.stderr
    assert "cap of 24" in proc.stderr
    assert not (tmp_path / "report.json").exists()


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
