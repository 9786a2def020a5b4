"""Workload inputs and their oracles.

Everything here is derived from the workload seed alone, so the same seed
always yields the same inputs. The module imports no part of privbuy at
import time: the child processes time ``import privbuy`` themselves, and
the orchestrator never imports the package at all.
"""

from __future__ import annotations

import itertools
import math
import random

LN2 = math.log(2.0)

# --- verify_grid -----------------------------------------------------------
# The thm_mon (criterion 1) and thm_moretruth (criterion 2) grids. n=2 and
# n=3 run every cell in full. The full n=4 grid alone takes about 23 s for
# alg1 on a 2-core x86-64 VM, so n=4 keeps every (eps, B) cell but only
# every 64th profile in lexicographic (bits, valuations) order: 157 of
# 10,000 per cell. Because 64 is coprime to the 625 valuation vectors, every
# bit vector still meets 9 or 10 valuation vectors. The cut is fixed, so
# every seed does the same work; the seed only shuffles the order of the
# (cell, profile) tasks.
GRID_NS = (2, 3, 4)
GRID_EPS = (0.5, LN2)
GRID_N4_STRIDE = 64
GRID_GAMMA_NS = (2, 4)


def grid_cells():
    for n in GRID_NS:
        for eps in GRID_EPS:
            for budget in (2.0 * n, 4.0 * n):
                yield n, eps, budget


def grid_profiles(n: int, theta: float):
    """(bits, valuations) of one cell, after the fixed n=4 cut."""
    vals_grid = (0.0, theta / 2.0, theta, 2.0 * theta, 10.0 * theta)
    out = [
        (bits, vals)
        for bits in itertools.product((0, 1), repeat=n)
        for vals in itertools.product(vals_grid, repeat=n)
    ]
    return out[::GRID_N4_STRIDE] if n == 4 else out


def grid_cuts() -> dict:
    return {
        "n": list(GRID_NS),
        "epsilon": list(GRID_EPS),
        "budget": "2n and 4n",
        "valuation_grid": "0, theta/2, theta, 2 theta, 10 theta",
        "n4_profiles": f"every {GRID_N4_STRIDE}th in lexicographic order",
    }


# --- audit_scale -----------------------------------------------------------
# The general audit scans all 2^n bit vectors twice, so each size step of
# 2 costs 4x: on a 2-core x86-64 VM, n=14 takes about 0.8 s per mechanism
# and n=16 about 4 s. n=16 is left out: one n=16 audit alone would leave
# too few repetitions in a run for a steady median. Every audit starts with
# cleared caches, so no audit's time depends on the ones before it. The
# workload has no random input: a shuffled job order would only move peak
# RSS with the seed, through allocator fragmentation.
GENERAL_NS = (10, 12, 14)
CHAIN_NS = (64, 256)


def audit_jobs():
    """(kind, n, mechanism spec, expected verdict, expected failing step).

    A mechanism spec is (name, args) for the privbuy factory of that name.
    The verdicts follow criteria 6-8 (exact_sum is flagged at IR by the
    general audit, monotonic alg1 at ln 2 sacrifices accuracy, the tradeoff
    audit on alg1 finds the accuracy violation at its final hybrid); the
    rest were pinned from the commit that introduced this benchmark.
    """
    jobs = []
    for n in GENERAL_NS:
        mechs = (("alg1", (2.0 * n, LN2, n)), ("exact_sum", (n,)), ("subsample", (1.0, n // 2, n)))
        for spec in mechs:
            jobs.append(("general", n, spec, "ir_violated", 0))
    for n in CHAIN_NS:
        jobs.append(("monotonic", n, ("alg1", (2.0 * n, LN2, n)), "accuracy_sacrificed", None))
        jobs.append(("monotonic", n, ("alg1", (2.0 * n, 0.05, n)), "ir_violated", 0))
        jobs.append(("monotonic", n, ("exact_sum", (n,)), "ir_violated", 0))
        jobs.append(("monotonic", n, ("subsample", (1.0, n // 2, n)), "ir_violated", 0))
        # B = n/2 keeps theta = B/(2 eps n) below tau = 8 at both epsilons,
        # and the zero-valuation pay cap P = B/n = 1/2 keeps beta = 1/4
        # under 1/2 - (P/tau) gamma n.
        h_plus_g2 = n // 4 + 2
        for eps in (LN2, 0.05):
            jobs.append(("tradeoff", n, ("alg1", (n / 2.0, eps, n)), "accuracy_violated", h_plus_g2))
    return jobs


TRADEOFF = {"tau": 8.0, "eta": 0.25, "beta": 0.25, "max_pay": 0.5}  # gamma = 1/n


def audit_cuts() -> dict:
    return {
        "general_n": list(GENERAL_NS),
        "chain_n": list(CHAIN_NS),
        "jobs": len(audit_jobs()),
    }


# --- cli_batch -------------------------------------------------------------
CLI_N = 6
CLI_PROFILES = 40
CLI_MC_TRIALS = 1000
DEMOS = ("thm_mon", "thm_imp", "thm_monimp", "tradeoff", "subsample")

# The README's example config, verbatim apart from the output paths, which
# every run overrides with --out.
README_CONFIG = {
    "mechanism": {"name": "alg1", "budget": 8.0, "epsilon": 0.5, "n": 4},
    "loss_model": {"kind": "dp_bounded_monotonic"},
    "profiles": [{"bits": [1, 1, 0, 1], "valuations": [1.0, 3.0, 0.0, 2.0]}],
    "checks": [
        "ir",
        {"check": "truthful", "players": "claimed"},
        {"check": "accuracy", "alpha": 0.75, "alpha_prime": 0.5, "beta": 0.27},
        {"check": "distinguishability", "delta": 0.3, "relation": "monotonic"},
        {"check": "audit_monotonic"},
    ],
    "mass_tol": 1e-12,
    "output": {"csv": "report.csv", "report": "report.json"},
}

# Mechanism parameters and loss models do not depend on the seed, so the
# audit verdicts are pinned for every seed; only the profiles are seeded.
CLI_MECHANISMS = {
    "alg1": ({"name": "alg1", "budget": 6.0, "epsilon": LN2, "n": CLI_N}, "dp_bounded_monotonic"),
    "alg1_prime": ({"name": "alg1_prime", "budget": 6.0, "epsilon": LN2, "n": CLI_N}, "dp_bounded_monotonic"),
    "subsample": ({"name": "subsample", "flat_pay": 1.0, "sample_size": 3, "n": CLI_N}, "dp_bounded_general"),
    "pay_declared": ({"name": "pay_declared", "epsilon": 0.5, "n": CLI_N}, "dp_bounded_general"),
    "exact_sum": ({"name": "exact_sum", "n": CLI_N, "flat_pay": 0.5}, "dp_bounded_general"),
}
GEOMETRIC = ("alg1", "alg1_prime", "pay_declared")


def cli_configs(seed: int) -> dict[str, dict]:
    """One seeded config per mechanism, plus the README config."""
    configs = {}
    for name, (mech, loss) in CLI_MECHANISMS.items():
        rng = random.Random(f"{seed}:{name}")
        # valuations spread over [0, 3 theta] of alg1 (theta = 0.72 here),
        # so about a third of the players qualify
        profiles = [
            {
                "bits": [rng.randint(0, 1) for _ in range(CLI_N)],
                "valuations": [round(rng.uniform(0.0, 2.2), 9) for _ in range(CLI_N)],
            }
            for _ in range(CLI_PROFILES)
        ]
        checks = [
            "ir",
            {"check": "truthful", "players": "all"},
            {"check": "accuracy", "alpha": 0.5, "alpha_prime": 0.5, "beta": 0.35},
            # A wide window and a loose beta keep the sampled verdict
            # independent of the sampler's stream: no law here leaves
            # (bbar - n, bbar + n) with probability above 2/3.
            {"check": "accuracy", "alpha": 1.0, "alpha_prime": 1.0, "beta": 0.9,
             "method": "monte_carlo", "trials": CLI_MC_TRIALS},
            {"check": "distinguishability", "delta": 0.3, "relation": "general"},
            {"check": "distinguishability", "delta": 0.3, "relation": "monotonic"},
        ]
        if name in GEOMETRIC:
            checks.append({"check": "dp"})
        checks += [
            {"check": "audit_general"},
            {"check": "audit_monotonic"},
            {"check": "audit_tradeoff", "tau": 8.0, "gamma": 1.0 / 6.0, "eta": 1.0 / 3.0, "beta": 0.25},
        ]
        configs[name] = {
            "mechanism": mech,
            "loss_model": {"kind": loss},
            "profiles": profiles,
            "checks": checks,
            "seed": seed,
            "mass_tol": 1e-12,
        }
    configs["readme"] = dict(README_CONFIG)
    return configs


def cli_cuts() -> dict:
    return {
        "n": CLI_N,
        "profiles_per_config": CLI_PROFILES,
        "monte_carlo_trials": CLI_MC_TRIALS,
        "configs": list(CLI_MECHANISMS) + ["readme"],
        "demos": list(DEMOS),
    }


# --- cli oracle ------------------------------------------------------------
def exit_code_for(verdicts) -> int:
    """The exit-code rule of ``privbuy run``, restated from its docs."""
    if any(v in ("fail", "theorem_contradicted") for v in verdicts):
        return 1
    if any(v == "inconclusive" for v in verdicts):
        return 2
    return 0


def _qualifies(mech: dict, valuation: float) -> bool:
    """alg1's participation rule 2 eps v <= B/n, restated from its docs."""
    return 2.0 * mech["epsilon"] * valuation <= mech["budget"] / mech["n"]


def _theorem_rows(name: str, config: dict, report: dict) -> list[str]:
    """Verdicts the theorems fix for every seed.

    alg1 and alg1_prime are IR for every player under monotonic DP-bounded
    losses (thm_mon) and pass the DP check at their epsilon; alg1 is
    truthful for players at or below theta, alg1_prime also for every bit-0
    player (thm_moretruth). pay_declared is IR under DP-bounded losses, and
    subsample ignores declarations, so it is truthful for everyone.
    """
    errors = []
    mech = config["mechanism"]
    profiles = config["profiles"]
    for row in report["rows"]:
        check, verdict = row["check"], row["verdict"]
        if check == "dp" and verdict != "pass":
            errors.append(f"{name}: dp row {row['profile']}/{row['player']} is {verdict}")
        if check == "ir" and name in ("alg1", "alg1_prime", "pay_declared") and verdict != "pass":
            errors.append(f"{name}: ir row {row['profile']}/{row['player']} is {verdict}")
        if check == "truthful":
            x = profiles[int(row["profile"][1:])]
            i = row["player"]
            claimed = name == "subsample"
            if name in ("alg1", "alg1_prime"):
                claimed = _qualifies(mech, x["valuations"][i]) or (name == "alg1_prime" and x["bits"][i] == 0)
            if claimed and verdict != "pass":
                errors.append(f"{name}: truthful row {row['profile']}/{i} is {verdict}")
    return errors


def expected_rows(config: dict) -> list[tuple]:
    """(check, profile, player, index of the config check) of every row a
    run of ``config`` must report, in order. Audits report no rows."""
    n = config["mechanism"]["n"]
    out = []
    for idx, entry in enumerate(config["checks"]):
        check = entry if isinstance(entry, str) else entry["check"]
        if check.startswith("audit_"):
            continue
        for p in range(len(config["profiles"])):
            players = (None,) if check == "accuracy" else range(n)
            if check == "truthful" and isinstance(entry, dict) and entry.get("players") == "claimed":
                vals = config["profiles"][p]["valuations"]
                players = [i for i in range(n) if _qualifies(config["mechanism"], vals[i])]
            out.extend((check, f"p{p}", i, idx) for i in players)
    return out


def check_cli_report(name: str, config: dict, code: int, report: dict, reference: dict) -> list[str]:
    """Oracle for one ``privbuy run``: a list of disagreements, empty when
    the run is correct.

    Every seed: the exit code follows the verdicts, the rows are exactly
    the ones the config asks for, theorem-fixed verdicts hold, and the
    audit verdicts and failing steps match the reference (they do not
    depend on the seed). With a reference for this seed, every row's
    verdict must match exactly, and margins must agree within a tolerance
    tied to mass_tol, so a sound tightening of an enclosure passes while a
    flipped verdict never does. Sampled (Monte Carlo) rows are compared by
    verdict only, since a different sampler draws a different stream.
    """
    errors = []
    verdicts = [r["verdict"] for r in report["rows"]] + [a["verdict"] for a in report["audits"]]
    if code != exit_code_for(verdicts) or report["exit_code"] != code:
        errors.append(f"{name}: exit code {code} does not follow its verdicts")
    expected = expected_rows(config)
    if [(r["check"], r["profile"], r["player"]) for r in report["rows"]] != [e[:3] for e in expected]:
        return errors + [f"{name}: rows differ from the checks the config asks for"]
    errors += _theorem_rows(name, config, report)
    got = [[a["audit"], a["verdict"], a["failing_step"]] for a in report["audits"]]
    if got != reference["audits"]:
        errors.append(f"{name}: audits {got} != reference {reference['audits']}")
    if "rows" not in reference:
        return errors
    if code != reference["exit_code"]:
        errors.append(f"{name}: exit code {code} != reference {reference['exit_code']}")
    tol = 1000.0 * config.get("mass_tol", 1e-12)
    for r, e, (verdict, margin) in zip(report["rows"], expected, reference["rows"]):
        where = f"{name}: {r['check']} {r['profile']}/{r['player']}"
        if r["verdict"] != verdict:
            errors.append(f"{where} verdict {r['verdict']} != reference {verdict}")
        elif not _sampled(config, e[3]) and not _margin_close(r["margin"], margin, tol):
            errors.append(f"{where} margin {r['margin']!r} != reference {margin!r}")
    return errors


def _sampled(config: dict, idx: int) -> bool:
    entry = config["checks"][idx]
    return isinstance(entry, dict) and entry.get("method") == "monte_carlo"


def _margin_close(got: float, want: float, tol: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= tol * max(1.0, abs(want))


def reference_entry(code: int, report: dict, with_rows: bool) -> dict:
    """What ``check_cli_report`` compares against, taken from one run."""
    entry = {"audits": [[a["audit"], a["verdict"], a["failing_step"]] for a in report["audits"]]}
    if with_rows:
        entry.update(exit_code=code, rows=[[r["verdict"], r["margin"]] for r in report["rows"]])
    return entry
