"""Command-line front end.

Subcommands:
  run <config.json>   execute the checks described by a config file
  demo <name>         canned small instances (thm_mon, thm_imp, thm_monimp,
                      tradeoff, subsample)
  dist ...            statistical-distance calculator for shifted geometric laws
  version             print the package version

A run is driven by a single self-describing JSON config; command-line flags
only override the seed, the truncation budget, and the output stem. Exit
codes: 0 all checks pass, 1 any check fails, 2 any check inconclusive,
3 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .audits import (
    THEOREM_CONTRADICTED,
    AuditReport,
    TradeoffParams,
    audit_general_impossibility,
    audit_monotonic_impossibility,
    audit_payment_accuracy_tradeoff,
)
from .core import InputProfile, Mechanism, NeighborRelation, finite_valuation, is_int
from .distributions import DEFAULT_MASS_TOL, GeomParams, dp_level, shifted_geom_dist, statistical_distance, window_radius
from .losses import (
    LossModel,
    growing_sd_model,
    increasing_threshold_model,
    tight_dp_loss,
    zero_loss,
)
from .mechanisms import (
    ShiftedGeometricMechanism,
    alg1,
    alg1_prime,
    exact_sum,
    max_zero_valuation_pay,
    pay_declared,
    subsample,
)
from .verifiers import (
    FAIL,
    INCONCLUSIVE,
    AccuracySpec,
    CheckResult,
    DistinguishabilityQuery,
    check_accuracy,
    check_distinguishable,
    check_dp,
    check_ir,
    check_truthful,
)

CSV_COLUMNS = ["check", "mechanism", "profile", "player", "verdict", "margin", "witness"]


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _need(cfg: dict, field: str, context: str):
    if field not in cfg:
        raise ConfigError(f"{context}.{field}", "missing required field")
    return cfg[field]


_REQUIRED = object()


def _number(cfg: dict, field: str, context: str, default=_REQUIRED):
    """A finite numeric field, or ``default`` when it is absent. A JSON
    boolean is refused, since ``true`` is the int 1, and so is NaN, which
    compares false to everything and so slips past range checks. So is
    +-Infinity, which passes any bound and which strict JSON cannot hold
    in a report."""
    if field not in cfg and default is not _REQUIRED:
        return default
    value = _need(cfg, field, context)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise ConfigError(f"{context}.{field}", f"must be a number, got {value!r}")
    if math.isinf(value):
        raise ConfigError(f"{context}.{field}", f"must be finite, got {value!r}")
    return value


def build_mechanism(cfg: dict) -> Mechanism:
    if not isinstance(cfg, dict):
        raise ConfigError("mechanism", "must be an object")
    name = _need(cfg, "name", "mechanism")
    try:
        if name in ("alg1", "alg1_prime"):
            factory = alg1 if name == "alg1" else alg1_prime
            return factory(
                _number(cfg, "budget", "mechanism"), _number(cfg, "epsilon", "mechanism"), _need(cfg, "n", "mechanism")
            )
        if name == "subsample":
            return subsample(
                _number(cfg, "flat_pay", "mechanism"),
                _need(cfg, "sample_size", "mechanism"),
                _need(cfg, "n", "mechanism"),
                _number(cfg, "distinguishability_budget", "mechanism", math.inf),
            )
        if name == "pay_declared":
            return pay_declared(_number(cfg, "epsilon", "mechanism"), _need(cfg, "n", "mechanism"))
        if name == "exact_sum":
            return exact_sum(_need(cfg, "n", "mechanism"), _number(cfg, "flat_pay", "mechanism", 0.0))
    except (ValueError, TypeError) as exc:
        raise ConfigError("mechanism", str(exc)) from exc
    raise ConfigError("mechanism.name", f"unknown mechanism {name!r}")


def _relation(value, context: str) -> NeighborRelation:
    try:
        return NeighborRelation(value)
    except ValueError as exc:
        raise ConfigError(context, f"unknown relation {value!r}") from exc


def build_model(cfg: dict, mech: Mechanism) -> LossModel:
    if not isinstance(cfg, dict):
        raise ConfigError("loss_model", "must be an object")
    kind = _need(cfg, "kind", "loss_model")
    try:
        if kind == "zero":
            return zero_loss()
        if kind == "dp_bounded_general":
            return tight_dp_loss(mech, NeighborRelation.GENERAL)
        if kind == "dp_bounded_monotonic":
            return tight_dp_loss(mech, NeighborRelation.MONOTONIC)
        if kind == "growing_sd_monotonic":
            return growing_sd_model()
        if kind == "increasing_with_threshold":
            offset = _number(cfg, "threshold_offset", "loss_model", 1.0)
            return increasing_threshold_model(
                _number(cfg, "delta", "loss_model"),
                threshold_fn=lambda ell, bits=None, v_minus=None: ell + offset,
                relation=_relation(cfg.get("relation", "general"), "loss_model.relation"),
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError("loss_model", str(exc)) from exc
    raise ConfigError("loss_model.kind", f"unknown loss model {kind!r}")


@dataclass
class RunConfig:
    mechanism: dict
    loss_model: dict
    profiles: list[InputProfile]
    checks: list[dict]
    seed: int | None
    mass_tol: float
    output: dict
    raw: dict


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    mechanism = _need(raw, "mechanism", "<root>")
    loss_model = raw.get("loss_model", {"kind": "zero"})

    profiles = []
    if "profiles_file" in raw:
        try:
            with open(raw["profiles_file"], encoding="utf-8") as fh:
                entries = json.load(fh)
        except OSError as exc:
            raise ConfigError("profiles_file", str(exc)) from exc
    else:
        entries = raw.get("profiles", [])
    for idx, entry in enumerate(entries):
        try:
            profiles.append(InputProfile.from_json_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"profiles[{idx}]", str(exc)) from exc

    checks = []
    for idx, entry in enumerate(raw.get("checks", [])):
        if isinstance(entry, str):
            entry = {"check": entry}
        if not isinstance(entry, dict) or "check" not in entry:
            raise ConfigError(f"checks[{idx}]", "must be a name or an object with a 'check' field")
        checks.append(entry)

    seed = raw.get("seed")
    if seed is not None and not is_int(seed):
        raise ConfigError("seed", "must be an integer")
    needs_seed = any(c.get("method") == "monte_carlo" for c in checks)
    if needs_seed and seed is None:
        raise ConfigError("seed", "required when any Monte Carlo mode is requested")

    mass_tol = raw.get("mass_tol", DEFAULT_MASS_TOL)
    if not (isinstance(mass_tol, (int, float)) and 0.0 < mass_tol < 1.0):
        raise ConfigError("mass_tol", f"must be in (0, 1), got {mass_tol!r}")

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output", "must be an object")
    output = {
        "csv": output.get("csv", "privbuy_report.csv"),
        "report": output.get("report", "privbuy_report.json"),
    }
    return RunConfig(mechanism, loss_model, profiles, checks, seed, float(mass_tol), output, raw)


def _players_scope(entry: dict, mech: Mechanism, x: InputProfile, context: str):
    scope = entry.get("players", "all")
    if scope == "all":
        return range(x.n)
    if scope == "claimed":
        return mech.claimed_truthful_players(x)
    if isinstance(scope, list) and all(map(is_int, scope)):
        return scope
    raise ConfigError(f"{context}.players", f"expected 'all', 'claimed', or a list of indices, got {scope!r}")


def _run_check(entry, mech, model, profiles, cfg, ctx) -> tuple[list[CheckResult], list[AuditReport]]:
    name = entry["check"]
    rows: list[CheckResult] = []
    audits: list[AuditReport] = []
    tol = cfg.mass_tol

    def each_profile():
        if not profiles:
            raise ConfigError(ctx, f"check {name!r} needs at least one profile")
        for idx, x in enumerate(profiles):
            yield f"p{idx}", x

    if name == "ir":
        for pid, x in each_profile():
            rows.extend(check_ir(mech, model, x, tol, pid))
    elif name == "truthful":
        extras = entry.get("deviations")  # extend the canonical grid
        if extras is not None:
            try:
                for v in extras:
                    finite_valuation(v)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{ctx}.deviations", str(exc)) from exc
        for pid, x in each_profile():
            for i in _players_scope(entry, mech, x, ctx):
                devs = None
                if extras is not None:
                    devs = tuple(dict.fromkeys(tuple(mech.deviation_valuations(x, i)) + tuple(extras)))
                rows.append(check_truthful(mech, model, x, i, devs, tol, pid))
    elif name == "accuracy":
        spec = AccuracySpec(
            _number(entry, "alpha", ctx), _number(entry, "alpha_prime", ctx), _number(entry, "beta", ctx)
        )
        method = entry.get("method", "exact")
        trials = entry.get("trials", 10000)
        if not (is_int(trials) and trials >= 1):
            raise ConfigError(f"{ctx}.trials", f"must be an integer >= 1, got {trials!r}")
        for pid, x in each_profile():
            rows.append(
                check_accuracy(
                    mech, x, spec, method=method, trials=trials,
                    seed=cfg.seed or 0, mass_tol=tol, profile_id=pid,
                )
            )
    elif name == "dp":
        bound = _number(entry, "bound", ctx, mech.epsilon if isinstance(mech, ShiftedGeometricMechanism) else None)
        if bound is None:
            raise ConfigError(f"{ctx}.bound", "required for mechanisms without an epsilon parameter")
        relation = _relation(entry.get("relation", "general"), f"{ctx}.relation")
        for pid, x in each_profile():
            rows.extend(check_dp(mech, x, bound, relation, tol, pid))
    elif name == "distinguishability":
        delta = _number(entry, "delta", ctx)
        relation = _relation(entry.get("relation", "general"), f"{ctx}.relation")
        for pid, x in each_profile():
            for i in _players_scope(entry, mech, x, ctx):
                rows.append(check_distinguishable(mech, x, DistinguishabilityQuery(i, delta, relation), tol, pid))
    elif name in ("audit_general", "audit_monotonic"):
        relation = NeighborRelation.GENERAL if name == "audit_general" else NeighborRelation.MONOTONIC
        cap = 1.0 / (6 * mech.player_count) if name == "audit_general" else 1.0 / (3 * mech.player_count)
        delta = _number(entry, "delta", ctx, cap)
        offset = _number(entry, "threshold_offset", ctx, 1.0)
        audit_model = increasing_threshold_model(
            delta, threshold_fn=lambda ell, bits=None, v_minus=None: ell + offset, relation=relation
        )
        fn = audit_general_impossibility if name == "audit_general" else audit_monotonic_impossibility
        audits.append(fn(mech, audit_model, delta=delta, mass_tol=tol))
    elif name == "audit_tradeoff":
        max_pay = _number(entry, "max_pay", ctx) if "max_pay" in entry else max_zero_valuation_pay(mech)
        params = TradeoffParams(
            *(_number(entry, field, ctx) for field in ("tau", "gamma", "eta", "beta")), max_pay
        )
        audits.append(audit_payment_accuracy_tradeoff(mech, growing_sd_model(), params, tol))
    else:
        raise ConfigError(ctx, f"unknown check {name!r}")
    return rows, audits


def exit_code_for(rows: list[CheckResult], audits: list[AuditReport]) -> int:
    verdicts = [r.verdict for r in rows] + [a.verdict for a in audits]
    if any(v in (FAIL, THEOREM_CONTRADICTED) for v in verdicts):
        return 1
    if any(v == INCONCLUSIVE for v in verdicts):
        return 2
    return 0


def execute(cfg: RunConfig) -> tuple[int, list[CheckResult], list[AuditReport]]:
    try:
        mech = build_mechanism(cfg.mechanism)
        if isinstance(mech, ShiftedGeometricMechanism):
            # every check may build a window: refuse an oversized one up front
            try:
                window_radius(mech.geom, cfg.mass_tol)
            except ValueError as exc:
                raise ConfigError("mechanism.epsilon", str(exc)) from exc
        model = build_model(cfg.loss_model, mech)
        for idx, x in enumerate(cfg.profiles):
            if x.n != mech.player_count:
                raise ConfigError(f"profiles[{idx}]", f"has {x.n} players, mechanism expects {mech.player_count}")
        rows: list[CheckResult] = []
        audits: list[AuditReport] = []
        for idx, entry in enumerate(cfg.checks):
            r, a = _run_check(entry, mech, model, cfg.profiles, cfg, f"checks[{idx}]")
            rows.extend(r)
            audits.extend(a)
    except ConfigError:
        raise
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError("<run>", str(exc)) from exc
    return exit_code_for(rows, audits), rows, audits


def write_reports(cfg: RunConfig, code: int, rows: list[CheckResult], audits: list[AuditReport]) -> None:
    with open(cfg.output["csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(r.as_row())
        for a in audits:
            writer.writerow([a.audit, a.mechanism, "", "", a.verdict, "", a.witness])
    report = {
        "version": __version__,
        "exit_code": code,
        "config": cfg.raw,
        "rows": [r.to_json_dict() for r in rows],
        "audits": [a.to_json_dict() for a in audits],
    }
    with open(cfg.output["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_rows(rows: list[CheckResult]) -> None:
    if not rows:
        return
    print(f"{'check':<18} {'profile':<10} {'player':>6} {'verdict':<20} {'margin':>13}  witness")
    for r in rows:
        player = "" if r.player is None else r.player
        print(f"{r.check:<18} {r.profile:<10} {player!s:>6} {r.verdict:<20} {r.margin:>13.6g}  {r.witness}")


def _print_audit(report: AuditReport) -> None:
    print(f"== audit {report.audit} on {report.mechanism}: verdict {report.verdict.upper()} ==")
    print("params: " + ", ".join(f"{k}={v:g}" for k, v in report.params))
    for line in report.details:
        print("  " + line)
    if report.chain is not None:
        print(f"  chain of {len(report.chain.inputs)} inputs; end-to-end distance {report.chain.end_to_end}")
        for idx, d in enumerate(report.chain.step_distances):
            print(f"    step {idx}: {report.chain.inputs[idx]} -> {report.chain.inputs[idx + 1]}: {d}")
    for r in report.accuracy:
        print(f"  accuracy[{r.profile}]: {r.verdict} ({r.witness})")
    if report.witness:
        print(f"  witness: {report.witness}")


def cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 3
    # the flags override the config's fields before parse_config checks them
    overrides = {k: v for k, v in (("seed", args.seed), ("mass_tol", args.mass_tol)) if v is not None}
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    try:
        cfg = parse_config(raw)
        if args.out is not None:
            cfg.output = {"csv": args.out + ".csv", "report": args.out + ".json"}
        code, rows, audits = execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    write_reports(cfg, code, rows, audits)
    _print_rows(rows)
    for a in audits:
        _print_audit(a)
    counts = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    summary = ", ".join(f"{v}: {c}" for v, c in sorted(counts.items())) or "no check rows"
    print(f"{summary}; audits: {len(audits)}; exit code {code}")
    print(f"reports written to {cfg.output['csv']} and {cfg.output['report']}")
    return code


def demo_thm_mon() -> int:
    """Budget mechanism, n=4, B=8, eps=0.5: IR for everyone, truthfulness for
    every low-valuation player, and the geometric-tail accuracy target, over
    all 16 bit vectors."""
    n, budget, eps = 4, 8.0, 0.5
    mech = alg1(budget, eps, n)
    theta = mech.params.theta
    vals = (0.0, theta / 2.0, theta, 2.0 * theta)
    model = tight_dp_loss(mech, NeighborRelation.MONOTONIC)
    gamma = 2.0 / n
    beta = 2.0 * math.exp(-eps * gamma * n)
    rows: list[CheckResult] = []
    for mask in range(2**n):
        bits = [(mask >> j) & 1 for j in range(n)]
        x = InputProfile.from_arrays(bits, vals)
        pid = f"b{mask:04b}"
        rows.extend(check_ir(mech, model, x, profile_id=pid))
        for i in mech.claimed_truthful_players(x):
            rows.append(check_truthful(mech, model, x, i, profile_id=pid))
        eta = sum(1 for p in x.players if p.bit == 1 and not mech.params.qualifies(p.valuation)) / n
        rows.append(check_accuracy(mech, x, AccuracySpec(eta + gamma, gamma, beta), profile_id=pid))
    _print_rows(rows)
    code = exit_code_for(rows, [])
    print(f"{len(rows)} checks, exit code {code}")
    return code


def demo_thm_imp() -> int:
    """General impossibility chain: the exact-sum baseline and the budget
    mechanism are both flagged at the IR step under a general increasing
    loss model."""
    code = 0
    for mech in (exact_sum(2), alg1(4.0, math.log(2.0), 2)):
        delta = 1.0 / (6 * mech.player_count)
        model = increasing_threshold_model(delta, relation=NeighborRelation.GENERAL)
        report = audit_general_impossibility(mech, model, delta=delta)
        _print_audit(report)
        code = max(code, exit_code_for([], [report]))
    return code


def demo_thm_monimp() -> int:
    """Adaptive monotonic chain on the budget mechanism: every step's law is
    unchanged, and accuracy collapses on the all-ones high-valuation
    endpoint instead of IR or truthfulness breaking."""
    mech = alg1(4.0, math.log(2.0), 2)
    delta = 1.0 / (3 * mech.player_count)
    model = increasing_threshold_model(delta, relation=NeighborRelation.MONOTONIC)
    report = audit_monotonic_impossibility(mech, model, delta=delta)
    _print_audit(report)
    return exit_code_for([], [report])


def demo_tradeoff() -> int:
    """Payment/accuracy tradeoff on the budget mechanism with n=8: premises
    hold along the chain and accuracy fails at the final hybrid."""
    mech = alg1(8.0, math.log(2.0), 8)
    params = TradeoffParams(tau=8.0, gamma=0.125, eta=0.25, beta=0.25, max_pay=1.0)
    report = audit_payment_accuracy_tradeoff(mech, growing_sd_model(), params)
    _print_audit(report)
    return exit_code_for([], [report])


def demo_subsample() -> int:
    """Exact deviation rates of the n=10, k=5 subsampling mechanism against
    the 2 exp(-eta^2 k) tail target, on a bit vector with six ones."""
    n, k = 10, 5
    mech = subsample(1.0, k, n)
    x = InputProfile.from_arrays([1] * 6 + [0] * 4, [0.0] * n)
    law = mech.output_dist(x)
    print(f"count law for {x}: " + ", ".join(f"{c}:{p:.6g}" for c, p in zip(law.support, law.probs)))
    ok = True
    print(f"{'eta':>5} {'Pr[|count - sum| >= eta*n]':>28} {'2*exp(-eta^2*k)':>16}  verdict")
    for eta in (0.2, 0.4, 0.6):
        out = sum(p for c, p in zip(law.support, law.probs) if abs(c - x.bit_sum()) >= eta * n)
        bound = 2.0 * math.exp(-eta * eta * k)
        good = out <= bound
        ok = ok and good
        print(f"{eta:>5.2f} {out:>28.6g} {bound:>16.6g}  {'pass' if good else 'FAIL'}")
    return 0 if ok else 1


DEMOS = {
    "thm_mon": demo_thm_mon,
    "thm_imp": demo_thm_imp,
    "thm_monimp": demo_thm_monimp,
    "tradeoff": demo_tradeoff,
    "subsample": demo_subsample,
}


def cmd_demo(args) -> int:
    fn = DEMOS.get(args.name)
    if fn is None:
        print(f"unknown demo {args.name!r}; available: {', '.join(sorted(DEMOS))}", file=sys.stderr)
        return 3
    return fn()


def cmd_dist(args) -> int:
    try:
        g = GeomParams(args.epsilon)
        d1 = shifted_geom_dist(g, args.shift_a, args.mass_tol)
        d2 = shifted_geom_dist(g, args.shift_b, args.mass_tol)
        level = dp_level(d1, d2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    dist = statistical_distance(d1, d2)
    print(f"statistical distance between shift {args.shift_a} and shift {args.shift_b} at eps={args.epsilon:g}: {dist}")
    print(f"dp level: {level:.12g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="privbuy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--mass-tol", dest="mass_tol", type=float, default=None)
    p_run.add_argument("--out", default=None, help="output stem; writes <out>.csv and <out>.json")
    p_run.set_defaults(fn=cmd_run)

    p_demo = sub.add_parser("demo", help="run a canned demonstration")
    p_demo.add_argument("name")
    p_demo.set_defaults(fn=cmd_demo)

    p_dist = sub.add_parser("dist", help="statistical-distance calculator")
    p_dist.add_argument("epsilon", type=float)
    p_dist.add_argument("shift_a", type=int)
    p_dist.add_argument("shift_b", type=int)
    p_dist.add_argument("--mass-tol", dest="mass_tol", type=float, default=DEFAULT_MASS_TOL)
    p_dist.set_defaults(fn=cmd_dist)

    p_version = sub.add_parser("version", help="print the version")
    p_version.set_defaults(fn=lambda args: (print(__version__), 0)[1])

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
