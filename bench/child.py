"""One benchmark repetition, run in a fresh interpreter by run.py.

    python bench/child.py grid --seed N [--trace]
    python bench/child.py audits [--trace]
    python bench/child.py cli-setup CONFIG...
    python bench/child.py cli [--trace] -- <privbuy arguments>
    python bench/child.py probe

The last line of standard output is one JSON object. ``setup_s`` covers
``import privbuy`` plus building the workload's mechanisms and loss models;
``wall_s`` covers the workload's verdicts. The ``cli`` task runs one
``privbuy`` command through ``privbuy.cli.main`` and times that call alone,
so its latency leaves out interpreter start-up and imports. With --trace
the layer spans of tracer.py are installed right after the import, and
their counts replace the untraced timings (run.py takes no end-to-end
number from a traced repetition).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from pathlib import Path

import workloads

clock = time.perf_counter_ns


def _install_tracer(enabled: bool):
    if not enabled:
        return None
    import tracer

    return tracer.install()


def _lru_caches() -> dict:
    """privbuy's lru caches, taken before tracer.py wraps their bindings."""
    from privbuy import distributions, mechanisms

    return {
        "distributions.shifted_geom_dist": distributions.shifted_geom_dist,
        "mechanisms.subsample_law": mechanisms._subsample_law,
    }


def _clear_caches(caches: dict) -> None:
    from privbuy import losses

    for fn in caches.values():
        fn.cache_clear()
    losses.clear_expectation_cache()


def _count_cache_info(tr, caches: dict) -> None:
    """Add each lru cache's hits and misses since it was last cleared."""
    for name, fn in caches.items():
        info = fn.cache_info()
        tr.count(f"{name}.hits", info.hits)
        tr.count(f"{name}.misses", info.misses)


def _trace_data(tr) -> dict:
    if tr is None:
        return {}
    return {"calls": tr.calls, "self_ns": tr.self_ns, "total_ns": tr.total_ns, "counts": tr.counts}


def _timed(fn, samples: list):
    """``fn`` that appends the duration of each call to ``samples``."""

    def timed(*args, **kwargs):
        c0 = clock()
        result = fn(*args, **kwargs)
        samples.append(clock() - c0)
        return result

    return timed


def _tail(eps: float, t: int) -> float:
    """Pr[|noise| >= t] of the two-sided geometric, from its closed form."""
    a = math.exp(-eps)
    return 2.0 * a**t / (1.0 + a)


def run_grid(seed: int, trace: bool) -> dict:
    t0 = clock()
    import privbuy
    from privbuy import AccuracySpec, InputProfile, NeighborRelation

    t_import = clock() - t0
    caches = _lru_caches()
    tr = _install_tracer(trace)
    t1 = clock()
    cells = []
    for n, eps, budget in workloads.grid_cells():
        for factory in (privbuy.alg1, privbuy.alg1_prime):
            mech = factory(budget, eps, n)
            cells.append((n, eps, mech, privbuy.tight_dp_loss(mech, NeighborRelation.MONOTONIC)))
    setup_ns = t_import + clock() - t1

    tasks = []
    for cell in cells:
        n, _, mech, _ = cell
        for bits, vals in workloads.grid_profiles(n, mech.params.theta):
            tasks.append((cell, InputProfile.from_arrays(bits, vals)))
    random.Random(seed).shuffle(tasks)
    specs = {}
    for n, eps, mech, _ in cells:
        for gn in workloads.GRID_GAMMA_NS:
            for eta_n in range(n + 1):
                specs[n, eps, gn, eta_n] = AccuracySpec(eta_n / n + gn / n, gn / n, 2.0 * math.exp(-eps * gn))

    lat = []
    check_ir = _timed(privbuy.check_ir, lat)
    check_truthful = _timed(privbuy.check_truthful, lat)
    check_accuracy = _timed(privbuy.check_accuracy, lat)
    _clear_caches(caches)
    if tr:
        tr.reset()
    results = []
    start = clock()
    for cell, x in tasks:
        n, eps, mech, model = cell
        q = mech.params.qualifies
        if not mech.pay_all_zero_bits:
            results.append(("ir", cell, x, None, check_ir(mech, model, x)))
            for i, p in enumerate(x.players):
                if q(p.valuation):
                    results.append(("truthful", cell, x, i, check_truthful(mech, model, x, i)))
            eta_n = sum(1 for p in x.players if p.bit == 1 and not q(p.valuation))
            for gn in workloads.GRID_GAMMA_NS:
                spec = specs[n, eps, gn, eta_n]
                results.append(("accuracy", cell, x, (gn, eta_n, spec.beta), check_accuracy(mech, x, spec)))
        else:
            for i, p in enumerate(x.players):
                if p.bit == 0 or q(p.valuation):
                    results.append(("truthful", cell, x, i, check_truthful(mech, model, x, i)))
    wall_ns = clock() - start
    if tr:
        _count_cache_info(tr, caches)

    # oracle: thm_mon (criterion 1) and thm_moretruth (criterion 2)
    failures = []
    for kind, cell, x, arg, r in results:
        n, eps, mech, _ = cell
        if kind == "ir":
            ok = all(row.verdict == "pass" for row in r)
        elif kind == "truthful":
            ok = r.verdict == "pass"
        else:
            gn, eta_n, beta = arg
            expected_out = 0.5 * (_tail(eps, gn) + _tail(eps, eta_n + gn))
            ok = r.verdict == "pass" and abs((beta - r.margin) - expected_out) <= 1e-9
        if not ok:
            failures.append(f"{mech.name} n={n} eps={eps:g} B={mech.params.budget:g} {x} {kind} {arg}")
    return {
        "setup_s": setup_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "latencies_ns": lat,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:5],
        **_trace_data(tr),
    }


def run_audits(trace: bool) -> dict:
    t0 = clock()
    import privbuy
    from privbuy import NeighborRelation

    t_import = clock() - t0
    caches = _lru_caches()
    tr = _install_tracer(trace)
    t1 = clock()
    jobs = []
    for kind, n, (name, args), verdict, step in workloads.audit_jobs():
        mech = getattr(privbuy, name)(*args)
        if kind == "general":
            delta = 1.0 / (6 * n)
            model = privbuy.increasing_threshold_model(delta, relation=NeighborRelation.GENERAL)
            call = (privbuy.audit_general_impossibility, (mech, model), {"delta": delta})
        elif kind == "monotonic":
            delta = 1.0 / (3 * n)
            model = privbuy.increasing_threshold_model(delta, relation=NeighborRelation.MONOTONIC)
            call = (privbuy.audit_monotonic_impossibility, (mech, model), {"delta": delta})
        else:
            params = privbuy.TradeoffParams(gamma=1.0 / n, **workloads.TRADEOFF)
            call = (privbuy.audit_payment_accuracy_tradeoff, (mech, privbuy.growing_sd_model(), params), {})
        jobs.append((kind, n, f"{name}{args}", verdict, step, call))
    setup_ns = t_import + clock() - t1

    if tr:
        tr.reset()
    # Each audit starts with cleared caches, so its time is its own work and
    # not what earlier audits left behind.
    results, lat = [], []
    for job in jobs:
        fn, args, kwargs = job[5]
        _clear_caches(caches)
        c0 = clock()
        report = fn(*args, **kwargs)
        c1 = clock()
        lat.append(c1 - c0)
        results.append((job, report))
        if tr:
            _count_cache_info(tr, caches)
    wall_ns = sum(lat)

    failures, by_size = [], {}
    for (kind, n, label, verdict, step, _), report in results:
        if (report.verdict, report.failing_step) != (verdict, step):
            failures.append(f"{kind} {label}: {report.verdict} at {report.failing_step}, want {verdict} at {step}")
    for (kind, n, *_), ns in zip(jobs, lat):
        key = f"{kind}.n{n}"
        by_size[key] = by_size.get(key, 0) + ns
    return {
        "setup_s": setup_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "latencies_ns": lat,
        "size_s": {k: v / 1e9 for k, v in by_size.items()},
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:5],
        **_trace_data(tr),
    }


def run_cli_setup(paths: list[str]) -> dict:
    t0 = clock()
    from privbuy.cli import build_mechanism, build_model, parse_config

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config(json.load(fh))
        build_model(cfg.loss_model, build_mechanism(cfg.mechanism))
    return {"setup_s": (clock() - t0) / 1e9}


def run_cli(argv: list[str], trace: bool) -> dict:
    """One ``privbuy`` command, as ``python -m privbuy`` would run it: an
    uncaught exception gives exit code 1. Its standard output is captured
    and returned as a digest, so the result stays the last line."""
    from privbuy import cli

    caches = _lru_caches()
    tr = _install_tracer(trace)
    if tr:
        tr.reset()
    captured = io.StringIO()
    error = None
    c0 = clock()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001  (reported, and counted by the oracle)
            code, error = 1, traceback.format_exc(limit=5)
    call_ns = clock() - c0
    if tr:
        _count_cache_info(tr, caches)
    stdout_sha256 = hashlib.sha256(captured.getvalue().encode("utf-8")).hexdigest()
    return {"code": code, "call_ns": call_ns, "stdout_sha256": stdout_sha256, "error": error, **_trace_data(tr)}


def run_probe() -> dict:
    import privbuy
    import privbuy.cli  # noqa: F401  (compiles every module once)

    return {"privbuy": str(Path(privbuy.__file__).resolve()), "version": privbuy.__version__}


def main(argv: list[str]) -> int:
    task, rest = argv[0], argv[1:]
    trace = "--trace" in rest
    seed = int(rest[rest.index("--seed") + 1]) if "--seed" in rest else 0
    if task == "grid":
        out = run_grid(seed, trace)
    elif task == "audits":
        out = run_audits(trace)
    elif task == "cli-setup":
        out = run_cli_setup(rest)
    elif task == "cli":
        sep = rest.index("--")
        out = run_cli(rest[sep + 1 :], "--trace" in rest[:sep])
    elif task == "probe":
        out = run_probe()
    else:
        print(f"unknown task {task!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
