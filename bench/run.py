"""privbuy benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify_grid|audit_scale|cli_batch \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it drives ``src/privbuy`` from
outside the package. Each repetition runs in a fresh interpreter (no
interpreter flags, no GC tuning), so every repetition starts with cold
caches as a user's process does. Repetitions run one at a time (a closed
loop with one client) until --seconds have passed, with a minimum count;
timings are medians over repetitions.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced (tracer.py) repetitions, and prints the per-layer metrics:
counts and self times from the traced repetitions, per-size audit walls
from the untraced ones, and trace.overhead_ratio, the traced wall over the
untraced wall.

Every operation (a check_* call, an audit, a CLI run) is checked by an
oracle; ``failed`` counts the ones that raised or disagreed. The last line
of standard output is the result object; the lines before it are a
readable table and a provenance record. Tier-1 test time and the
acceptance tests' own elapsed-time asserts are not metrics here: the tests
change from commit to commit, so they would time different work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKLOADS = ("verify_grid", "audit_scale", "cli_batch")
MIN_REPS = 3
MIN_TRACE_REPS = 3  # untraced, traced, untraced
CHILD_TIMEOUT_S = 150.0
HARD_STOP_S = 165.0  # start no repetition that could end after this


class BenchError(Exception):
    """The benchmark cannot run here (for example, no privbuy sources)."""


class ChildFailed(Exception):
    """A child process crashed or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONMALLOC", "PYTHONTRACEMALLOC", "PYTHONPROFILEIMPORTTIME"):
        env.pop(var, None)
    return env


class Runner:
    """Starts child processes one at a time and waits for each."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.count = 0

    def child(self, args: list[str]) -> tuple[dict, float, float]:
        """Run bench/child.py; (its result object, wall seconds, peak RSS in MB)."""
        self.count += 1
        out_path = self.tmp / f"child{self.count}.out"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py")] + args, stdout=out, stderr=subprocess.STDOUT,
                cwd=self.tmp, env=self.env,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        lines = text.strip().splitlines()
        if code != 0 or not lines:
            raise ChildFailed(f"child {args[0]} exited {code}: {text[-2000:]}")
        try:
            return json.loads(lines[-1]), wall, usage.ru_maxrss / 1024.0
        except json.JSONDecodeError as exc:
            raise ChildFailed(f"child {args[0]} printed no result: {text[-2000:]}") from exc


# --- repetitions ---------------------------------------------------------
# Each returns a dict with: setup_s, wall_s, latencies_s, rss_mb, attempted,
# failed, failures and, when traced, calls / self_ns / counts.


def rep_inprocess(runner: Runner, task: str, seed: int, traced: bool) -> dict:
    args = [task, "--seed", str(seed)] + (["--trace"] if traced else [])
    out, _, rss = runner.child(args)
    out["latencies_s"] = [ns / 1e9 for ns in out.pop("latencies_ns")]
    out["rss_mb"] = rss
    return out


class CliBatch:
    """The cli_batch workload: every config and demo as its own process."""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed
        self.configs = workloads.cli_configs(seed)
        self.reference = json.loads((BENCH / "reference" / "cli_batch.json").read_text(encoding="utf-8"))
        self.dir = runner.tmp / "cli"
        self.dir.mkdir()
        self.paths = {}
        for name, cfg in self.configs.items():
            path = self.dir / f"{name}.config.json"
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            self.paths[name] = path
        self.first: dict[str, tuple] = {}

    def reference_for(self, name: str) -> dict:
        entry = dict(self.reference["audits"][name])
        rows = self.reference["rows"].get(name)
        if rows is not None and (name == "readme" or self.seed == self.reference["seed"]):
            entry.update(rows)
        return entry

    def ops(self):
        for name in self.configs:
            yield name, ["run", str(self.paths[name]), "--out", str(self.dir / name)]
        for demo in workloads.DEMOS:
            yield f"demo:{demo}", ["demo", demo]

    def rep(self, traced: bool) -> dict:
        setup, _, _ = self.runner.child(["cli-setup"] + [str(p) for p in self.paths.values()])
        out = {"setup_s": setup["setup_s"], "wall_s": 0.0, "latencies_s": [], "rss_mb": 0.0, "attempted": 0,
               "failed": 0, "failures": [], "report_bytes": 0}
        traces = []
        for name, argv in self.ops():
            for path in self.report_paths(name):
                path.unlink(missing_ok=True)  # a run that writes no report must not pass on an old one
            result, wall, rss = self.runner.child(["cli"] + (["--trace"] if traced else []) + ["--", *argv])
            traces.append(result)
            out["latencies_s"].append(result["call_ns"] / 1e9)
            out["wall_s"] += wall
            out["rss_mb"] = max(out["rss_mb"], rss)
            out["attempted"] += 1
            errors = self.check(name, result)
            out["report_bytes"] += sum(p.stat().st_size for p in self.report_paths(name) if p.exists())
            if errors:
                out["failed"] += 1
                out["failures"].extend(errors[:3])
        if traced:
            out.update(merge_traces(traces))
        return out

    def report_paths(self, name: str) -> list[Path]:
        if name.startswith("demo:"):
            return []
        return [self.dir / f"{name}{ext}" for ext in (".csv", ".json")]

    def check(self, name: str, result: dict) -> list[str]:
        code = result["code"]
        crashed = [f"{name}: raised {result['error']}"] if result["error"] else []
        if name.startswith("demo:"):
            want = self.reference["demos"][name[5:]]
            errors = crashed + ([] if code == want else [f"{name}: exit code {code} != reference {want}"])
            fingerprint = (code, result["stdout_sha256"])
        else:
            try:
                csv_bytes, json_bytes = (p.read_bytes() for p in self.report_paths(name))
                report = json.loads(json_bytes)
            except (OSError, ValueError) as exc:
                return crashed + [f"{name}: no report ({exc}); exit code {code}"]
            errors = crashed + workloads.check_cli_report(
                name, self.configs[name], code, report, self.reference_for(name))
            fingerprint = (code, hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest())
        # byte-for-byte reproducibility against this seed's first repetition
        if self.first.setdefault(name, fingerprint) != fingerprint:
            errors.append(f"{name}: output differs from the first repetition of this seed")
        return errors


def merge_traces(traces: list[dict]) -> dict:
    merged = {"calls": {}, "self_ns": {}, "total_ns": {}, "counts": {}}
    for t in traces:
        for part in merged:
            for k, v in t.get(part, {}).items():
                merged[part][k] = merged[part].get(k, 0) + v
    return merged


# --- metrics ---------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; q in (0, 1]."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(reps: list[dict]) -> dict:
    """Medians over repetitions; the latency percentile over every
    operation of the run. On audit_scale and cli_batch a repetition has only
    21 and 11 operations of very different lengths; measured on the same
    runs over six seeds, the pooled p99 spread less than a median of
    per-repetition p99s (0.13 against 0.36 on audit_scale, 0.05 against
    0.14 on cli_batch). There is no p50: on audit_scale it falls on the
    ~100 ms n=12 general audits, which run up to 1.6x slower in the slow
    phases of a shared host, so its spread over ten seeds reached 0.42 and
    0.45 in two sets."""

    def med(key):
        return statistics.median(r[key] for r in reps)

    lat = [x for r in reps for x in r["latencies_s"]]
    return {
        "setup_s": (med("setup_s"), "s"),
        "wall_s": (med("wall_s"), "s"),
        "call_p99_ms": (quantile(lat, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (med("rss_mb"), "MB"),
    }


SPAN_CALLS = (
    "core.neighbor_profiles", "distributions.shifted_geom_dist", "distributions.statistical_distance",
    "distributions.dp_level", "distributions.sample_geom", "mechanisms.output_dist",
    "mechanisms.log_pmf_table", "mechanisms.pay_vector", "losses.loss_expectation",
    "losses.max_neighbor_distance", "verifiers.check_ir", "verifiers.check_truthful",
    "verifiers.check_accuracy", "verifiers.check_distinguishable", "verifiers.check_dp",
)
SPAN_SELF = SPAN_CALLS + (
    "mechanisms.max_zero_valuation_pay", "losses.expectation_key",
    "audits.audit_general", "audits.audit_monotonic", "audits.audit_tradeoff",
    "cli.parse_config", "cli.execute", "cli.write_reports",
)
# total (inclusive) time, for spans whose children are the question
SPAN_TOTAL = ("losses.loss_expectation", "losses.expectation_key", "audits.audit_monotonic")
COUNTS = (
    "core.InputProfile.built", "distributions.shifted_geom_dist.hits", "distributions.shifted_geom_dist.misses",
    "distributions.statistical_distance.atoms", "mechanisms.subsample_law.hits", "mechanisms.subsample_law.misses",
    "losses.memo.hits", "losses.memo.misses",
)
SIZES = ("general.n10", "general.n12", "general.n14", "monotonic.n64", "monotonic.n256",
         "tradeoff.n64", "tradeoff.n256")


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def med(get):
        return statistics.median(get(r) for r in traced)

    m = {}
    for span in SPAN_CALLS:
        m[f"{span}.calls"] = (med(lambda r: r["calls"].get(span, 0)), "count")
    for span in SPAN_SELF:
        m[f"{span}.self_s"] = (med(lambda r: r["self_ns"].get(span, 0)) / 1e9, "s")
    for span in SPAN_TOTAL:
        m[f"{span}.total_s"] = (med(lambda r: r["total_ns"].get(span, 0)) / 1e9, "s")
    for name in COUNTS:
        m[name] = (med(lambda r: r["counts"].get(name, 0)), "count")
    hits, misses = m["losses.memo.hits"][0], m["losses.memo.misses"][0]
    m["losses.memo.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for size in SIZES:
        m[f"audits.{size}_s"] = (statistics.median(r.get("size_s", {}).get(size, 0.0) for r in untraced), "s")
    m["cli.report_bytes"] = (med(lambda r: r.get("report_bytes", 0)), "bytes")
    m["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in untraced),
        "ratio",
    )
    return m


# --- provenance ------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "privbuy").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def provenance(args, probe: dict) -> dict:
    cuts = {
        "verify_grid": workloads.grid_cuts,
        "audit_scale": workloads.audit_cuts,
        "cli_batch": workloads.cli_cuts,
    }[args.workload]()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "privbuy": probe.get("version"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cuts": cuts,
    }


# --- main ------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_sources(runner: Runner) -> dict:
    if not (SRC / "privbuy" / "__init__.py").is_file():
        raise BenchError(f"no privbuy sources under {SRC}; run from the root of a source checkout")
    try:
        probe, _, _ = runner.child(["probe"])
    except ChildFailed as exc:
        raise BenchError(f"cannot import privbuy from {SRC}: {exc}") from exc
    if Path(probe["privbuy"]).parent != (SRC / "privbuy").resolve():
        raise BenchError(f"privbuy imported from {probe['privbuy']}, not from {SRC}")
    return probe


def repeat(makers: list, budget_s: float, min_reps: int, started: float) -> list[dict]:
    """Run repetitions, taking their makers in turn, until ``budget_s`` is
    used, never fewer than ``min_reps``, and none that would likely end past
    HARD_STOP_S. Taking makers in turn lets each kind of repetition sample
    the same phases of a host whose speed drifts."""
    reps, begin = [], time.perf_counter()
    while True:
        now = time.perf_counter()
        kind = len(reps) % len(makers)
        same = [r["_elapsed"] for r in reps[kind :: len(makers)]]
        typical = statistics.median(same) if same else 0.0
        if len(reps) >= min_reps and now - begin + typical > budget_s:
            break
        if reps and now - started + typical > HARD_STOP_S:
            break
        rep = makers[kind]()
        rep["_elapsed"] = time.perf_counter() - now
        reps.append(rep)
    return reps


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        tmp.mkdir(parents=True)
        runner = Runner(tmp)
        probe = check_sources(runner)
        if args.workload == "cli_batch":
            batch = CliBatch(runner, args.seed)
            make = batch.rep
        else:
            task = "grid" if args.workload == "verify_grid" else "audits"

            def make(traced):
                return rep_inprocess(runner, task, args.seed, traced)

        failures: list[str] = []
        try:
            if args.trace:
                reps = repeat([lambda: make(False), lambda: make(True)], args.seconds, MIN_TRACE_REPS, started)
                metrics = per_layer(reps[0::2], reps[1::2])
            else:
                reps = repeat([lambda: make(False)], args.seconds, MIN_REPS, started)
                metrics = end_to_end(reps)
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            for r in reps:
                failures.extend(r["failures"])
        except ChildFailed as exc:
            # a repetition that crashed counts as one failed operation
            reps, metrics, attempted, failed = [], {}, 1, 1
            failures.append(str(exc))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    record = provenance(args, probe)
    record.update(repetitions=len(reps), rep_wall_s=[round(r["wall_s"], 4) for r in reps],
                  rep_setup_s=[round(r["setup_s"], 4) for r in reps],
                  operations_per_rep=reps[0]["attempted"] if reps else 0,
                  latency_samples=sum(len(r["latencies_s"]) for r in reps),
                  failed_frac=failed / attempted, failures=failures[:10],
                  elapsed_s=round(time.perf_counter() - started, 3))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:16.6f} ratio ({failed}/{attempted})")
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
