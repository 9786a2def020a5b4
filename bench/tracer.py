"""Layer spans for the traced benchmark run, installed from outside privbuy.

``install()`` replaces each layer's public functions with a wrapper that
records a span (calls, total time, and self time: the span minus the spans
of the calls it made) at every binding the package holds: the
defining module, every module that imported the name, and the package
root. Mechanism methods are wrapped on each class that defines them, so no
call goes untraced. Counters that need no span (the loss memo,
InputProfile constructions, window atoms) are read where the work happens.

Only the benchmark's child processes call ``install()``; untraced runs
never import this module.
"""

from __future__ import annotations

import dataclasses
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        # each frame is [name, start_ns, child_ns]
        self._stack: list[list] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.total_ns.clear()
        self.counts.clear()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def exclude(self, elapsed_ns: int) -> None:
        """Charge bookkeeping time to no layer: it becomes child time of the
        enclosing span, so that span's self time does not include it."""
        if self._stack:
            self._stack[-1][2] += elapsed_ns

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span named ``name``. ``after(*args)`` runs
        outside the span, for counters computed from the arguments."""
        stack, calls, self_ns, total_ns = self._stack, self.calls, self.self_ns, self.total_ns

        def traced(*args, **kwargs):
            frame = [name, _clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + dur - frame[2]
                total_ns[name] = total_ns.get(name, 0) + dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                t0 = _clock()
                after(*args)
                self.exclude(_clock() - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


class CountingMemo(dict):
    """Drop-in for the loss-expectation memo that counts lookups."""

    def __init__(self, tracer: Tracer, contents: dict):
        super().__init__(contents)
        self._tracer = tracer

    def get(self, key, default=None):
        hit = super().get(key, default)
        self._tracer.count("losses.memo.misses" if hit is default else "losses.memo.hits")
        return hit


# layer span name -> (defining module, attribute)
FUNCTIONS = {
    "distributions.shifted_geom_dist": ("distributions", "shifted_geom_dist"),
    "distributions.statistical_distance": ("distributions", "statistical_distance"),
    "distributions.dp_level": ("distributions", "dp_level"),
    "distributions.sample_geom": ("distributions", "sample_geom"),
    "mechanisms.max_zero_valuation_pay": ("mechanisms", "max_zero_valuation_pay"),
    "losses.loss_expectation": ("losses", "loss_expectation"),
    "losses.max_neighbor_distance": ("losses", "max_neighbor_distance"),
    "verifiers.check_ir": ("verifiers", "check_ir"),
    "verifiers.check_truthful": ("verifiers", "check_truthful"),
    "verifiers.check_accuracy": ("verifiers", "check_accuracy"),
    "verifiers.check_distinguishable": ("verifiers", "check_distinguishable"),
    "verifiers.check_dp": ("verifiers", "check_dp"),
    "audits.audit_general": ("audits", "audit_general_impossibility"),
    "audits.audit_monotonic": ("audits", "audit_monotonic_impossibility"),
    "audits.audit_tradeoff": ("audits", "audit_payment_accuracy_tradeoff"),
    "cli.parse_config": ("cli", "parse_config"),
    "cli.execute": ("cli", "execute"),
    "cli.write_reports": ("cli", "write_reports"),
}

# layer span name -> Mechanism method; wrapped on every class defining it
METHODS = {
    "core.neighbor_profiles": "neighbor_profiles",
    "mechanisms.output_dist": "output_dist",
    "mechanisms.log_pmf_table": "log_pmf_table",
    "mechanisms.pay_vector": "pay_vector",
}

MODULES = ("core", "distributions", "mechanisms", "losses", "verifiers", "audits", "cli")


def install() -> Tracer:
    """Wrap every layer of the imported privbuy package; returns the tracer."""
    import importlib

    import privbuy
    from privbuy import core, losses

    tracer = Tracer()
    modules = [privbuy] + [importlib.import_module(f"privbuy.{m}") for m in MODULES]

    def rebind(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def count_atoms(d1, d2):
        tracer.count("distributions.statistical_distance.atoms", len(set(d1.support).union(d2.support)))

    afters = {"distributions.statistical_distance": count_atoms}
    for span, (mod, attr) in FUNCTIONS.items():
        original = getattr(importlib.import_module(f"privbuy.{mod}"), attr)
        rebind(original, tracer.wrap(span, original, afters.get(span)))

    classes = [core.Mechanism]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    for span, method in METHODS.items():
        for cls in classes:
            fn = vars(cls).get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, method, tracer.wrap(span, fn))

    original_post_init = core.InputProfile.__post_init__

    def counted_post_init(self):
        tracer.count("core.InputProfile.built")
        original_post_init(self)

    core.InputProfile.__post_init__ = counted_post_init

    original_tight = losses.tight_dp_loss

    def tight_dp_loss(mech, relation):
        model = original_tight(mech, relation)
        return dataclasses.replace(
            model, expectation_key=tracer.wrap("losses.expectation_key", model.expectation_key)
        )

    rebind(original_tight, tight_dp_loss)
    losses._EXPECTATION_CACHE = CountingMemo(tracer, losses._EXPECTATION_CACHE)
    return tracer

