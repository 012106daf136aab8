"""Layer tracing from outside the package: wrap the bindings that cross layers.

Each probe names the module attributes through which one layer calls into
another (``checks`` calls ``harmonic`` through ``checks._inverse_power_sums_raw``,
``bernoulli`` calls ``harmonic`` through ``bernoulli.power_sum_raw``, ...).
``Tracer.installed()`` replaces those attributes with timing wrappers and
puts every original back on exit, so the package itself is never edited.

A binding that a refactor has removed is listed in ``Tracer.missing`` and
skipped; the metrics that depended only on it read 0 and
``trace.missing_bindings`` counts what was lost.

Self time of a span is its duration minus the durations of the spans
opened inside it (a stack of open spans is kept for that).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "wolstenholme"

#: probe name -> (kind, [(module, attribute), ...]).
#: kinds: "span" times calls, "steps" times each step of a returned
#: iterator, "count" only counts calls, "check" times run_check per id.
PROBES = {
    "cli.execute": ("span", [("cli", "execute")]),
    "cli.suite": ("steps", [("cli", "run_suite")]),
    "cli.scan": ("steps", [("cli", "wolstenholme_scan")]),
    "scan.sieve": ("steps", [("scan", "sieve_primes"), ("cli", "sieve_primes")]),
    "checks.run_check": ("check", [("checks", "run_check")]),
    "harmonic.sweep": ("span", [("harmonic", "_inverse_power_sums_raw"),
                                ("checks", "_inverse_power_sums_raw")]),
    "harmonic.power_sum": ("span", [("harmonic", "power_sum_raw"),
                                    ("bernoulli", "power_sum_raw")]),
    "bernoulli.entry": ("span", [("checks", "bernoulli_mod"),
                                 ("checks", "bernoulli_ratio"),
                                 ("checks", "high_index_bernoulli"),
                                 ("scan", "bernoulli_mod"),
                                 ("cli", "bernoulli_mod"),
                                 ("cli", "bernoulli_exact")]),
    "binomial.central": ("span", [("binomial", "_central_raw")]),
    "binomial.exact": ("span", [("binomial", "exact_binomial"),
                                ("cli", "exact_binomial")]),
    "modring.is_prime": ("count", [("modring", "is_prime"),
                                   ("checks", "is_prime"),
                                   ("binomial", "is_prime"),
                                   ("bernoulli", "is_prime")]),
    "modring.make_modulus": ("count", [("modring", "make_modulus"),
                                       ("checks", "make_modulus"),
                                       ("binomial", "make_modulus"),
                                       ("bernoulli", "make_modulus"),
                                       ("harmonic", "make_modulus")]),
}


class Tracer:
    """Counters and spans collected while the probes are installed."""

    def __init__(self, probes=None):
        self.probes = PROBES if probes is None else probes
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.check_s = defaultdict(float)
        self.gate_s = 0.0
        self.prime_s = []
        self.missing = []
        self._stack = []
        self._patched = []

    # --- spans ---------------------------------------------------------------

    def _open(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, probe, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.calls[probe] += 1
        self.total_s[probe] += elapsed
        self.self_s[probe] += elapsed - frame[0]
        return elapsed

    def _span(self, probe, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(probe, frame, start)

        return wrapper

    def _count(self, probe, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[probe] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _check(self, probe, fn):
        @functools.wraps(fn)
        def wrapper(check_id, p):
            frame, start = self._open()
            try:
                outcome = fn(check_id, p)
            finally:
                elapsed = self._close(probe, frame, start)
            self.check_s[check_id] += elapsed
            # run_check times its own evaluation into elapsed_ns; the rest
            # of the call is the applicability gate and record building.
            self.gate_s += elapsed - outcome.elapsed_ns / 1e9
            return outcome

        return wrapper

    def _steps(self, probe, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(probe, iter(fn(*args, **kwargs)))

        return wrapper

    def _iterate(self, probe, it):
        while True:
            sieve_before = self.total_s["scan.sieve"]
            frame, start = self._open()
            try:
                item = next(it)
            except StopIteration:
                self._close(probe, frame, start)
                return
            except BaseException:
                self._close(probe, frame, start)
                raise
            elapsed = self._close(probe, frame, start)
            if probe == "cli.scan":
                self.prime_s.append(
                    elapsed - (self.total_s["scan.sieve"] - sieve_before))
            yield item

    # --- installation --------------------------------------------------------

    _KINDS = {"span": _span, "count": _count, "check": _check, "steps": _steps}

    def install(self):
        for probe, (kind, bindings) in self.probes.items():
            make = self._KINDS[kind]
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, make(self, probe, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw counters as plain JSON-serialisable data."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "check_s": dict(self.check_s),
            "gate_s": self.gate_s,
            "prime_s": list(self.prime_s),
            "missing": list(self.missing),
        }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: metric -> (probe it is read from, snapshot field: calls, total_s or self_s).
_PROBE_METRICS = {
    "harmonic.sweep_calls": ("harmonic.sweep", "calls"),
    "harmonic.sweep_s": ("harmonic.sweep", "total_s"),
    "harmonic.power_sum_passes": ("harmonic.power_sum", "calls"),
    "harmonic.power_sum_s": ("harmonic.power_sum", "total_s"),
    "bernoulli.calls": ("bernoulli.entry", "calls"),
    "bernoulli.self_s": ("bernoulli.entry", "self_s"),
    "binomial.central_calls": ("binomial.central", "calls"),
    "binomial.central_s": ("binomial.central", "total_s"),
    "binomial.exact_s": ("binomial.exact", "total_s"),
    "modring.is_prime_calls": ("modring.is_prime", "calls"),
    "modring.make_modulus_calls": ("modring.make_modulus", "calls"),
    "cli.self_s": ("cli.execute", "self_s"),
    "scan.sieve_s": ("scan.sieve", "total_s"),
}


def _scaled(snapshot):
    """A snapshot's times multiplied by its repetition's speed factor."""
    f = snapshot.get("speed_factor", 1.0)
    return {
        **snapshot,
        "total_s": {k: v * f for k, v in snapshot["total_s"].items()},
        "self_s": {k: v * f for k, v in snapshot["self_s"].items()},
        "check_s": {k: v * f for k, v in snapshot["check_s"].items()},
        "gate_s": snapshot["gate_s"] * f,
        "prime_s": [t * f for t in snapshot["prime_s"]],
    }


def layer_metrics(snapshots, names, probes=None):
    """Values for the per-layer metric ``names`` over one run's traced reps.

    Times are scaled by each repetition's speed factor.  Counts and times
    are medians over the snapshots (counts repeat exactly in a
    deterministic program); per-prime scan times are pooled before the
    percentiles are taken.  Returns (metrics, missing): a metric is missing
    when every binding it reads was absent, or when it names a check the
    registry no longer has; missing metrics read 0.
    """
    snapshots = [_scaled(s) for s in snapshots]
    probes = PROBES if probes is None else probes
    lost = set(snapshots[0]["missing"])
    registered = set(snapshots[0]["check_ids"])

    def gone(probe):
        return all(f"{m}.{a}" in lost for m, a in probes[probe][1])

    primes_ms = [t * 1e3 for s in snapshots for t in s["prime_s"]]
    derived = {
        "checks.gate_s": ("checks.run_check",
                          _median(s["gate_s"] for s in snapshots)),
        "scan.primes": ("cli.scan",
                        _median(len(s["prime_s"]) for s in snapshots)),
        "scan.prime_ms_p50": ("cli.scan", _percentile(primes_ms, 50)),
        "scan.prime_ms_p99": ("cli.scan", _percentile(primes_ms, 99)),
    }
    metrics, missing = {}, []
    for name in names:
        if name in _PROBE_METRICS:
            probe, field = _PROBE_METRICS[name]
            value = _median(s[field].get(probe, 0) for s in snapshots)
        elif name in derived:
            probe, value = derived[name]
        elif name.startswith("checks.") and name.endswith("_s"):
            check_id = name[len("checks."):-len("_s")]
            probe = "checks.run_check"
            value = _median(s["check_s"].get(check_id, 0.0) for s in snapshots)
            if check_id not in registered:
                missing.append(name)
        else:
            continue
        metrics[name] = value
        if gone(probe) and name not in missing:
            missing.append(name)
    return metrics, missing
