"""The benchmark's workloads: inputs made from a seed, and their correctness gates.

Every workload runs the CLI once per repetition in a fresh process at
``--parallelism 1`` and writes jsonl.  The seed picks one of ``SHIFTS``
windows; seed 0 is the canonical one.  Windows move only where that
changes the work per repetition by about 1% or less, so the run-to-run
spread stays a property of the machine, not of the seed.

A gate turns one repetition's jsonl into (operations attempted, operations
failed, problems).  The byte digest of the jsonl is compared against
``reference.json`` (recorded from the seed commit by
``record_reference.py``), because byte-identical jsonl is what "same
behaviour" means for this package; a digest mismatch fails every
operation of the repetition.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import isqrt
from typing import Callable

WOLSTENHOLME_PRIME = 16843

#: Number of distinct windows a workload's seed selects from.
SHIFTS = 8

#: Primes per scan window (about 27 ms each at mod p^7 near 16843).
SCAN_PRIMES = 50

#: Upper end (exclusive) of the verify_range window.
RANGE_HI = 500

#: The two checks whose exact oracles stop below 16843.
ORACLE_CAPPED = frozenset({"sun_wan_p5", "zhao_eq4_p5"})


def primes_below(n: int) -> list[int]:
    """The benchmark's own sieve, independent of the package under test."""
    flags = bytearray([1]) * n
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if flags[i]]


@dataclass(frozen=True)
class Window:
    """One workload input: a prime window and the CLI arguments for it."""

    label: str
    primes: tuple[int, ...]
    cli_args: tuple[str, ...]

    def argv(self, output: str) -> list[str]:
        return [*self.cli_args, "--parallelism", "1", "--output", output]


@dataclass(frozen=True)
class Workload:
    name: str
    window: Callable[[int], Window]
    gate: Callable[[list, Window], tuple[int, int, list]]


# --- windows -----------------------------------------------------------------

def _scan_window(seed: int) -> Window:
    primes = primes_below(2 * WOLSTENHOLME_PRIME)
    start = primes.index(WOLSTENHOLME_PRIME) - SCAN_PRIMES // 2 + seed % SHIFTS
    window = tuple(primes[start:start + SCAN_PRIMES])
    label = f"{window[0]}..{window[-1] + 1}"
    return Window(label, window,
                  ("scan", "--primes", label, "--criterion", "cor1second"))


def _range_window(seed: int) -> Window:
    # The lower end moves down from 11 to 4, taking in 7 and then 5: cheap
    # primes where most checks skip, so the work moves by about 1%.  (Moving
    # the upper end would change the work by several percent per prime.)
    lo = 11 - seed % SHIFTS
    label = f"{lo}..{RANGE_HI}"
    return Window(label, tuple(p for p in primes_below(RANGE_HI) if p >= lo),
                  ("verify", "--checks", "all", "--primes", label))


def _w16843_window(seed: int) -> Window:
    # One input exists at this cost: the seed cannot move a single prime.
    return Window(str(WOLSTENHOLME_PRIME), (WOLSTENHOLME_PRIME,),
                  ("verify", "--checks", "all", "--at", str(WOLSTENHOLME_PRIME)))


# --- gates -------------------------------------------------------------------

def _scan_gate(records: list, window: Window) -> tuple[int, int, list]:
    """Every window prime has one clean record; only 16843 is flagged."""
    bad, problems = 0, []
    for rec, p in zip_longest(records, window.primes):
        ok = (rec is not None and p is not None and rec.get("p") == p
              and rec.get("check") == "scan:cor1second"
              and rec.get("skipped") is False and rec.get("reason") is None
              and rec.get("pass") is (p == WOLSTENHOLME_PRIME))
        if not ok:
            bad += 1
            if len(problems) < 5:
                problems.append(f"prime {p}: record {rec}")
    flagged = [r.get("p") for r in records if r.get("pass")]
    if flagged != [WOLSTENHOLME_PRIME]:
        problems.append(f"flagged {flagged}, expected [{WOLSTENHOLME_PRIME}]")
    return len(window.primes), bad, problems


def _outcome_ok(rec: dict) -> bool:
    if rec.get("skipped"):
        return not str(rec.get("reason")).startswith("error")
    return rec.get("pass") is True and rec.get("reason") is None


def _range_gate(records: list, window: Window) -> tuple[int, int, list]:
    """Zero failed and zero errored outcomes, at exactly the window primes."""
    attempted = sum(1 for r in records if not r.get("skipped"))
    bad = [r for r in records if not _outcome_ok(r)]
    problems = [f"{r.get('check')} at {r.get('p')}: {r.get('reason')}"
                for r in bad[:5]]
    if sorted({r.get("p") for r in records}) != list(window.primes):
        problems.append("records do not cover exactly the window primes")
        return attempted, max(len(bad), 1), problems
    return attempted, len(bad), problems


def _w16843_gate(records: list, window: Window) -> tuple[int, int, list]:
    """37 passes, and exactly the two oracle-capped checks skipped."""
    bad, problems = 0, []
    for rec in records:
        expect_skip = rec.get("check") in ORACLE_CAPPED
        ok = (rec.get("p") == WOLSTENHOLME_PRIME and _outcome_ok(rec)
              and bool(rec.get("skipped")) == expect_skip)
        if not ok:
            bad += 1
            problems.append(f"{rec.get('check')}: {rec}")
    passed = sum(1 for r in records if r.get("pass") and not r.get("skipped"))
    skipped = {r.get("check") for r in records if r.get("skipped")}
    if passed != 37 or skipped != ORACLE_CAPPED:
        problems.append(f"{passed} passed, skipped {sorted(skipped)};"
                        f" expected 37 passed, skipped {sorted(ORACLE_CAPPED)}")
        bad = max(bad, 1)
    return sum(1 for r in records if not r.get("skipped")), bad, problems


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan_cor1second", _scan_window, _scan_gate),
        Workload("verify_range", _range_window, _range_gate),
        Workload("verify_w16843", _w16843_window, _w16843_gate),
    )
}
