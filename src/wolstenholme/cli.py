"""Command-line frontend: verify suites, run scans, query values.

Record schema (one JSON object per line, all residues as decimal strings):

    {"check": str, "p": int, "modulus_exponent": int, "lhs": str|null,
     "rhs": str|null, "residual_valuation": int|null, "pass": bool,
     "skipped": bool, "reason": str|null, "elapsed_ns": int}

Identical configuration produces byte-identical jsonl regardless of
parallelism; elapsed_ns serializes as 0 unless --timings is given.

Exit codes: 0 all good, 1 at least one failed check, errored record or
dead worker process, 2 usage error, 3 I/O error, 4 malformed record in an
input file (``report``, or the last complete line of a ``scan --resume``
output).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

from . import __version__
from .bernoulli import RESIDUE_EXPONENT_CAP, bernoulli_exact, bernoulli_mod
from .binomial import (
    CENTRAL_EXPONENT_CAP, ORACLE_CAP, central_binomial_mod, exact_binomial,
)
from .checks import CheckOutcome, all_check_ids, lookup, run_suite
from .errors import MalformedRecord, WolstenholmeError
from .scan import (
    MIN_SEGMENT_SIZE, SIEVE_LIMIT, Criterion, ScanRecord, SieveConfig,
    sieve_primes, wolstenholme_scan,
)

FLUSH_EVERY = 1000

#: Most worker processes a run may ask for (any machine): a pool forks all
#: of its workers at once, so an unbounded count stalls the run.
MAX_PARALLELISM = 64

_FIELDS = (
    "check", "p", "modulus_exponent", "lhs", "rhs", "residual_valuation",
    "pass", "skipped", "reason", "elapsed_ns",
)


@dataclass
class RunConfig:
    command: str
    check_ids: Optional[list[str]] = None
    prime_range: Optional[tuple[int, int]] = None
    at: Optional[int] = None
    criterion: Criterion = Criterion.HARMONIC_R1_P3
    limit: Optional[int] = None
    output_path: Optional[str] = None
    format: str = "jsonl"
    parallelism: int = 1
    timings: bool = False
    resume: bool = False
    segment_size: int = 1 << 16
    index: Optional[int] = None
    mod_prime: Optional[int] = None
    exponent: Optional[int] = None
    n: Optional[int] = None
    r: Optional[int] = None
    central: Optional[int] = None
    input_path: Optional[str] = None


def _parse_range(text: str, parser: argparse.ArgumentParser) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        parser.error(f"range must look like A..B, got {text!r}")
    if hi <= lo:
        parser.error(f"empty or inverted range {text!r}")
    if lo < 2:
        parser.error(f"range must start at 2 or above, got {text!r}")
    if hi > SIEVE_LIMIT:
        parser.error(f"range must end at {SIEVE_LIMIT} or below, got {text!r}")
    return lo, hi


def _worker_count(text: str) -> int:
    """A --parallelism value (or its default, WOLSTENHOLME_PARALLELISM)."""
    if not text.strip().isdecimal() or not 1 <= int(text) <= MAX_PARALLELISM:
        raise argparse.ArgumentTypeError(
            f"need an integer in 1..{MAX_PARALLELISM} (the default is"
            f" WOLSTENHOLME_PARALLELISM, else 1), got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolstenholme",
        description="Congruence checks and Wolstenholme-prime scans.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--format", choices=("jsonl", "csv", "pretty"),
                        default="jsonl")
        sp.add_argument("--output", metavar="PATH", default=None)
        sp.add_argument("--parallelism", type=_worker_count, metavar="N",
                        default=os.environ.get("WOLSTENHOLME_PARALLELISM") or "1")
        sp.add_argument("--timings", action="store_true",
                        help="serialize real elapsed_ns (breaks byte determinism)")

    sp = sub.add_parser("verify", help="run congruence checks over primes")
    sp.add_argument("--checks", default="all",
                    help="comma-separated check ids, or 'all'")
    sp.add_argument("--primes", metavar="A..B", default=None,
                    help="half-open prime range")
    sp.add_argument("--at", type=int, default=None, metavar="P",
                    help="single value (sugar for --primes P..P+1)")
    add_io(sp)

    sp = sub.add_parser("scan", help="scan for Wolstenholme prime candidates")
    sp.add_argument("--limit", type=int, default=None,
                    help="scan primes below this bound")
    sp.add_argument("--primes", metavar="A..B", default=None)
    sp.add_argument("--criterion",
                    choices=[c.value for c in Criterion], default="r1p3")
    sp.add_argument("--segment-size", type=int, default=1 << 16)
    sp.add_argument("--resume", action="store_true",
                    help="continue after the last prime already in --output")
    add_io(sp)

    sp = sub.add_parser("bernoulli", help="Bernoulli number, exact or mod p^r")
    sp.add_argument("index", type=int)
    sp.add_argument("--mod", type=int, default=None, metavar="P")
    sp.add_argument("--exp", type=int, default=None, metavar="R",
                    help="residue exponent, with --mod (default 1)")

    sp = sub.add_parser("binom", help="binomial coefficients, exact or central")
    sp.add_argument("n", type=int, nargs="?")
    sp.add_argument("r", type=int, nargs="?")
    sp.add_argument("--central", type=int, default=None, metavar="P",
                    help="C(2p-1, p-1) mod p^k for p = P")
    sp.add_argument("--exp", type=int, default=4, metavar="K")

    sp = sub.add_parser("report", help="summarize a jsonl record file")
    sp.add_argument("input", metavar="PATH")
    sp.add_argument("--format", choices=("pretty", "csv"), default="pretty")
    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(command=ns.command)
    if ns.command == "verify":
        cfg.check_ids = None if ns.checks == "all" else ns.checks.split(",")
        if cfg.check_ids:
            for check_id in cfg.check_ids:
                try:
                    lookup(check_id)
                except WolstenholmeError:
                    parser.error(f"unknown check id {check_id!r}")
        if ns.at is not None and ns.primes is not None:
            parser.error("--at and --primes are mutually exclusive")
        if ns.at is not None:
            if ns.at < 2:
                parser.error(f"--at must be 2 or above, got {ns.at}")
            cfg.at = ns.at
        elif ns.primes is not None:
            cfg.prime_range = _parse_range(ns.primes, parser)
        else:
            parser.error("verify needs --primes or --at")
    elif ns.command == "scan":
        if (ns.limit is None) == (ns.primes is None):
            parser.error("scan needs exactly one of --limit or --primes")
        if ns.limit is not None:
            if not 2 < ns.limit <= SIEVE_LIMIT:
                parser.error(f"--limit must be in 3..{SIEVE_LIMIT}")
            cfg.prime_range = (2, ns.limit)
            cfg.limit = ns.limit
        else:
            cfg.prime_range = _parse_range(ns.primes, parser)
        if ns.resume and ns.format != "jsonl":
            parser.error("--resume needs --format jsonl")
        if ns.resume and ns.output is None:
            parser.error("--resume needs --output")
        if ns.segment_size < MIN_SEGMENT_SIZE:
            parser.error(f"--segment-size must be at least {MIN_SEGMENT_SIZE}")
        cfg.criterion = Criterion(ns.criterion)
        cfg.segment_size = ns.segment_size
        cfg.resume = ns.resume
    elif ns.command == "bernoulli":
        if ns.mod is None and ns.exp is not None:
            parser.error("--exp needs --mod")
        cfg.exponent = 1 if ns.exp is None else ns.exp
        if ns.mod is not None:
            if ns.index == 1:
                parser.error("B_1 has no residue path; drop --mod for its exact value")
            if not 1 <= cfg.exponent <= RESIDUE_EXPONENT_CAP:
                parser.error(f"--exp must be in 1..{RESIDUE_EXPONENT_CAP}")
        cfg.index = ns.index
        cfg.mod_prime = ns.mod
    elif ns.command == "binom":
        cfg.central = ns.central
        cfg.exponent = ns.exp
        if ns.central is None:
            if ns.n is None or ns.r is None:
                parser.error("binom needs N R or --central P")
            if not 0 <= ns.r <= ns.n <= ORACLE_CAP:
                parser.error(f"binom needs 0 <= R <= N <= {ORACLE_CAP}")
            cfg.n, cfg.r = ns.n, ns.r
        elif not 1 <= ns.exp <= CENTRAL_EXPONENT_CAP:
            parser.error(f"--exp must be in 1..{CENTRAL_EXPONENT_CAP}")
    elif ns.command == "report":
        cfg.input_path = ns.input
        cfg.format = ns.format
        return cfg
    if hasattr(ns, "format"):
        cfg.format = ns.format
        cfg.output_path = ns.output
        cfg.parallelism = ns.parallelism
        cfg.timings = ns.timings
    return cfg


def record_dict(outcome, timings: bool = False) -> dict:
    """Uniform record mapping, keys in _FIELDS order, for CheckOutcome and ScanRecord."""
    if isinstance(outcome, CheckOutcome):
        head = (outcome.check_id, outcome.p, outcome.modulus_exponent, outcome.lhs,
                outcome.rhs, outcome.residual_valuation, outcome.passed)
    elif isinstance(outcome, ScanRecord):
        from .scan import THRESHOLDS

        head = (f"scan:{outcome.criterion.value}", outcome.p,
                THRESHOLDS[outcome.criterion], None, None,
                outcome.observed_valuation, outcome.flagged)
    else:
        raise TypeError(f"cannot serialize {type(outcome).__name__}")
    return dict(zip(_FIELDS, (*head, outcome.skipped, outcome.reason,
                              outcome.elapsed_ns if timings else 0)))


def _write_jsonl(records: Iterable[dict], sink: TextIO) -> None:
    for i, rec in enumerate(records, 1):
        sink.write(json.dumps(rec, separators=(",", ":")) + "\n")
        if i % FLUSH_EVERY == 0:
            sink.flush()
    sink.flush()


def _write_csv(records: Iterable[dict], sink: TextIO) -> None:
    writer = csv.DictWriter(sink, fieldnames=_FIELDS)
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)
    sink.flush()


def _write_pretty(records: Iterable[dict], sink: TextIO) -> None:
    by_check: dict[str, dict] = {}
    flagged = []
    for rec in records:
        row = by_check.setdefault(
            rec["check"], {"pass": 0, "fail": 0, "skip": 0, "bad_primes": []})
        if rec["skipped"]:
            row["skip"] += 1
        elif rec["pass"]:
            row["pass"] += 1
            if rec["check"].startswith("scan:"):
                flagged.append(rec["p"])
        else:
            row["fail"] += 1
            row["bad_primes"].append(rec["p"])
    sink.write(f"{'check':24s} {'pass':>6s} {'fail':>6s} {'skip':>6s}\n")
    for check_id in sorted(by_check):
        row = by_check[check_id]
        sink.write(
            f"{check_id:24s} {row['pass']:6d} {row['fail']:6d} {row['skip']:6d}\n")
        if row["bad_primes"]:
            shown = ", ".join(str(p) for p in row["bad_primes"][:12])
            more = "" if len(row["bad_primes"]) <= 12 else ", ..."
            sink.write(f"  failing primes: {shown}{more}\n")
    if flagged:
        sink.write("flagged primes: " + ", ".join(map(str, flagged)) + "\n")
    sink.flush()


_WRITERS = {"jsonl": _write_jsonl, "csv": _write_csv, "pretty": _write_pretty}


def _parse_record(line: bytes, path: str, lineno: int) -> dict:
    """One jsonl line as a record of the documented schema."""
    try:
        rec = json.loads(line)
    except ValueError:
        rec = None
    if not (isinstance(rec, dict) and rec.keys() == set(_FIELDS)
            and isinstance(rec["check"], str) and isinstance(rec["p"], int)
            and isinstance(rec["pass"], bool) and isinstance(rec["skipped"], bool)):
        raise MalformedRecord(f"{path}, line {lineno}: not a record")
    return rec


def _resume_floor(path: str) -> Optional[int]:
    """Last prime in a jsonl scan output, after cutting a torn last line.

    A crash can leave the last line without its newline; that tail is
    truncated, so the scan recomputes its prime and appends cleanly.
    """
    if not os.path.exists(path):
        return None
    last, last_lineno, kept = None, 0, 0
    with open(path, "rb+") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.endswith(b"\n"):
                break
            kept += len(line)
            if line.strip():
                last, last_lineno = line, lineno
        handle.truncate(kept)
    return None if last is None else _parse_record(last, path, last_lineno)["p"]


def _candidate_primes(cfg: RunConfig) -> Iterable[int]:
    if cfg.at is not None:
        return [cfg.at]
    lo, hi = cfg.prime_range
    return sieve_primes(SieveConfig(lo, hi, cfg.segment_size))


def execute(cfg: RunConfig) -> int:
    """Run a parsed configuration; returns the process exit code."""
    try:
        if cfg.command == "verify":
            ids = cfg.check_ids if cfg.check_ids is not None else all_check_ids()
            outcomes = run_suite(ids, _candidate_primes(cfg), cfg.parallelism)
            failed = False

            def harvest():
                nonlocal failed
                for outcome in outcomes:
                    if not outcome.skipped and not outcome.passed:
                        failed = True
                    yield record_dict(outcome, cfg.timings)

            _emit(cfg, harvest())
            return 1 if failed else 0
        if cfg.command == "scan":
            lo, hi = cfg.prime_range
            mode = "w"
            if cfg.resume:
                floor = _resume_floor(cfg.output_path)
                if floor is not None:
                    lo = max(lo, floor + 1)
                    mode = "a"
                    if lo >= hi:
                        return 0
            records = wolstenholme_scan(
                SieveConfig(lo, hi, cfg.segment_size), cfg.criterion,
                cfg.parallelism)
            errored = False

            def harvest():
                nonlocal errored
                for rec in records:
                    if rec.reason and not rec.skipped:
                        errored = True
                    yield record_dict(rec, cfg.timings)

            _emit(cfg, harvest(), mode=mode)
            return 1 if errored else 0
        if cfg.command == "bernoulli":
            if cfg.mod_prime is None:
                value = bernoulli_exact(cfg.index).value
                print(f"B_{cfg.index} = {value}")
            else:
                b = bernoulli_mod(cfg.index, cfg.mod_prime, cfg.exponent)
                print(f"B_{cfg.index} = {b.value.value} "
                      f"(mod {cfg.mod_prime}^{cfg.exponent})")
            return 0
        if cfg.command == "binom":
            if cfg.central is not None:
                b = central_binomial_mod(cfg.central, cfg.exponent)
                print(f"C(2p-1,p-1) = {b.value.value} "
                      f"(mod {b.p}^{b.k}); v_p(C-1) = {b.wolstenholme_valuation}")
            else:
                print(exact_binomial(cfg.n, cfg.r))
            return 0
        if cfg.command == "report":
            with open(cfg.input_path, "rb") as handle:
                records = [_parse_record(line, cfg.input_path, lineno)
                           for lineno, line in enumerate(handle, 1) if line.strip()]
            writer = _WRITERS["pretty" if cfg.format == "pretty" else "csv"]
            writer(records, sys.stdout)
            bad = any(not r["pass"] and not r["skipped"]
                      and not r["check"].startswith("scan:") for r in records)
            return 1 if bad else 0
        raise AssertionError(f"unhandled command {cfg.command}")
    except MalformedRecord as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 4
    except WolstenholmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _emit(cfg: RunConfig, records: Iterable[dict], mode: str = "w") -> None:
    writer = _WRITERS[cfg.format]
    if cfg.output_path:
        with open(cfg.output_path, mode, encoding="utf-8") as sink:
            writer(records, sink)
    else:
        writer(records, sys.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return execute(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
