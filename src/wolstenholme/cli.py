"""Command-line frontend: verify suites, run scans, query values.

Record schema (one JSON object per line, all residues as decimal strings):

    {"check": str, "p": int, "modulus_exponent": int, "lhs": str|null,
     "rhs": str|null, "residual_valuation": int|null, "pass": bool,
     "skipped": bool, "reason": str|null, "elapsed_ns": int}

Identical configuration produces byte-identical jsonl regardless of
parallelism; elapsed_ns serializes as 0 unless --timings is given.

Exit codes: 0 all good, 1 at least one failed check, errored record or
dead worker process, 2 usage error (in argparse's words where one option is
at fault, as in "argument --primes: not allowed with argument --at"; also a
value the library refuses), 3 I/O error, 4 malformed record in an input file
(``report``, or the last complete line of a ``scan --resume`` output, which
must be a record of the scan's criterion).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Iterable, Optional, Sequence, TextIO

from . import __version__
from .bernoulli import bernoulli_exact, bernoulli_mod
from .binomial import central_binomial_mod, exact_binomial
from .checks import CheckOutcome, all_check_ids, run_suite
from .errors import MalformedRecord, WolstenholmeError
from .scan import (
    THRESHOLDS, Criterion, ScanRecord, SieveConfig, sieve_primes, wolstenholme_scan,
)

FLUSH_EVERY = 1000

#: Most worker processes a run may ask for (any machine): a pool forks all
#: of its workers at once, so an unbounded count stalls the run.
MAX_PARALLELISM = 64

_FIELDS = (
    "check", "p", "modulus_exponent", "lhs", "rhs", "residual_valuation",
    "pass", "skipped", "reason", "elapsed_ns",
)

#: JSON's quoting of a string, the C function ``json.JSONEncoder`` calls when
#: ``ensure_ascii`` is on; each jsonl line is one f-string around it.
_quote = json.encoder.encode_basestring_ascii


def _prime_range(text: str, limit: bool = False) -> tuple[int, int]:
    """The ``type=`` of --primes A..B, read as (A, B), and with ``limit`` that
    of --limit B, read as (2, B); either once ``SieveConfig`` accepts it."""
    try:
        lo, hi = (2, int(text)) if limit else map(int, text.split("..", 1))
    except ValueError:
        shape = "need an integer" if limit else "range must look like A..B"
        raise argparse.ArgumentTypeError(f"{shape}, got {text!r}") from None
    try:
        SieveConfig(lo, hi)
    except ValueError as exc:  # the library's refusal is the usage error
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi


def _at(text: str) -> int:
    """The ``type=`` of --at: one integer P >= 2."""
    try:
        if int(text) >= 2:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"need an integer P >= 2, got {text!r}")


def _check_ids(text: str) -> Optional[list[str]]:
    """The ``type=`` of --checks: the listed ids, or None for 'all'."""
    ids = None if text == "all" else text.split(",")
    unknown = ", ".join(map(repr, sorted(set(ids or ()).difference(all_check_ids()))))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown check id {unknown}")
    return ids


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
    # The io options that bernoulli, binom and report lack.
    parser.set_defaults(output=None, parallelism=1, timings=False)
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
    sp.add_argument("--checks", dest="check_ids", type=_check_ids, default="all",
                    metavar="IDS", help="comma-separated check ids, or 'all'")
    where = sp.add_mutually_exclusive_group(required=True)
    where.add_argument("--primes", dest="prime_range", type=_prime_range,
                       metavar="A..B", help="half-open prime range")
    where.add_argument("--at", type=_at, metavar="P",
                       help="one number P >= 2, not sieved: a composite P gets"
                            " 'not prime' skip records, and P may pass the sieve limit")
    add_io(sp)

    sp = sub.add_parser("scan", help="scan for Wolstenholme prime candidates")
    where = sp.add_mutually_exclusive_group(required=True)
    where.add_argument("--limit", dest="prime_range", metavar="N",
                       type=partial(_prime_range, limit=True), help="primes below N")
    where.add_argument("--primes", dest="prime_range", type=_prime_range,
                       metavar="A..B")
    sp.add_argument("--criterion",
                    choices=[c.value for c in Criterion], default="r1p3")
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
    sp.add_argument("--exp", type=int, default=None, metavar="K",
                    help="residue exponent, with --central (default 4)")

    sp = sub.add_parser("report", help="summarize a jsonl record file")
    sp.add_argument("input", metavar="PATH")
    sp.add_argument("--format", choices=("pretty", "csv"), default="pretty")
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The validated command line: ``check_ids`` (None for all), ``prime_range``
    (None under --at) and ``scan``'s ``criterion`` as a Criterion.  argparse
    states each option's own rules, in its exclusive groups and ``type=``
    converters; only the rules that span options are checked here."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "scan":
        if ns.resume and ns.format != "jsonl":
            parser.error("--resume needs --format jsonl")
        if ns.resume and ns.output is None:
            parser.error("--resume needs --output")
        ns.criterion = Criterion(ns.criterion)
    elif ns.command == "bernoulli":
        if ns.mod is None and ns.exp is not None:
            parser.error("--exp needs --mod")
        ns.exp = 1 if ns.exp is None else ns.exp
    elif ns.command == "binom":
        if ns.central is None:
            if ns.exp is not None:
                parser.error("--exp needs --central")
            if ns.n is None or ns.r is None:
                parser.error("binom needs N R or --central P")
        elif ns.exp is None:
            ns.exp = 4
    return ns


def _row(outcome) -> tuple:
    """A record's ten values in _FIELDS order: a CheckOutcome is such a tuple
    already, and is passed through as is; a ScanRecord is mapped."""
    if isinstance(outcome, CheckOutcome):
        return outcome
    if isinstance(outcome, ScanRecord):
        return (f"scan:{outcome.criterion.value}", outcome.p,
                THRESHOLDS[outcome.criterion], None, None, outcome.observed_valuation,
                outcome.flagged, outcome.skipped, outcome.reason, outcome.elapsed_ns)
    raise TypeError(f"cannot serialize {type(outcome).__name__}")


def record_dict(outcome, timings: bool = False) -> dict:
    """Uniform record mapping, keys in _FIELDS order, for CheckOutcome and
    ScanRecord; elapsed_ns is 0 unless ``timings``."""
    rec = dict(zip(_FIELDS, _row(outcome)))
    if not timings:
        rec["elapsed_ns"] = 0
    return rec


def _jsonl_line(row: tuple, timings: bool) -> str:
    """A row as one compact JSON line: the bytes that
    ``json.JSONEncoder(separators=(",", ":"))`` writes for its record_dict.
    Strings go through ``_quote``, ints through int.__repr__, and bools and
    None are the literals true, false and null; elapsed_ns is 0 unless
    ``timings``."""
    check, p, k, lhs, rhs, v, passed, skipped, reason, ns = row
    return (f'{{"check":{_quote(check)},"p":{p},"modulus_exponent":{k},'
            f'"lhs":{"null" if lhs is None else _quote(lhs)},'
            f'"rhs":{"null" if rhs is None else _quote(rhs)},'
            f'"residual_valuation":{"null" if v is None else v},'
            f'"pass":{"true" if passed else "false"},'
            f'"skipped":{"true" if skipped else "false"},'
            f'"reason":{"null" if reason is None else _quote(reason)},'
            f'"elapsed_ns":{ns if timings else 0}}}\n')


def _write_jsonl(rows: Iterable[tuple], sink: TextIO, timings: bool) -> None:
    """One compact JSON object per line, each one ``_jsonl_line``."""
    for i, row in enumerate(rows, 1):
        sink.write(_jsonl_line(row, timings))
        if i % FLUSH_EVERY == 0:
            sink.flush()
    sink.flush()


def _write_csv(rows: Iterable[tuple], sink: TextIO, timings: bool) -> None:
    import csv  # only csv output pays for the module
    writer = csv.writer(sink)
    writer.writerow(_FIELDS)
    writer.writerows(rows if timings else ((*row[:9], 0) for row in rows))
    sink.flush()


def _write_pretty(rows: Iterable[tuple], sink: TextIO, timings: bool) -> None:
    """Counts per check; elapsed_ns, and so ``timings``, is not shown."""
    by_check: dict[str, dict] = {}
    flagged = []
    for rec in rows:
        check, p, *_, passed, skipped, _, _ = rec
        row = by_check.setdefault(
            check, {"pass": 0, "fail": 0, "skip": 0, "bad_primes": []})
        if skipped:
            row["skip"] += 1
        elif _bad(rec):
            row["fail"] += 1
            row["bad_primes"].append(p)
        else:
            row["pass"] += 1
            if passed and check.startswith("scan:"):
                flagged.append(p)
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


_NULL = type(None)

#: The types each value of a record may take, in _FIELDS order, matched
#: exactly: a JSON true is no int, though ``isinstance(True, int)`` holds.
_SCHEMA = ((str,), (int,), (int,), (str, _NULL), (str, _NULL), (int, _NULL),
           (bool,), (bool,), (str, _NULL), (int,))


def _parse_record(line: bytes, path: str, lineno: int) -> tuple:
    """One jsonl line as the row of a record of the documented schema."""
    try:
        rec = json.loads(line)
    except ValueError:
        rec = None
    if not (isinstance(rec, dict) and rec.keys() == set(_FIELDS)
            and all(type(rec[f]) in t for f, t in zip(_FIELDS, _SCHEMA))):
        raise MalformedRecord(f"{path}, line {lineno}: not a record")
    return tuple(map(rec.get, _FIELDS))


def _resume_floor(path: str, check: str) -> Optional[int]:
    """Last prime of a jsonl ``check`` scan output, after cutting a torn last line.

    A crash can leave the last line without its newline; that tail is
    truncated, so the scan recomputes its prime and appends cleanly.  A
    file whose last record is not of ``check`` is refused untouched.
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
        row = None if last is None else _parse_record(last, path, last_lineno)
        if row is not None and row[0] != check:
            raise MalformedRecord(f"{path}, line {last_lineno}: not a {check} record")
        handle.truncate(kept)
    return None if row is None else row[1]


def _bad(row: tuple) -> bool:
    """Whether a record makes the run exit 1: a failed check or an errored
    scan record.  A scan record that is not flagged is a clean result, and a
    skipped record is neither."""
    check, *_, passed, skipped, reason, _ = row
    if skipped:
        return False
    return bool(reason) if check.startswith("scan:") else not passed


def _emit(args: argparse.Namespace, rows: Iterable[tuple], timings: bool,
          mode: str = "w") -> int:
    """Write the records' rows in ``args.format`` to ``args.output``, else
    stdout, elapsed_ns 0 unless ``timings``; the exit code is 1 if any of
    them is ``_bad``, else 0."""
    bad = False

    def watched():
        nonlocal bad
        for row in rows:
            bad = bad or _bad(row)
            yield row

    writer = _WRITERS[args.format]
    if args.output:
        with open(args.output, mode, encoding="utf-8") as sink:
            writer(watched(), sink, timings)
    else:
        writer(watched(), sys.stdout, timings)
    return 1 if bad else 0


def _query(args: argparse.Namespace) -> str:
    """The one line that ``bernoulli`` or ``binom`` prints."""
    if args.command == "bernoulli":
        if args.mod is None:
            return f"B_{args.index} = {bernoulli_exact(args.index).value}"
        b = bernoulli_mod(args.index, args.mod, args.exp)
        return f"B_{args.index} = {b.value.value} (mod {args.mod}^{args.exp})"
    if args.central is None:
        return str(exact_binomial(args.n, args.r))
    b = central_binomial_mod(args.central, args.exp)
    return (f"C(2p-1,p-1) = {b.value.value} "
            f"(mod {b.p}^{b.k}); v_p(C-1) = {b.wolstenholme_valuation}")


def execute(args: argparse.Namespace) -> int:
    """Run a parsed command line; returns the process exit code."""
    try:
        if args.command == "verify":
            ids = args.check_ids if args.check_ids is not None else all_check_ids()
            primes = ([args.at] if args.at is not None
                      else sieve_primes(SieveConfig(*args.prime_range)))
            outcomes = run_suite(ids, primes, args.parallelism)
            return _emit(args, outcomes, args.timings)
        if args.command == "scan":
            lo, hi = args.prime_range
            mode = "w"
            if args.resume:
                floor = _resume_floor(args.output, f"scan:{args.criterion.value}")
                if floor is not None:
                    lo = max(lo, floor + 1)
                    mode = "a"
                    if lo >= hi:
                        return 0
            records = wolstenholme_scan(SieveConfig(lo, hi), args.criterion,
                                        args.parallelism)
            return _emit(args, map(_row, records), args.timings, mode)
        if args.command in ("bernoulli", "binom"):
            try:
                print(_query(args))
            except ValueError as exc:  # a value the library refuses
                build_parser().error(str(exc))
            return 0
        if args.command == "report":
            with open(args.input, "rb") as handle:
                rows = [_parse_record(line, args.input, lineno)
                        for lineno, line in enumerate(handle, 1) if line.strip()]
            return _emit(args, rows, timings=True)  # elapsed_ns as the file holds it
        raise AssertionError(f"unhandled command {args.command}")
    except MalformedRecord as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 4
    except WolstenholmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    return execute(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
