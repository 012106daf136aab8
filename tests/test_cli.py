"""CLI parsing, record schema, determinism, and exit codes."""
import json
import os
import re
import site
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wolstenholme
from wolstenholme import checks, cli
from wolstenholme.checks import CheckOutcome, run_check
from wolstenholme.cli import MAX_PARALLELISM, main, parse_args, record_dict
from wolstenholme.scan import Criterion, ScanRecord

SCHEMA_KEYS = ["check", "p", "modulus_exponent", "lhs", "rhs",
               "residual_valuation", "pass", "skipped", "reason", "elapsed_ns"]


def test_parse_verify():
    cfg = parse_args(["verify", "--checks", "all", "--primes", "11..2000",
                      "--format", "jsonl"])
    assert cfg.command == "verify"
    assert cfg.check_ids is None
    assert cfg.prime_range == (11, 2000)
    assert cfg.format == "jsonl"


def test_parse_scan():
    cfg = parse_args(["scan", "--limit", "100000", "--criterion", "r1p3"])
    assert cfg.command == "scan"
    assert cfg.prime_range == (2, 100000)
    assert cfg.criterion is Criterion.HARMONIC_R1_P3


def test_parse_rejects_inverted_range():
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--primes", "2000..11"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--primes", "1..20"],
    ["verify", "--primes", "1..20"],
    ["scan", "--primes", "7..20", "--segment-size", "4"],
    ["bernoulli", "12", "--mod", "11", "--exp", "9"],
    ["bernoulli", "1", "--mod", "11"],
    ["binom", "-3", "2"],
    ["binom", "5", "-1"],
    ["binom", "--central", "11", "--exp", "0"],
    ["scan", "--limit", "200000000"],
    ["bernoulli", "12", "--exp", "9"],
    ["verify", "--at", "-5"],
    ["binom", "5", "2", "--exp", "3"],
    ["bernoulli", "-2"],
    ["bernoulli", "401"],
    ["bernoulli", "-4", "--mod", "11"],
    ["bernoulli", "12", "--mod", "12"],
    ["bernoulli", "12", "--mod", "5"],
    ["bernoulli", "2000000", "--mod", "11"],
    ["binom", "--central", "12"],
    ["bernoulli", "10", "--mod", "11"],  # p - 1 divides the index
    # a probable prime above the deterministic Miller-Rabin bound
    ["bernoulli", "12", "--mod", "340282366920938463463374607431768211507"],
])
def test_bad_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == \
        [err.splitlines()[-1]]


def test_parse_rejects_unknown_check():
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--checks", "wolstenholme_thm,bogus",
                    "--primes", "5..7"])
    assert exc.value.code == 2


def test_parse_rejects_missing_range():
    with pytest.raises(SystemExit):
        parse_args(["verify"])
    with pytest.raises(SystemExit):
        parse_args(["scan"])
    with pytest.raises(SystemExit):
        parse_args(["scan", "--limit", "100", "--primes", "2..9"])


def test_verify_exit_zero_and_schema(tmp_path):
    out = tmp_path / "records.jsonl"
    code = main(["verify", "--checks", "wolstenholme_thm,lemma1_p4",
                 "--primes", "5..40", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 * 10  # ten primes in [5, 40), two checks each
    for line in lines:
        rec = json.loads(line)
        assert list(rec) == SCHEMA_KEYS
        assert isinstance(rec["lhs"], (str, type(None)))
        assert rec["elapsed_ns"] == 0


def test_repeated_check_id_is_evaluated_once(tmp_path):
    out = tmp_path / "records.jsonl"
    assert main(["verify", "--checks", "lemma1_p4,lemma1_p4", "--primes", "11..14",
                 "--output", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["check"], r["p"]) for r in recs] == [("lemma1_p4", 11), ("lemma1_p4", 13)]


def test_check_error_is_a_failed_record(capsys, monkeypatch):
    # An evaluator that raises: the run records the error instead of stopping.
    # The rows read p B_n through checks._p_times_bernoulli_reads.
    read = checks._p_times_bernoulli_reads

    def failing(reads, plan):
        n, c, _ = read(reads, plan)[0]
        raise ArithmeticError(f"p*B_{n} mod {plan.p}^{c} refused")

    monkeypatch.setattr(checks, "_p_times_bernoulli_reads", failing)
    outcome = run_check("glaisher_p4", 11)
    assert not outcome.skipped and not outcome.passed
    assert outcome.reason == "error: p*B_8 mod 11^4 refused"
    assert outcome.residual_valuation is None
    assert main(["verify", "--checks", "glaisher_p4", "--at", "11"]) == 1
    captured = capsys.readouterr()
    assert [json.loads(line)["reason"] for line in captured.out.splitlines()] == [
        outcome.reason]
    assert "Traceback" not in captured.err


@pytest.mark.slow
def test_eq19_p8_passes_past_2_to_the_25(capsys):
    # 33554467^8 needs 201 bits; the row is evaluated at p^10 there as at 11.
    assert main(["verify", "--checks", "eq19_p8", "--at", "33554467"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["pass"], r["residual_valuation"]) for r in records] == [(True, 8)]


def test_verify_at_composite_yields_skipped_record(tmp_path):
    out = tmp_path / "records.jsonl"
    code = main(["verify", "--checks", "wolstenholme_thm", "--at", "4",
                 "--output", str(out)])
    assert code == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == 1
    assert recs[0]["skipped"] is True and recs[0]["reason"] == "not prime"


def test_verify_primes_range_lists_only_primes(tmp_path):
    # The range is sieved, so 4..5 holds no prime and writes nothing, where
    # --at 4 writes a "not prime" skip record.
    out = tmp_path / "records.jsonl"
    assert main(["verify", "--checks", "wolstenholme_thm", "--primes", "4..5",
                 "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_verify_single_prime_sugar(tmp_path):
    out = tmp_path / "one.jsonl"
    assert main(["verify", "--checks", "cor2_p7", "--at", "16843",
                 "--output", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["pass"] is True and rec["skipped"] is False
    assert rec["residual_valuation"] >= 7


def test_byte_identical_reruns(tmp_path):
    args = ["verify", "--checks", "lemma2a_p5,lemma13_r2", "--primes", "7..80"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b), "--parallelism", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_writes_and_resumes(tmp_path):
    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--primes", "7..100", "--criterion", "r1p3",
                 "--output", str(out)]) == 0
    first = [json.loads(line) for line in out.read_text().splitlines()]
    assert main(["scan", "--primes", "7..200", "--criterion", "r1p3",
                 "--output", str(out), "--resume"]) == 0
    both = [json.loads(line) for line in out.read_text().splitlines()]
    assert both[:len(first)] == first
    assert [r["p"] for r in both] == [
        p for p in range(7, 200)
        if all(p % d for d in range(2, p))]
    # a full rescan of the union matches the resumed file byte-for-byte
    full = tmp_path / "full.jsonl"
    assert main(["scan", "--primes", "7..200", "--criterion", "r1p3",
                 "--output", str(full)]) == 0
    assert full.read_bytes() == out.read_bytes()


def test_scan_resume_cuts_torn_last_line(tmp_path):
    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--primes", "7..100", "--criterion", "r1p3",
                 "--output", str(out)]) == 0
    with out.open("a") as handle:
        handle.write('{"check":"scan:r1p3","p":101,"modulus_ex')
    assert main(["scan", "--primes", "7..200", "--criterion", "r1p3",
                 "--output", str(out), "--resume"]) == 0
    full = tmp_path / "full.jsonl"
    assert main(["scan", "--primes", "7..200", "--criterion", "r1p3",
                 "--output", str(full)]) == 0
    assert full.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("first", [
    ["scan", "--criterion", "cor1second", "--primes", "11..100"],
    ["verify", "--checks", "lemma1_p4", "--primes", "7..40"],
], ids=["other criterion", "verify output"])
def test_scan_resume_refuses_another_runs_file(first, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main([*first, "--output", str(out)]) == 0
    before = out.read_bytes()
    assert main(["scan", "--primes", "7..200", "--criterion", "r1p3",
                 "--output", str(out), "--resume"]) == 4
    assert out.read_bytes() == before
    assert f"line {len(before.splitlines())}:" in capsys.readouterr().err


def test_scan_resume_refuses_a_bool_prime(tmp_path, capsys):
    # A last record with "p": true would otherwise resume from p = 2.
    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--primes", "7..100", "--criterion", "r1p3",
                 "--output", str(out)]) == 0
    with out.open("a") as handle:
        handle.write(json.dumps(dict(zip(SCHEMA_KEYS, [
            "scan:r1p3", True, 3, None, None, 2, False, False, None, 0]))) + "\n")
    before = out.read_bytes()
    assert main(["scan", "--primes", "7..200", "--criterion", "r1p3",
                 "--output", str(out), "--resume"]) == 4
    assert out.read_bytes() == before
    err = capsys.readouterr().err
    assert f"line {len(before.splitlines())}: not a record" in err


def test_scan_resume_needs_jsonl():
    for fmt in ("csv", "pretty"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["scan", "--primes", "7..100", "--format", fmt,
                        "--output", "scan.out", "--resume"])
        assert exc.value.code == 2
    # without --output there is no file to resume from
    with pytest.raises(SystemExit) as exc:
        parse_args(["scan", "--primes", "7..20", "--resume"])
    assert exc.value.code == 2


def test_scan_record_schema(tmp_path):
    out = tmp_path / "scan.jsonl"
    main(["scan", "--primes", "11..40", "--criterion", "cor1second",
          "--output", str(out)])
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        assert list(rec) == SCHEMA_KEYS
        assert rec["check"] == "scan:cor1second"
        assert rec["modulus_exponent"] == 7


def test_csv_and_pretty(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["verify", "--checks", "wolstenholme_thm", "--primes", "5..30",
                 "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == SCHEMA_KEYS
    assert main(["verify", "--checks", "wolstenholme_thm", "--primes", "5..30",
                 "--format", "pretty"]) == 0
    shown = capsys.readouterr().out
    assert "wolstenholme_thm" in shown and "pass" in shown


def test_verify_all_checks_small_range(tmp_path):
    out = tmp_path / "all.jsonl"
    assert main(["verify", "--checks", "all", "--primes", "11..80",
                 "--output", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["pass"] or r["skipped"] for r in recs)
    assert any(r["skipped"] for r in recs)  # Wolstenholme-only gates fire


def test_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    main(["verify", "--checks", "wolstenholme_thm,glaisher_p4",
          "--primes", "5..60", "--output", str(out)])
    assert main(["report", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "glaisher_p4" in shown


def test_report_malformed_record_exit_code(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    main(["verify", "--checks", "wolstenholme_thm", "--primes", "5..20",
          "--output", str(good)])
    for bad_line in ('{"p": 3}', '{"check": "x", "p": 3', "[1, 2]"):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(good.read_text() + bad_line + "\n")
        assert main(["report", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "line 7" in err and "Traceback" not in err  # six good records


def test_report_refuses_a_json_bool_where_an_int_belongs(tmp_path, capsys):
    # isinstance(True, int) holds: each value's type is matched exactly.
    path = tmp_path / "records.jsonl"
    good = dict(zip(SCHEMA_KEYS, ["wolstenholme_thm", 7, 3, "1", "1", 5, True, False,
                                  None, 0]))
    path.write_text(json.dumps(good) + "\n")
    assert main(["report", str(path)]) == 0
    for field, value in (("p", True), ("modulus_exponent", False), ("elapsed_ns", True),
                         ("residual_valuation", True), ("residual_valuation", "5"),
                         ("lhs", 1), ("rhs", False), ("reason", 0), ("pass", 1)):
        capsys.readouterr()
        path.write_text(json.dumps({**good, field: value}) + "\n")
        assert main(["report", str(path)]) == 4, (field, value)
        err = capsys.readouterr().err
        assert "line 1: not a record" in err and "Traceback" not in err


def test_report_exits_one_on_errored_scan_record(tmp_path, capsys):
    clean = tmp_path / "clean.jsonl"
    assert main(["scan", "--primes", "7..100", "--criterion", "r1p3",
                 "--output", str(clean)]) == 0
    assert main(["report", str(clean)]) == 0
    errored = tmp_path / "errored.jsonl"
    errored.write_text(json.dumps(dict(
        zip(SCHEMA_KEYS, ["scan:r1p3", 11, 3, None, None, None, False, False,
                          "error: boom", 0]))) + "\n")
    assert main(["report", str(errored)]) == 1
    assert "scan:r1p3" in capsys.readouterr().out


def test_pretty_counts_only_errored_scan_records_as_failures(tmp_path, capsys):
    # An unflagged scan record is a clean result, a flagged one is also
    # listed as flagged, and only the errored one fails (the exit-1 rule).
    path = tmp_path / "scan.jsonl"
    path.write_text("".join(json.dumps(dict(zip(SCHEMA_KEYS, [
        "scan:r1p3", p, 3, None, None, v, flagged, skipped, reason, 0]))) + "\n"
        for p, v, flagged, skipped, reason in (
            (2, None, False, True, "below minimum prime 5"), (11, 2, False, False, None),
            (13, 3, True, False, None), (17, None, False, False, "error: boom"))))
    assert main(["report", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["scan:r1p3" + " " * 15 + "      2      1      1",
                         "  failing primes: 17", "flagged primes: 13"]


def test_report_missing_file_is_io_error():
    assert main(["report", "/nonexistent/nope.jsonl"]) == 3


def test_bernoulli_and_binom_commands(capsys):
    assert main(["bernoulli", "12"]) == 0
    assert "-691/2730" in capsys.readouterr().out
    assert main(["bernoulli", "12", "--mod", "11", "--exp", "3"]) == 0
    assert "166" in capsys.readouterr().out
    assert main(["binom", "9", "4"]) == 0
    assert capsys.readouterr().out.strip() == "126"
    assert main(["binom", "--central", "16843", "--exp", "4"]) == 0
    assert "v_p(C-1) = 4" in capsys.readouterr().out


def test_parallelism_env_default(monkeypatch):
    monkeypatch.setenv("WOLSTENHOLME_PARALLELISM", "3")
    cfg = parse_args(["verify", "--checks", "wolstenholme_thm", "--at", "7"])
    assert cfg.parallelism == 3
    monkeypatch.delenv("WOLSTENHOLME_PARALLELISM")
    cfg = parse_args(["verify", "--checks", "wolstenholme_thm", "--at", "7"])
    assert cfg.parallelism == 1


@pytest.mark.parametrize("value", ["0", "-2", str(MAX_PARALLELISM + 1), "two"])
def test_parallelism_out_of_bounds_is_a_usage_error(value, monkeypatch, capsys):
    # Parsed only, never run: an unbounded count must not reach a pool.
    with pytest.raises(SystemExit) as exc:
        parse_args(["verify", "--checks", "lemma1_p4", "--at", "7",
                    "--parallelism", value])
    assert exc.value.code == 2
    monkeypatch.setenv("WOLSTENHOLME_PARALLELISM", value)
    with pytest.raises(SystemExit) as exc:
        parse_args(["scan", "--limit", "100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "WOLSTENHOLME_PARALLELISM" in err
    assert parse_args(["binom", "9", "4"]).parallelism == 1  # no pool, not read
    cfg = parse_args(["scan", "--limit", "100", "--parallelism", str(MAX_PARALLELISM)])
    assert cfg.parallelism == MAX_PARALLELISM


def test_record_dict_matches_outcome():
    outcome = run_check("wolstenholme_thm", 7)
    rec = record_dict(outcome, timings=True)
    assert rec["check"] == "wolstenholme_thm"
    assert rec["p"] == 7
    assert rec["pass"] is True
    assert rec["elapsed_ns"] > 0


#: Strings with every kind of character the writer must escape: non-ASCII,
#: quote, backslash, control characters (and DEL, which JSON leaves as is).
_TEXTS = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\U0001f600az')
                 | st.characters())
_OPTIONAL_TEXTS = st.none() | _TEXTS
_INTS = st.integers() | st.integers(-(10 ** 60), 10 ** 60)


@settings(max_examples=300)
@given(st.builds(CheckOutcome, _TEXTS, _INTS, _INTS, _OPTIONAL_TEXTS, _OPTIONAL_TEXTS,
                 st.none() | _INTS, st.booleans(), st.booleans(), _OPTIONAL_TEXTS, _INTS)
       | st.builds(ScanRecord, _INTS, st.sampled_from(Criterion), st.none() | _INTS,
                   st.booleans(), _INTS, st.booleans(), _OPTIONAL_TEXTS),
       st.booleans())
@example(CheckOutcome('a"b\\c\u00e9\x01', -5, 16843 ** 10, None, "-1", None, True,
                      False, "\n\x7f\U0001f600", 3), True)
@example(ScanRecord(16843, Criterion.COR1_SECOND_P7, 16843 ** 10, True, -2, False,
                    'say "\u00e9\\"'), False)
def test_jsonl_line_is_the_encoders_line(outcome, timings):
    assert cli._jsonl_line(cli._row(outcome), timings) == json.JSONEncoder(
        separators=(",", ":")).encode(record_dict(outcome, timings)) + "\n"


def test_timings_change_only_elapsed_ns(tmp_path):
    plain, timed = tmp_path / "plain.jsonl", tmp_path / "timed.jsonl"
    args = ["verify", "--checks", "all", "--primes", "2..300", "--output"]
    assert main([*args, str(plain)]) == 0
    assert main([*args, str(timed), "--timings"]) == 0
    zeroed = re.sub(rb'"elapsed_ns":\d+}\n', rb'"elapsed_ns":0}\n', timed.read_bytes())
    assert zeroed == plain.read_bytes() != timed.read_bytes()


def test_cold_start_imports_no_dataclass_or_csv_machinery(tmp_path):
    # -S keeps the host's site hooks out: they could import these modules
    # themselves and hide a regression.  The site-packages directories go on
    # the path by hand, so a guarded third-party import would still load.
    out = tmp_path / "out.csv"
    script = f"""
import sys, wolstenholme.cli
loaded = sorted({{"dataclasses", "inspect", "csv"}} & set(sys.modules))
assert not loaded, loaded
import pkgutil, importlib
for info in pkgutil.iter_modules(wolstenholme.__path__, "wolstenholme."):
    importlib.import_module(info.name)
# pyproject declares no dependencies: the package loads the standard library only
foreign = sorted({{name.partition(".")[0] for name in sys.modules}}
                 - set(sys.stdlib_module_names) - {{"__main__", "wolstenholme"}})
assert not foreign, foreign
sys.exit(wolstenholme.cli.main(["verify", "--checks", "lemma1_p4", "--at", "11",
                                "--format", "csv", "--output", {str(out)!r}]))
"""
    path = [str(Path(wolstenholme.__file__).resolve().parents[1]),
            *site.getsitepackages()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    header, row = out.read_text(encoding="utf-8").splitlines()
    assert header == ",".join(SCHEMA_KEYS) and row.startswith("lemma1_p4,11,4,")


# Each script replaces one per-prime function with a copy that kills its
# worker process at p = 101; forked workers inherit the replacement.
_DYING_WORKER = {
    "scan": """
import os, sys
from wolstenholme import cli, scan
real = scan._evaluate
def dying(p, criterion):
    if p == 101:
        os._exit(7)
    return real(p, criterion)
scan._evaluate = dying
sys.exit(cli.main(["scan", "--primes", "7..400", "--parallelism", "2"]))
""",
    "verify": """
import os, sys
from wolstenholme import checks, cli
real = checks.run_check
def dying(check_id, p):
    if p == 101:
        os._exit(7)
    return real(check_id, p)
checks.run_check = dying
sys.exit(cli.main(["verify", "--checks", "lemma1_p4", "--primes", "7..400",
                   "--parallelism", "2"]))
""",
}


@pytest.mark.parametrize("command", sorted(_DYING_WORKER))
def test_dead_worker_fails_the_run(command):
    # A child process with a timeout, so a hang fails the test instead of
    # stalling the suite.
    src = str(Path(wolstenholme.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _DYING_WORKER[command]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    err = done.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: a worker process died"), err
    assert "Traceback" not in done.stderr
