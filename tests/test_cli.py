"""CLI parsing, record schema, determinism, and exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wolstenholme
from wolstenholme.cli import MAX_PARALLELISM, main, parse_args, record_dict
from wolstenholme.checks import run_check
from wolstenholme.scan import Criterion

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
    assert cfg.limit == 100000
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


def test_verify_at_composite_yields_skipped_record(tmp_path):
    out = tmp_path / "records.jsonl"
    code = main(["verify", "--checks", "wolstenholme_thm", "--at", "4",
                 "--output", str(out)])
    assert code == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(recs) == 1
    assert recs[0]["skipped"] is True and recs[0]["reason"] == "not prime"


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
