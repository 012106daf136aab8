"""Layer probes outside the gated benchmark: single calls at the two known
Wolstenholme primes, cold and warm.

    python3 perfbench/probes.py [--stretch] [--output PATH]

For p = 16843 and p = 2124679, each scan criterion (through a one-prime
``wolstenholme_scan``) and ``central_binomial_mod(p, 4)`` runs in a fresh
process; the first call there is the cold time and an immediate second
call the warm time (what the package's caches save).  These are raw
seconds timed inside the child; the environment block's calibration time
shows the machine's speed at the time.  Every probe must
flag p, since both are Wolstenholme primes.  ``--stretch`` adds the
12-check Wolstenholme-prime suite at 2124679 through the CLI (about two
minutes), which must pass all 12.  Results, with the environment block,
go to ``.perfbench/probes.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from env import pinned_environment
from run import ROOT, SRC, child_env, load_records, spawn

PRIMES = (16843, 2124679)
TARGETS = ("binomial", "r1p3", "bp3", "cor1second", "central_binomial_mod")
WOLSTENHOLME_SUITE = (
    "prop1_p8", "prop2_p8", "cor1_first_p7", "cor1_second_p7", "cor2_p7",
    "cor3_p7", "remark2_p8", "lemma7_n2", "lemma7_n3", "lemma7_n4",
    "lemma7_n5", "lemma7_n6")

# Runs in the child: times one target twice and prints the JSON result.
_CHILD = """
import json, sys, time
from wolstenholme import Criterion, SieveConfig, central_binomial_mod, wolstenholme_scan
target, p = sys.argv[1], int(sys.argv[2])
def once():
    if target == "central_binomial_mod":
        return central_binomial_mod(p, 4).wolstenholme_valuation >= 4
    (rec,) = wolstenholme_scan(SieveConfig(p, p + 1), Criterion(target))
    return rec.flagged and rec.reason is None
times, flags = [], []
for _ in range(2):
    start = time.perf_counter()
    flags.append(once())
    times.append(time.perf_counter() - start)
print(json.dumps({"cold_s": times[0], "warm_s": times[1], "flagged": all(flags)}))
"""


def probe(target: str, p: int) -> dict:
    """Raw cold and warm seconds, timed inside the child."""
    out = subprocess.run([sys.executable, "-c", _CHILD, target, str(p)],
                         cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=600)
    if out.returncode != 0:
        return {"target": target, "p": p, "flagged": False,
                "error": out.stderr.strip().splitlines()[-1:]}
    return {"target": target, "p": p, **json.loads(out.stdout)}


def stretch() -> dict:
    work = ROOT / ".perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "stretch.jsonl"
    argv = [sys.executable, "-m", "wolstenholme.cli", "verify",
            "--checks", ",".join(WOLSTENHOLME_SUITE), "--at", "2124679",
            "--parallelism", "1", "--output", str(out)]
    rep = spawn(argv, timeout=900, stderr_path=work / "stretch.err")
    records, _ = load_records(out)
    passed = sum(1 for r in records or [] if r["pass"] and not r["skipped"])
    return {"target": "wolstenholme_suite", "p": 2124679, **rep, "passed": passed,
            "flagged": rep["exit"] == 0 and passed == len(WOLSTENHOLME_SUITE)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stretch", action="store_true",
                        help="also run the 12-check suite at 2124679 (~2 min)")
    parser.add_argument("--output", default=str(ROOT / ".perfbench" / "probes.json"))
    args = parser.parse_args(argv)

    env = pinned_environment(ROOT, SRC)
    results = []
    for p in PRIMES:
        for target in TARGETS:
            results.append(probe(target, p))
            r = results[-1]
            print(f"{target:22s} p={p:<8d} cold {r.get('cold_s', 0):8.3f} s"
                  f"  warm {r.get('warm_s', 0):8.3f} s  flagged {r['flagged']}",
                  flush=True)
    if args.stretch:
        results.append(stretch())
        r = results[-1]
        print(f"12-check suite at 2124679: {r['wall_s']:.1f} s scaled"
              f" ({r['raw_wall_s']:.1f} s raw), {r['passed']}/12 passed", flush=True)
    ok = all(r["flagged"] for r in results)
    with open(args.output, "w", encoding="utf-8") as sink:
        json.dump({"env": env, "correct": ok, "probes": results}, sink, indent=1)
    print(f"correct: {ok}; written to {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
