"""Benchmark of the wolstenholme CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory.  Each repetition runs the CLI in a fresh
process (``python3 -m wolstenholme.cli ... --parallelism 1``), one at a
time, and gates it on its output (see ``workloads.py``).  Repetitions
continue until ``--seconds`` is spent (at least ``MIN_REPS``).

``--trace 0`` reports the end-to-end metrics: median wall time, work per
second, set-up time (a fresh interpreter through ``--version``, median of
``SETUP_REPS``) and the peak RSS of the run's process.  Every wall time is
scaled to the reference CPU speed by a speed loop run during the child on
the same pinned CPU (see ``spawn.py``); raw times stay in the result file.
``--trace 1`` alternates untraced repetitions with repetitions under ``traced_cli.py``,
which wraps the calls between the package's layers (see ``tracer.py``),
and reports the per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations whose outcome was wrong, errored, or whose jsonl
differed from the reference) and ``metrics``.  The full result, with the
environment block, goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from env import pinned_environment  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
SETUP_REPS = 11
#: A repetition is killed after this long; a whole run stays under 180 s.
REP_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0
#: How often spawn.py pauses an untraced child to sample the CPU's speed.
PAUSE_PERIOD_S = 0.1


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env.pop("WOLSTENHOLME_PARALLELISM", None)
    # Children use compiled bytecode, as an installed package would, from a
    # cache of the benchmark's own: neither the caller's environment nor a
    # stray __pycache__ next to the sources changes what is measured.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench" / "pycache")
    return env


def spawn(argv: list[str], timeout: float, stderr_path: Path | None = None,
          pause: bool = True) -> dict:
    """Run one child to completion through ``spawn.py`` (see there for why).

    Returns ``wall_s`` scaled to the reference CPU speed, ``raw_wall_s``,
    ``speed_factor``, ``exit`` and ``rss_mb``.  ``pause=False`` is for
    children that time their own spans with the wall clock.
    """
    out = subprocess.run(
        [sys.executable, "-S", str(HERE / "spawn.py"), str(timeout),
         str(PAUSE_PERIOD_S if pause else 0), str(stderr_path or os.devnull),
         *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout + 30)
    if out.returncode != 0:
        raise RuntimeError(f"spawn.py failed: {out.stderr.strip()}")
    report = json.loads(out.stdout)
    report["raw_wall_s"] = report["wall_s"]
    report["wall_s"] *= report["speed_factor"]
    return report


def measure_setup() -> tuple[float, bool]:
    """Median scaled wall time of ``wolstenholme --version``, fresh each time."""
    walls, ok = [], True
    for _ in range(SETUP_REPS):
        rep = spawn([sys.executable, "-m", "wolstenholme.cli", "--version"],
                    timeout=60)
        walls.append(rep["wall_s"])
        ok = ok and rep["exit"] == 0
    return statistics.median(walls), ok


def load_records(path: Path) -> tuple[list | None, str]:
    """Parsed records and the file's sha256; None when unreadable."""
    try:
        data = path.read_bytes()
    except OSError:
        return None, ""
    digest = hashlib.sha256(data).hexdigest()
    try:
        return [json.loads(line) for line in data.splitlines() if line.strip()], digest
    except ValueError:
        return None, digest


def judge(workload, window, reference: dict | None, code: int,
          records: list | None, digest: str) -> dict:
    """Gate one repetition: operations attempted and failed, and why."""
    expected_ops = reference["ops"] if reference else len(window.primes)
    if code != 0 or records is None:
        return {"ops": expected_ops, "failed": expected_ops,
                "problems": [f"exit code {code}" if code else "unreadable jsonl"]}
    ops, failed, problems = workload.gate(records, window)
    if reference is None:
        problems.append(f"no reference digest for window {window.label}")
        failed = ops
    elif digest != reference["sha256"]:
        problems.append(f"jsonl sha256 {digest[:16]}... differs from the reference")
        failed = ops
    return {"ops": ops, "failed": failed, "problems": problems}


def run_rep(workload, window, reference, work: Path, traced: bool, index: int,
            timeout: float) -> dict:
    out = work / f"rep{index}.jsonl"
    trace_out = work / f"rep{index}.trace.json"
    for stale in (out, trace_out):
        stale.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out)]
    else:
        argv = [sys.executable, "-m", "wolstenholme.cli"]
    argv += window.argv(str(out))
    rep = spawn(argv, timeout, stderr_path=work / f"rep{index}.err",
                pause=not traced)
    records, digest = load_records(out)
    rep.update(traced=traced, sha256=digest,
               **judge(workload, window, reference, rep["exit"], records, digest))
    if traced:
        try:
            rep["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
            rep["trace"]["speed_factor"] = rep["speed_factor"]
        except (OSError, ValueError):
            rep["problems"].append("traced run wrote no trace")
            rep["failed"] = rep["ops"]
    if not rep["failed"]:  # keep the evidence of a failed repetition only
        out.unlink(missing_ok=True)
        trace_out.unlink(missing_ok=True)
    return rep


def measure(workload, window, reference, work: Path, seconds: float,
            trace: bool) -> list[dict]:
    """Repetitions until ``seconds`` is spent; traced runs alternate modes."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        timeout = min(REP_TIMEOUT_S, RUN_BUDGET_S - elapsed)
        if timeout <= 0:
            break
        reps.append(run_rep(workload, window, reference, work, traced,
                            len(reps), timeout))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["raw_wall_s"] for r in reps)
        enough = len(reps) >= (2 * MIN_REPS if trace else MIN_REPS)
        if enough and elapsed + typical > seconds:
            break
    return reps


def end_to_end(reps: list[dict], setup_s: float) -> dict:
    walls = [r["wall_s"] for r in reps]
    return {
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(r["ops"] / r["wall_s"] for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict], names: list[str]) -> tuple[dict, list]:
    traced = [r for r in reps if r["traced"] and "trace" in r]
    plain = [r["wall_s"] for r in reps if not r["traced"]]
    snapshots = [r["trace"] for r in traced]
    if not snapshots:
        return dict.fromkeys(names, 0), list(names)
    metrics, missing = layer_metrics(snapshots, names)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(plain) - 1)
    metrics["trace.missing_bindings"] = len(snapshots[0]["missing"])
    missing += [n for n in names if n not in metrics]
    for name in missing:
        metrics.setdefault(name, 0)
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wolstenholme" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    workload = WORKLOADS[args.workload]
    window = workload.window(args.seed)
    reference = references.get(workload.name, {}).get(window.label)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    work = ROOT / ".perfbench" / "work" / tag
    work.mkdir(parents=True, exist_ok=True)

    env = pinned_environment(ROOT, SRC)
    print("env " + json.dumps(env))
    setup_s, setup_ok = measure_setup()
    reps = measure(workload, window, reference, work, args.seconds,
                   bool(args.trace))

    missing: list[str] = []
    if args.trace:
        values, missing = per_layer(reps, list(units))
    else:
        values = end_to_end(reps, setup_s)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    if not setup_ok:
        problems.append("wolstenholme --version failed")
    correct = failed == 0 and not problems

    result = {
        "workload": workload.name, "seed": args.seed, "window": window.label,
        "trace": args.trace, "seconds": args.seconds, "env": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems, "missing": missing,
        "metrics": values,
        "reps": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1),
                                         encoding="utf-8")

    print(f"window {window.label}: {len(reps)} reps, {attempted} operations,"
          f" failed_frac {result['failed_frac']:.6g}")
    for problem in problems:
        print(f"GATE: {problem}")
    for name in missing:
        print(f"MISSING: {name} (binding or check no longer present)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
