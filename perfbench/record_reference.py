"""Record the reference jsonl digests the benchmark's gates compare against.

    python3 perfbench/record_reference.py

Runs every distinct window of every workload once, refuses to record a
window whose output fails the workload's semantic gate, and writes
``perfbench/reference.json``.  Run it only on a commit whose behaviour is
the reference (the digests pin byte-identical jsonl).
"""
import json
import sys

from run import HERE, ROOT, load_records, spawn
from workloads import SHIFTS, WORKLOADS


def main() -> int:
    work = ROOT / ".perfbench" / "work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in WORKLOADS.values():
        windows = {}
        for seed in range(SHIFTS):
            window = workload.window(seed)
            if window.label in windows:
                continue
            out = work / f"{workload.name}.jsonl"
            argv = [sys.executable, "-m", "wolstenholme.cli", *window.argv(str(out))]
            rep = spawn(argv, timeout=600)
            records, digest = load_records(out)
            if rep["exit"] != 0 or records is None:
                print(f"{workload.name} {window.label}: exit {rep['exit']}",
                      file=sys.stderr)
                return 1
            ops, failed, problems = workload.gate(records, window)
            if failed or problems:
                print(f"{workload.name} {window.label}: {problems}", file=sys.stderr)
                return 1
            windows[window.label] = {"sha256": digest, "ops": ops}
            print(f"{workload.name} {window.label}: {ops} operations,"
                  f" {rep['wall_s']:.2f} s, sha256 {digest[:16]}")
        reference[workload.name] = windows
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
