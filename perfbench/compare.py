"""Compare two benchmark result files, refusing different environments.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the ones ``run.py`` writes to ``.perfbench/results/``.  Two
results are compared only when their environment blocks agree on Python
version and implementation, machine, CPU count and gmpy2 presence, and
when they ran the same workload, window and trace mode; otherwise this
exits with code 2.  It prints each metric's value before and after and
their ratio, plus the calibration loop of each side so machine drift shows.
"""
import json
import sys

from env import mismatches


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.load(open(path, encoding="utf-8")) for path in argv)
    refused = mismatches(before["env"], after["env"])
    refused += [key for key in ("workload", "window", "trace")
                if before[key] != after[key]]
    if refused:
        print("refusing to compare: results differ in " + ", ".join(refused),
              file=sys.stderr)
        return 2
    for side, result in (("before", before), ("after", after)):
        print(f"{side}: correct {result['correct']}, failed_frac"
              f" {result['failed_frac']:.6g}, calibration"
              f" {result['env']['calibration_s']:.4f} s,"
              f" source {result['env']['source_sha256'][:12]}")
    print(f"{'metric':34s} {'before':>14s} {'after':>14s} {'after/before':>13s}")
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name:34s} {old:14.6g} {'-':>14s}")
            continue
        ratio = f"{new / old:13.4f}" if old else f"{'-':>13s}"
        print(f"{name:34s} {old:14.6g} {new:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
