"""The environment block stamped on every benchmark result.

Numbers are only comparable when ``COMPARABLE_KEYS`` agree.  The
calibration loop is a fixed pure-int workload (modular multiply-add at
p^7 for p = 16843, the scan kernel's arithmetic) timed in the benchmark's
own process; a shift in it between two sets of results is machine drift,
not a change in the program.  The same loop, run during each child, gives
the speed factor that ``spawn.py`` reports.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import statistics
import subprocess
from pathlib import Path

from spawn import int_loop_s

CALIBRATION_STEPS = 500_000
CALIBRATION_REPEATS = 3

#: Keys that must be equal before two results may be compared.
COMPARABLE_KEYS = ("python", "implementation", "machine", "nproc", "gmpy2")


def calibration_s() -> float:
    """Median wall time of the fixed calibration loop."""
    return statistics.median(
        int_loop_s(CALIBRATION_STEPS) for _ in range(CALIBRATION_REPEATS))


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one allowed CPU.

    On a shared host the two CPUs change speed independently, so the speed
    loop must run on the CPU the measured child runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def pinned_environment(root: Path, src: Path) -> dict:
    """Pin to one CPU, then describe the environment and time the calibration."""
    env = _environment(root, src)
    env["pinned_cpu"] = pin_to_one_cpu()
    env["calibration_s"] = calibration_s()
    return env


def _environment(root: Path, src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": _commit(root),
        "source_sha256": source_digest(src),
        "loadavg_start": list(os.getloadavg()),
    }


def mismatches(a: dict, b: dict) -> list[str]:
    """The comparable keys on which two environment blocks differ."""
    return [k for k in COMPARABLE_KEYS if a.get(k) != b.get(k)]
