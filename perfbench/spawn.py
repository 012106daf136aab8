"""Run one child process; report its wall time, speed factor, exit code and peak RSS.

    python3 -S perfbench/spawn.py TIMEOUT_S PERIOD_S STDERR_PATH PROGRAM [ARGS...]

Prints one JSON object: ``wall_s`` (raw), ``speed_factor``, ``exit`` and
``rss_mb``.  The child is killed after TIMEOUT_S.

Speed.  On a shared host one CPU's speed changes by up to 2x within
seconds, so a wall time alone says little.  The caller pins itself (and so
this process and the child) to one CPU.  Every PERIOD_S of the child's
run, the child is paused (SIGSTOP), a fixed pure-int loop is timed on the
same CPU, and the child resumes; one more loop runs before the child starts
and one after it ends.  The paused time is left out of ``wall_s``.
PERIOD_S = 0 skips the pauses, for children that time themselves with the
wall clock; their speed factor then rests on the two outer loops only.
``speed_factor`` is ``PROBE_REF_S`` over the mean loop time: multiplying
``wall_s`` by it gives seconds on the uncontended CPU the benchmark was
defined on.

Peak RSS.  Linux carries the spawning process's resident set into the
child's ``ru_maxrss`` at exec, so a child of the benchmark itself would
report at least the benchmark's own peak.  This small interpreter (started
with -S, importing next to nothing) keeps that floor below the size of any
run of the package.
"""
import json
import os
import select
import signal
import sys
import time

PROBE_STEPS = 30_000

#: Loop time on the uncontended 2.1 GHz Xeon (Python 3.11.7) the benchmark
#: was defined on.
PROBE_REF_S = 0.0063


def int_loop_s(steps: int) -> float:
    """Wall time of ``steps`` modular multiply-adds at 16843^7."""
    m = 16843 ** 7
    acc = 1
    start = time.perf_counter()
    for k in range(1, steps + 1):
        acc = (acc * acc + k) % m
    return time.perf_counter() - start


def run(program, timeout, period, stderr_path):
    devnull = os.open(os.devnull, os.O_RDWR)
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, devnull, 0),
               (os.POSIX_SPAWN_DUP2, devnull, 1),
               (os.POSIX_SPAWN_DUP2, err, 2)]
    probes = [int_loop_s(PROBE_STEPS)]
    paused = 0.0
    start = time.perf_counter()
    pid = os.posix_spawnp(program[0], program, os.environ, file_actions=actions)
    exited = os.pidfd_open(pid)
    while True:
        if select.select([exited], [], [], period or timeout)[0]:
            end = time.perf_counter()
            result = os.wait4(pid, 0)
            break
        now = time.perf_counter()
        if not period or now - start - paused > timeout:
            os.kill(pid, signal.SIGKILL)
            continue
        os.kill(pid, signal.SIGSTOP)
        waited = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(waited[1]):  # it exited before the signal landed
            end, result = now, waited
            break
        probes.append(int_loop_s(PROBE_STEPS))
        os.kill(pid, signal.SIGCONT)
        paused += time.perf_counter() - now
    os.close(exited)
    probes.append(int_loop_s(PROBE_STEPS))
    _, status, usage = result
    return {
        "wall_s": end - start - paused,
        "speed_factor": PROBE_REF_S * len(probes) / sum(probes),
        "probes": len(probes),
        "exit": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main(argv):
    timeout, period, stderr_path = float(argv[0]), float(argv[1]), argv[2]
    print(json.dumps(run(argv[3:], timeout, period, stderr_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
