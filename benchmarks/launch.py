"""Runs the benchmark's child processes and times them.

A child's peak RSS, as os.wait4 reports it, also counts the memory of the
process that spawned it (the kernel carries its high-water mark across
exec). The benchmark process grows large while it builds inputs and
reference outputs, so it hands every spawn to this launcher, which stays
small: it imports nothing beyond os, signal, sys and time.

Protocol, one line each way per child: the request is the stderr path and
the argv, tab-separated; the reply is "<wall s> <exit code> <peak RSS KiB>".
"""
import os
import signal
import sys
import time

#: A child still running after this many seconds is killed.
TIMEOUT_S = 150


def main():
    null = os.open(os.devnull, os.O_RDWR)
    child = [0]
    signal.signal(signal.SIGALRM, lambda *_: os.kill(child[0], signal.SIGKILL))
    for line in sys.stdin:
        stderr_path, *argv = line.rstrip("\n").split("\t")
        actions = [(os.POSIX_SPAWN_DUP2, null, 0), (os.POSIX_SPAWN_DUP2, null, 1),
                   (os.POSIX_SPAWN_OPEN, 2, stderr_path,
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        start = time.perf_counter()
        child[0] = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(TIMEOUT_S)
        _, status, usage = os.wait4(child[0], 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        sys.stdout.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} "
                         f"{usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
