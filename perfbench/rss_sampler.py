"""Sample another process's resident set size about every millisecond.

    python3 perfbench/rss_sampler.py PID

Prints ``ready`` once sampling has started.  When its standard input
closes, it prints one ``time bytes`` line per sample and exits.  The times
are ``time.perf_counter()`` readings, which on Linux come from the
system-wide CLOCK_MONOTONIC and so compare with the sampled process's own.
Sampling from a separate process keeps it off the sampled interpreter's
lock; a sampling thread there slowed a traced claim-loop round by a third.
"""

import os
import select
import sys
import time

PERIOD_S = 0.001


def main() -> int:
    pid = int(sys.argv[1])
    page = os.sysconf("SC_PAGE_SIZE")
    fd = os.open(f"/proc/{pid}/statm", os.O_RDONLY)
    times: list[float] = []
    sizes: list[int] = []
    print("ready", flush=True)
    try:
        while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
            times.append(time.perf_counter())
            sizes.append(int(os.pread(fd, 128, 0).split()[1]) * page)
    finally:
        os.close(fd)
    sys.stdout.write("".join(f"{t:.9f} {s}\n" for t, s in zip(times, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
