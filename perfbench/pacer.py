"""Time pace probes on request, for ``launcher.py``.

    python3 -I -S perfbench/pacer.py

Reads one CPU number per line (-1 for any CPU), moves itself to that CPU,
runs one ``pace_probe`` and writes back its time in seconds.  Writes
``ready`` first and ends at end of input.

A probe is a fixed slice of pure-Python work of the kind ellarr's inner
loops do, in none of ellarr's code, so a change to ellarr cannot change it:
a walk through a 300 000-element list in a shuffled order (about 10 MB of
scattered int objects, so the caches and memory of a busy host matter to
it as they do to a job), tuple-keyed dictionary updates and fraction-free
elimination on a small integer matrix (growing big ints).  In trial runs
the probes of the first seconds after start-up ran slower than later
ones, so the pacer runs unreported probes for ``WARM_UP_S`` first.  It lives in a
process of its own so that its memory does not raise the launcher's peak
RSS, which every job inherits as a floor.
"""

import os
import sys
import time

SIZE = 300_000
WARM_UP_S = 1.0


def shuffled_cycle(size):
    """A fixed permutation of range(size) that is one single cycle."""
    order = list(range(size))
    seed = 20240229
    for i in range(size - 1, 0, -1):          # Fisher-Yates, fixed LCG
        seed = (seed * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        j = (seed >> 33) % (i + 1)
        order[i], order[j] = order[j], order[i]
    nxt = [0] * size
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


def pace_probe(nxt):
    i = total = 0
    for _ in range(20_000):
        i = nxt[i]
        total += i
    table = {}
    for k in range(10_000):
        key = (k % 61, (k * 7) % 53, k & 3)
        table[key] = table.get(key, 0) + k * k
    n, seed, m = 14, 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            seed = (seed * 1103515245 + 12345) % 2147483648
            row.append(seed % 19 - 9)
        m.append(row)
    prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        top = m[k]
        for r in range(k + 1, n):
            row = m[r]
            m[r] = [(row[j] * top[k] - row[k] * top[j]) // prev
                    for j in range(n)]
        prev = top[k]
    return total, len(table), m[n - 1][n - 1]


def main() -> int:
    nxt = shuffled_cycle(SIZE)
    anywhere = os.sched_getaffinity(0)
    warm_until = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < warm_until:
        pace_probe(nxt)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for line in sys.stdin:
        cpu = int(line)
        os.sched_setaffinity(0, {cpu} if cpu in anywhere else anywhere)
        t = time.perf_counter()
        pace_probe(nxt)
        sys.stdout.write("%r\n" % (time.perf_counter() - t))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
