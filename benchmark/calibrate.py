"""A fixed pure-Python workload that measures how fast the host runs right now.

Run-to-run host speed on shared cloud machines swings by a third or
more, and process CPU time swings with it.  The benchmark times this
loop between requests, in the same process, and scales each request's
time by ``NOMINAL_S`` over the mean of the loop times just before and
just after it: timings are reported as
seconds on a host that runs this loop in ``NOMINAL_S``.  The loop mixes
the operations fairgate spends its time on (frozenset algebra, tuple
hashing, dict and set membership, sorting, string formatting) and uses
only builtins, so it shares no code with fairgate, and it imports only
``gc`` and ``time``, so it can run before ``import fairgate.cli`` is timed.
"""

import gc
import time

# Seconds one ``loop()`` takes on the reference host.
NOMINAL_S = 0.003


def loop() -> int:
    nodes = [f"n{i}" for i in range(24)]
    seen = {}
    sets = []
    acc = 0
    for i in range(360):
        a = frozenset(nodes[j] for j in range(i % 7, 24, 1 + i % 5))
        b = frozenset(nodes[(i + j) % 24] for j in range(6))
        key = (a | b, a & b, nodes[i % 24])
        if key not in seen:
            seen[key] = len(seen)
            sets.append(key)
        acc += len(a ^ b) + len(f"{nodes[i % 24]} <>^{{{','.join(sorted(b))}}}")
    acc += sum(len(s[0]) for s in sorted(sets, key=lambda s: (len(s[0]), s[2])))
    return acc


def measure(reps: int = 2) -> float:
    """Seconds of the fastest of ``reps`` runs of ``loop()``, with the cyclic GC paused.

    The fastest run, so that a one-off stall is not taken for the host's speed.
    """
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)
