"""A fixed piece of pure-Python work whose time follows the CPU's current speed.

On a shared machine a CPU's speed drifts: on the 2-CPU machine the
reference figures come from, this loop took from 1.0 to 1.8 times its
best time, each CPU on its own, in phases from under a second to minutes.
The workers time the probe before the first operation of a round and
after each one; run.py scales every slice of the round by REFERENCE_S over
the probes around it, so that a slowdown of the machine cancels and a
slowdown of the program does not.  The probe imports nothing, so a worker
can time it before `import shadiv`.
"""

import time

ITERATIONS = 5000
# The probe's time on a CPU at the reference speed: the fast phase of the
# machine the reference figures come from.  Timings are reported as if
# every slice ran at this speed.
REFERENCE_S = 0.35e-3


def probe():
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    return s


def timed():
    """(seconds the probe took, the clock when it ended)."""
    t = time.perf_counter()
    probe()
    end = time.perf_counter()
    return end - t, end
