"""A reference clock: timings in units of a fixed kernel run at the same moment.

The benchmark's host is shared, and its speed moves by 20-40% over windows of
ten seconds to a minute while no process of ours is descheduled (CPU time and
wall time agree). A median over a 20-second run cannot average that out. So the
benchmark times a fixed pure-Python kernel, the *reference*, right before and
right after each unit of work (a round, a set-up, a matrix cell), and reports
the unit's cost as its wall time divided by the mean of those two reference
times. One ``ref`` is the time the host takes for the reference kernel at that
moment. The host's momentary speed cancels out, and what stays is the cost of
the program's code on this interpreter.

The one metric that must read in seconds, set-up time, is given in reference
seconds. A reference second is a fixed amount of kernel work, 10**7 iterations
of its loop, so :data:`REFS_PER_SECOND` refs. It is a unit, not a baseline:
nothing is compared with a figure measured elsewhere.

The kernel is fixed: changing :data:`REF_LOOP` or the kernel changes the unit,
and results before and after cannot be compared.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: Iterations of the reference kernel; about 20 ms on a 2-core Xeon container.
REF_LOOP = 200_000
#: Refs in one reference second of 10**7 kernel iterations. On the 2-core Xeon
#: container a reference second lasted 0.75-1.25 wall seconds, as the neighbours'
#: load came and went.
REFS_PER_SECOND = 10_000_000 / REF_LOOP


def reference_kernel() -> int:
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds the reference kernel takes now."""
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def costs(times: Sequence[float], samples: Sequence[float]) -> List[float]:
    """Each unit's cost in refs: ``times[i]`` divided by the mean of the reference
    samples taken just before and just after it (``samples[i]`` and ``samples[i + 1]``)."""
    if len(samples) != len(times) + 1:
        raise ValueError(f"{len(times)} units need {len(times) + 1} samples, got {len(samples)}")
    return [t / ((before + after) / 2.0)
            for t, before, after in zip(times, samples, samples[1:])]
