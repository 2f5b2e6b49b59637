"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the same instance can take 20-30% longer for minutes at
a time.  The benchmark times this kernel between instances and reports
instance cost in multiples of it, so a change in host speed cancels out
while a change in enopt does not: the kernel calls no enopt code.  It mixes
what enopt's time goes into, interpreter loops and small numpy operations.
"""

import time

import numpy as np


def reference_kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(160000):
        total += i * i % 7
    a = np.arange(2000.0)
    for _ in range(800):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start
