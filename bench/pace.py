"""Machine pace: a fixed reference kernel timed between requests.

On a shared machine the speed of a core drifts by 15-30% over seconds to
minutes, in process CPU time as much as in wall time, so the drift is not
CPU steal that CPU time would hide.  The benchmark therefore times this
reference kernel, which shares no code with the program, before and after
each stretch of requests, and reports each request's wall time scaled by
NOMINAL_S / (mean of the two bracketing reference times): the seconds the
request would have taken at the pace the reference kernel had when
NOMINAL_S was measured.  A change of the program moves the request times
and not the reference, so it shows in full; a change of machine speed
moves both and cancels.  The kernel mixes what the program spends its time
on: interpreted Python, small dense solves and eigenvalue problems, and a
mid-sized complex product.
"""

import statistics
import time

import numpy as np

# about the median Reference.sample() on the machine of the committed
# baseline (2 vCPU, OpenBLAS 0.3.31); pace-adjusted times are seconds at
# this pace
NOMINAL_S = 0.0070
REPEATS = 3
ROUNDS = 6


class Reference:
    """The reference kernel with its fixed, seeded operands."""

    def __init__(self):
        rng = np.random.default_rng(20010503)
        self.small = rng.standard_normal((16, 4, 4)) + 4.0 * np.eye(4)
        self.rhs = rng.standard_normal((16, 4))
        self.block = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self.once()

    def once(self):
        """Seconds of one pass of the kernel."""
        start = time.perf_counter()
        acc = 0.0
        for _ in range(ROUNDS):
            for a, b in zip(self.small, self.rhs):
                acc += float(np.linalg.solve(a, b)[0])
                acc += float(np.abs(np.linalg.eigvals(a)).max())
                acc += float((self.block @ self.block.conj().T)[0, 0].real)
            for i in range(6000):
                acc += i * 0.5
        seconds = time.perf_counter() - start
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite result")
        return seconds

    def sample(self):
        """Median seconds of REPEATS passes: the machine's pace right now."""
        return statistics.median(self.once() for _ in range(REPEATS))


# Set-up runs in a fresh interpreter, bound by unmarshalling and page
# faults that the numpy kernel above does not track (scaling set-up times
# by it widened their spread).  That interpreter instead times this pure
# Python loop before and after its import; it tracks set-up well enough to
# halve the spread of repeated set-up measurements.
LOOP_SOURCE = """
def pace_loop():
    start = time.perf_counter()
    acc = 0
    for i in range(300000):
        acc += i * i
    return time.perf_counter() - start
"""
# pace-adjusted set-up times are seconds at this pace_loop() time, a
# fixed unit; the loop's median on the machine of the committed baseline
# was about 0.027 s
LOOP_NOMINAL_S = 0.022


def factors(paces, segment_of):
    """Per-request pace factors NOMINAL_S / mean of the bracketing samples.

    paces[s - 1] and paces[s] bracket the requests with segment_of == s.
    """
    return [NOMINAL_S / (0.5 * (paces[s - 1] + paces[s])) for s in segment_of]
