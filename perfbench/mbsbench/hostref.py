"""Host-speed reference: rescale measured times to a nominal host speed.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2x over seconds (other tenants, SMT siblings).  Between operations,
and never while the program computes, the load generator times a fixed
reference kernel.  Each operation's duration is then multiplied by
``NOMINAL_REF_S / ref``, so a slow phase of the host inflates the
kernel and the operation alike and cancels out.  For a short operation
``ref`` is the mean of the samples taken just before and just after
it.  An operation of :data:`LONG_OP_S` or more spans several host
phases, which its two end samples do not represent; nor does the
run's median sample, which fig6's numpy training does not follow (see
perfbench/README.md for the measured spreads), so it stays in host
seconds.  In between, ``ref`` moves from the end samples'
mean to ``NOMINAL_REF_S`` in proportion to the operation's length, so
rescaled time grows continuously with raw time.
"""
from __future__ import annotations

import bisect
import time
import numpy as np

#: Kernel time of one reference sample on a quiet host (about the
#: median of a 2-vCPU x86-64 cloud VM).  Rescaled figures read as
#: seconds on a host of exactly this speed.
NOMINAL_REF_S = 0.00040

#: Host speed changes in phases of about a second.  An operation this
#: long or longer is not rescaled; a shorter one is rescaled less the
#: longer it is (see :meth:`HostClock.ref_for`).
LONG_OP_S = 1.0

#: Reference samples between operations are taken at most this often
#: (``HostClock.maybe_sample``), so cheap serve cache hits are not
#: dominated by the kernel.
REF_GAP_S = 0.02

#: Kernel repetitions per sample; the sample is their median, which
#: drops one-off interrupts but still follows a slow phase.
REPEATS = 3

_VEC = np.linspace(0.0, 1.0, 48)


def reference_kernel() -> float:
    """Run the fixed reference work once; returns its seconds.

    It resembles the program: Python tuples, dicts and lists churned
    the way the schedulers key their memos, plus small numpy calls like
    the per-layer cost arithmetic.
    """
    started = time.perf_counter()
    table: dict = {}
    for i in range(800):
        key = ("blk", i % 37, i & 7)
        row = table.get(key)
        if row is None:
            table[key] = row = []
        row.append((i, i * 3 % 11))
    acc = sum(len(v) + v[-1][1] for v in sorted(table.values(), key=len))
    vec = _VEC.copy()
    for _ in range(32):
        vec = np.maximum(vec * 1.001, 0.25)
        acc += int(vec.argmax())
    if acc < 0:  # keeps the work observable; never true
        raise AssertionError(acc)
    return time.perf_counter() - started


def rescale(duration_s: float, ref_s: float) -> float:
    """``duration_s``, measured while the kernel took ``ref_s``, as it
    would read on a host of nominal speed."""
    if ref_s <= 0:
        raise ValueError(f"reference time must be positive, got {ref_s}")
    return duration_s * NOMINAL_REF_S / ref_s


class HostClock:
    """Reference samples taken between operations, and the rescaling.

    ``sample()`` runs the kernel now; ``maybe_sample()`` only when at
    least :data:`REF_GAP_S` passed since the last sample, which bounds
    the overhead on workloads of very short operations.
    ``rescaled(start, end)`` rescales an interval once every sample of
    the run is taken.
    """

    def __init__(self, kernel=reference_kernel):
        self.kernel = kernel
        self.times: list[float] = []   # when each sample ended
        self.refs: list[float] = []    # its kernel seconds

    def sample(self) -> float:
        ref = sorted(self.kernel() for _ in range(REPEATS))[REPEATS // 2]
        self.times.append(time.perf_counter())
        self.refs.append(ref)
        return ref

    def maybe_sample(self) -> None:
        if not self.times or (
                time.perf_counter() - self.times[-1] >= REF_GAP_S):
            self.sample()

    def bracket(self, start: float, end: float) -> tuple[float, float]:
        """Reference samples taken last before ``start`` / first after ``end``."""
        if not self.refs:
            raise ValueError("no reference samples taken")
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        before = self.refs[max(i, 0)]
        after = self.refs[min(j, len(self.refs) - 1)]
        return before, after

    def ref_for(self, start: float, end: float) -> float:
        """The reference time an interval is rescaled by.

        The mean of its bracketing samples, moved towards
        :data:`NOMINAL_REF_S` (no rescaling) in proportion to its
        length, reaching it at :data:`LONG_OP_S`.
        """
        weight = min(1.0, (end - start) / LONG_OP_S)
        ends = sum(self.bracket(start, end)) / 2.0
        return (1.0 - weight) * ends + weight * NOMINAL_REF_S

    def rescaled(self, start: float, end: float) -> float:
        return rescale(end - start, self.ref_for(start, end))

    def median_ref(self) -> float:
        return float(np.median(self.refs))

