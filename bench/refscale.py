"""Machine-speed scaling with a fixed reference loop.

The reference host (a 2-vCPU x86-64 container) drifts in speed by up to 2x
within seconds, with CPU time equal to wall time, so raw timings of pure
Python do not repeat.  Every timed interval is therefore bracketed, in the same
process, by a fixed stdlib-only reference loop, and reported as

    scaled = raw * NOMINAL_REF_S / ref

where ``ref`` is the mean of the reference timings just before and just
after the interval.  NOMINAL_REF_S is the loop's time on the reference host
at its usual speed, so scaled figures read as times on that host.
"""

from __future__ import annotations

import time

# Iterations of the reference loop, and its median time on the reference
# host (a 2-vCPU x86-64 container running CPython 3.11).  Both are
# constants of the benchmark: changing either changes every scaled figure.
REF_ITERS = 10000
NOMINAL_REF_S = 0.0150

# A working set of a few MB, as the library's element objects make.  With
# only a cache-resident loop, the scaling over-corrects: the reference then
# speeds up more than the library does when the host speeds up.
_TABLE_SIZE = 60000
_TABLE = {i: (i * 7919) % 100003 for i in range(_TABLE_SIZE)}


def reference_loop() -> int:
    """A fixed mix of the bytecode the library spends its time in: small-int
    arithmetic, tuple building, dict lookups in a small and a large table,
    and a growing list of small objects."""
    table: dict = {}
    kept = []
    acc = 0
    for i in range(REF_ITERS):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + key[0] * key[1] + len(table)) % 1000003
        k = (i * 2654435761) % _TABLE_SIZE
        v = _TABLE[k]
        kept.append((v, k, acc & 1023))
        acc ^= v & 255
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale_factor(ref_before: float, ref_after: float) -> float:
    """Factor that converts a raw interval between two reference timings
    into nominal-host time."""
    if ref_before <= 0 or ref_after <= 0:
        raise ValueError("reference timings must be positive")
    return NOMINAL_REF_S / ((ref_before + ref_after) / 2.0)


class Bracket:
    """A chain of reference timings.  Each ``close()`` times the reference
    loop once more and returns the factor for the interval since the
    previous reference timing, which it then becomes the start of the next.
    Consecutive intervals share their boundary timing, so a run of batches
    pays one reference loop per batch."""

    def __init__(self):
        self.refs: list = []
        self._last = time_reference()
        self.refs.append(self._last)

    def close(self) -> float:
        ref = time_reference()
        self.refs.append(ref)
        factor = scale_factor(self._last, ref)
        self._last = ref
        return factor


def percentile(values, q: float):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]
