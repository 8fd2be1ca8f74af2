"""Times scaled to a reference machine speed.

On a shared machine the same Python code can run up to twice as slowly for
tens of seconds at a time, which swamps any change worth measuring.  Each
timed piece of work is therefore bracketed by runs of a fixed probe kernel
that does the kinds of operations tracebracket spends its time on (small
objects with slots, method calls, tuple-keyed dicts, list sorts) but none of
its code, so no change to the package can change the probe.  The work's
wall time is multiplied by ``REFERENCE_S`` over the mean of the two probe
times around it: reported times are seconds on a machine where the probe
takes ``REFERENCE_S``.
"""
from __future__ import annotations

import time
from statistics import median

_now = time.perf_counter
REFERENCE_S = 0.0025


class _Residue:
    __slots__ = ("m", "v")

    def __init__(self, m: int, v: int):
        self.m = m
        self.v = v % m

    def mul(self, other: "_Residue") -> "_Residue":
        return _Residue(self.m, self.v * other.v)


def probe() -> float:
    """Wall seconds for one run of the probe kernel."""
    t0 = _now()
    table = {}
    acc = _Residue(7, 1)
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, key)
        acc = acc.mul(_Residue(7, i | 1))
        pair = [key, (i, 0)]
        pair.sort()
    return _now() - t0


class ScaledClock:
    """Times calls in reference seconds; consecutive calls share a probe."""

    def __init__(self) -> None:
        self.probes = []
        self.restart()

    def restart(self) -> None:
        """Probe afresh, after work that was not timed."""
        self.before = probe()
        self.probes.append(self.before)

    def time(self, fn):
        """(result, wall seconds, reference seconds) of ``fn()``."""
        t0 = _now()
        result = fn()
        wall = _now() - t0
        after = probe()
        self.probes.append(after)
        scaled = wall * REFERENCE_S * 2 / (self.before + after)
        self.before = after
        return result, wall, scaled

    def factor_since(self, start: int) -> float:
        """Reference seconds per wall second over the probes from index
        ``start`` on."""
        return REFERENCE_S / median(self.probes[start:])
