"""Session timestamps, and the wait that paces the live roles.

Timestamps are monotonic-clock deltas anchored once to the wall clock, so
mid-run wall-clock steps cannot break the age math.

Every scheduled instant of the live roles (a sender slot, a relay departure,
the departure that frees a full TCP relay queue) is waited for with
:func:`pause`: it sleeps until SPIN_NS before the instant, then spins on the
monotonic clock, and never returns before the instant. Inside
:func:`fine_timer_slack` the kernel may stretch that sleep by
TIMER_SLACK_NS rather than its default of 50 µs, so the sleep ends inside
the spin window and the spin absorbs the rest. The spin costs at most
SPIN_NS of CPU per instant: at most 10 % of a core at 5000 instants per
second.
"""

from __future__ import annotations

import contextlib
import sys
import time

TIMER_SLACK_NS = 1_000  # the pacing loops' timer slack
SPIN_NS = 20_000  # the end of each wait that is spun, not slept
_PR_SET_TIMERSLACK = 29
_PR_GET_TIMERSLACK = 30


class SessionClock:
    """Nanosecond timestamps that advance with the monotonic clock from a
    single wall-clock anchor taken at construction."""

    def __init__(self, bias_ns: int = 0):
        # bias_ns lets tests inject a known clock offset
        self._anchor_wall = time.time_ns()
        self._anchor_mono = time.monotonic_ns()
        self._bias = bias_ns

    def now_ns(self) -> int:
        return self._anchor_wall + (time.monotonic_ns() - self._anchor_mono) + self._bias


# Components created in the same process share one anchor, so in-process
# loopback experiments see a consistent (zero-offset) timebase.
DEFAULT_CLOCK = SessionClock()


def pause(delay_ns: int) -> None:
    """Wait delay_ns on the monotonic clock: sleep until SPIN_NS before the
    end, then spin. Returns at the first clock reading at or past the end."""
    end = time.monotonic_ns() + delay_ns
    if delay_ns > SPIN_NS:
        time.sleep((delay_ns - SPIN_NS) / 1e9)
    while time.monotonic_ns() < end:
        pass


def _prctl():
    """libc's prctl with its argument types declared, or None where there is
    none (off Linux)."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes  # lazily: only the pacing loops need it

    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl


@contextlib.contextmanager
def fine_timer_slack():
    """Lower the calling thread's timer slack to TIMER_SLACK_NS for the
    block and restore the previous value after it; a no-op where prctl is
    unavailable or refuses."""
    prctl = _prctl()
    previous = prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0) if prctl is not None else -1
    lowered = previous > 0 and prctl(_PR_SET_TIMERSLACK, TIMER_SLACK_NS, 0, 0, 0) == 0
    try:
        yield
    finally:
        if lowered:
            prctl(_PR_SET_TIMERSLACK, previous, 0, 0, 0)
