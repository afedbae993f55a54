"""Paced status-update sender over UDP or TCP.

Pacing follows an absolute per-step schedule: after an oversleep the sender
catches up instead of drifting, so the achieved rate tracks the target until
the host (or TCP backpressure) becomes the bottleneck, which is reported as a
shortfall (an achieved rate below SHORTFALL times the target). Catch-up is
shaped (GCRA): missed packets leave at CATCH_UP times the step's rate, and
only a lag of one packet or JITTER_S, whichever is more, is made up back to
back. Sent back to back, the packets missed during a stall would reach a full
bottleneck as one burst and be lost as one run. The shaper is charged from a
pacing-clock reading taken after each generation stamp, so a stall before a
stamp delays the shaper with it and cannot let the next packets out back to
back.

Each wait for a slot is a :func:`~aoikit.net.clock.pause` under
:func:`~aoikit.net.clock.fine_timer_slack`: a sleep with 1 µs timer slack that
ends 20 µs (``SPIN_NS``) before the slot, then a spin. No packet is stamped
before its slot, and a paced packet is typically stamped within a microsecond
of it. The spin costs at most 20 µs of CPU per packet, 10 % of a core at
5000/s; a sender behind schedule never waits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .clock import DEFAULT_CLOCK, SessionClock, fine_timer_slack, pause
from .transport import connect
from .wire import MIN_PAYLOAD, encode_update

CATCH_UP = 1.5  # rate bound while behind schedule, as a multiple of the step's rate
JITTER_S = 0.0005  # lag that may still be made up back to back
SHORTFALL = 0.9  # achieved/target rate ratio below which a step falls short


@dataclass(frozen=True)
class RateStep:
    rate: float  # packets per second
    duration_s: float


@dataclass
class StepStats:
    target_rate: float
    first_seq: int
    sent: int = 0
    achieved_rate: float = 0.0
    shortfall: bool = False
    error: Optional[str] = None

    @property
    def last_seq(self) -> int:
        return self.first_seq + self.sent - 1


@dataclass
class SendLog:
    steps: list[StepStats] = field(default_factory=list)

    @property
    def total_sent(self) -> int:
        return sum(s.sent for s in self.steps)


def parse_rate_plan(spec: str) -> list[RateStep]:
    """Parse ``start:end:step:dwell_s`` into a list of rate steps (inclusive
    endpoints)."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError("rate plan must be start:end:step:dwell_s")
    start, end, step, dwell = (float(p) for p in parts)
    if start <= 0 or step <= 0 or dwell <= 0 or end < start:
        raise ValueError("rate plan values must be positive with end >= start")
    rates = []
    r = start
    while r <= end + 1e-9:
        rates.append(r)
        r += step
    return [RateStep(rate=r, duration_s=dwell) for r in rates]


def run_sender(
    addr: tuple[str, int],
    proto: str,
    plan: Sequence[RateStep],
    payload_size: int = MIN_PAYLOAD,
    clock: SessionClock | None = None,
) -> SendLog:
    """Send UPDATE packets paced to each step of the plan; the generation
    timestamp is taken immediately before transmission. Returns per-step
    achieved rates with shortfall flags."""
    if clock is None:
        clock = DEFAULT_CLOCK
    log = SendLog()
    try:
        sock, send = connect(proto, addr)
    except OSError as exc:
        log.steps.append(
            StepStats(target_rate=plan[0].rate if plan else 0.0, first_seq=0, error=f"connect failed: {exc}")
        )
        return log

    seq = 0
    with sock, fine_timer_slack():
        for step in plan:
            stats = StepStats(target_rate=step.rate, first_seq=seq)
            log.steps.append(stats)
            interval = 1.0 / step.rate
            min_gap = interval / CATCH_UP
            tolerance = max(min_gap, JITTER_S)
            total = max(1, round(step.rate * step.duration_s))
            t0 = now = time.monotonic()
            t_next = t0  # the next packet's slot
            t_tat = t0  # the shaper's theoretical send time
            deadline = t0 + step.duration_s
            try:
                while stats.sent < total and now < deadline:
                    wake = max(t_next, t_tat - tolerance)
                    if now < wake:
                        pause(int((wake - now) * 1e9) + 1)  # rounded up: never early
                        now = time.monotonic()
                        continue
                    send(encode_update(seq, clock.now_ns(), payload_size))
                    seq += 1
                    stats.sent += 1
                    t_next += interval
                    # read after the stamp, so a stall before the stamp
                    # cannot leave the shaper charged from an earlier instant
                    now = time.monotonic()
                    t_tat = max(t_tat, now) + min_gap
            except OSError as exc:
                stats.error = str(exc)
            elapsed = max(time.monotonic() - t0, 1e-9)
            stats.achieved_rate = stats.sent / elapsed
            stats.shortfall = stats.achieved_rate < SHORTFALL * step.rate
            if stats.error is not None:
                break  # abort the plan on a dead connection
    return log
