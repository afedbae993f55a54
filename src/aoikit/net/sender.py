"""Paced status-update sender over UDP or TCP.

Pacing follows an absolute per-step schedule: after an oversleep the sender
catches up instead of drifting, so the achieved rate tracks the target until
the host (or TCP backpressure) becomes the bottleneck, which is reported as a
shortfall.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .clock import DEFAULT_CLOCK, SessionClock
from .wire import MIN_PAYLOAD, encode_update, frame

UDP = "udp"
TCP = "tcp"


def listen_socket(proto: str, bind_addr: tuple[str, int]) -> socket.socket:
    """Bound intake socket with a 0.2 s timeout: UDP with a large receive
    buffer, or a listening TCP socket."""
    if proto not in (UDP, TCP):
        raise ValueError(f"unknown proto {proto!r}")
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM if proto == UDP else socket.SOCK_STREAM)
    if proto == UDP:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 23)
    else:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(bind_addr)
    if proto == TCP:
        sock.listen(1)
    sock.settimeout(0.2)
    return sock


@dataclass(frozen=True)
class RateStep:
    rate: float  # packets per second
    duration_s: float


@dataclass
class StepStats:
    target_rate: float
    duration_s: float
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
    proto: str
    payload_size: int
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
    shortfall_ratio: float = 0.9,
    connect_timeout: float = 5.0,
) -> SendLog:
    """Send UPDATE packets paced to each step of the plan; the generation
    timestamp is taken immediately before transmission. Returns per-step
    achieved rates with shortfall flags."""
    if clock is None:
        clock = DEFAULT_CLOCK
    log = SendLog(proto=proto, payload_size=payload_size)
    if proto == UDP:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
        sock.connect(addr)
    elif proto == TCP:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout)
        try:
            sock.connect(addr)
        except OSError as exc:
            sock.close()
            log.steps.append(
                StepStats(
                    target_rate=plan[0].rate if plan else 0.0,
                    duration_s=0.0,
                    first_seq=0,
                    error=f"connect failed: {exc}",
                )
            )
            return log
        sock.settimeout(None)
        # one update per segment at low rates: disable small-write coalescing
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    else:
        raise ValueError(f"unknown proto {proto!r}")

    seq = 0
    try:
        for step in plan:
            stats = StepStats(
                target_rate=step.rate, duration_s=step.duration_s, first_seq=seq
            )
            log.steps.append(stats)
            interval = 1.0 / step.rate
            total = max(1, round(step.rate * step.duration_s))
            t0 = time.monotonic()
            t_next = t0
            deadline = t0 + step.duration_s
            try:
                while stats.sent < total:
                    now = time.monotonic()
                    if now >= deadline:
                        break
                    if now < t_next:
                        time.sleep(min(t_next - now, 0.0005))
                        continue
                    data = encode_update(seq, clock.now_ns(), payload_size)
                    if proto == UDP:
                        sock.send(data)
                    else:
                        sock.sendall(frame(data))
                    seq += 1
                    stats.sent += 1
                    t_next += interval
            except OSError as exc:
                stats.error = str(exc)
            elapsed = max(time.monotonic() - t0, 1e-9)
            stats.achieved_rate = stats.sent / elapsed
            stats.shortfall = stats.achieved_rate < shortfall_ratio * step.rate
            if stats.error is not None:
                break  # abort the plan on a dead connection
    finally:
        sock.close()
    return log
