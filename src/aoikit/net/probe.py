"""RTT-probe clock-offset estimation and the echo reflector it talks to.

The estimator sends K probes, keeps the one with the minimum RTT, and splits
that RTT symmetrically: B = t_reflector - (t_send + RTT/2). The estimation
error is bounded by the RTT regardless of the actual path asymmetry; the
alternative full-RTT subtraction is selectable.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from ..syncbias import ClockBiasModel
from .clock import DEFAULT_CLOCK, SessionClock
from .transport import UDP, Service, connect, intake, listen_socket
from .wire import (
    PT_PROBE,
    PT_PROBE_ECHO,
    WireError,
    decode,
    encode_probe,
    encode_probe_echo,
)

HALF_RTT = "half_rtt"
FULL_RTT = "full_rtt"


class ProbeError(RuntimeError):
    """No probe echoes came back."""


@dataclass(frozen=True)
class OffsetEstimate:
    bias_ns: int
    min_rtt_ns: int
    probes_used: int

    def to_model(self) -> ClockBiasModel:
        return ClockBiasModel(
            bias_ns=self.bias_ns,
            rtt_bound_ns=self.min_rtt_ns,
            probe_count=self.probes_used,
        )


def combine_stamps(t_send_ns: int, t_reflect_ns: int, t_arrive_ns: int, mode: str = HALF_RTT) -> tuple[int, int]:
    """(bias_ns, rtt_ns) from one probe's three timestamps."""
    rtt = t_arrive_ns - t_send_ns
    if mode == HALF_RTT:
        bias = t_reflect_ns - (t_send_ns + rtt // 2)
    elif mode == FULL_RTT:
        bias = t_reflect_ns - (t_send_ns + rtt)
    else:
        raise ValueError(f"unknown estimation mode {mode!r}")
    return bias, rtt


class Reflector(Service):
    """UDP probe echo service. ``bias_ns`` injects an artificial clock offset
    and ``delay_s`` a symmetric processing delay; both exist so controlled
    tests have a known ground truth."""

    loops = ("_reflect",)

    def __init__(self, bind_addr: tuple[str, int], bias_ns: int = 0, delay_s: float = 0.0,
                 clock: SessionClock | None = None):
        super().__init__(listen_socket(UDP, bind_addr))
        self.clock = clock if clock is not None else DEFAULT_CLOCK
        self.bias_ns = bias_ns
        self.delay_s = delay_s
        self.local_addr = self._sock.getsockname()

    def _stamp(self) -> int:
        return self.clock.now_ns() + self.bias_ns

    def _reflect(self) -> None:
        for data, recv_ns, peer in intake(self._sock, UDP, self._stamp, self.running):
            try:
                pkt = decode(data)
            except WireError:
                continue
            if pkt.ptype != PT_PROBE:
                continue
            if self.delay_s > 0:
                time.sleep(self.delay_s)
            echo = encode_probe_echo(pkt.seq, pkt.gen_ns, recv_ns)
            try:
                self._sock.sendto(echo, peer)
            except OSError:
                break


def estimate_offset(
    addr: tuple[str, int],
    probe_count: int = 10,
    timeout_s: float = 0.5,
    mode: str = HALF_RTT,
    clock: SessionClock | None = None,
) -> OffsetEstimate:
    """Probe a reflector and derive the clock offset from the minimum-RTT
    probe. Raises ProbeError if no echo returns."""
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    if clock is None:
        clock = DEFAULT_CLOCK
    sock, send = connect(UDP, addr)
    sock.settimeout(timeout_s)
    best: tuple[int, int] | None = None  # (rtt_ns, bias_ns)
    used = 0
    try:
        for k in range(probe_count):
            t_send = clock.now_ns()
            try:
                send(encode_probe(k, t_send))
            except OSError:
                continue
            while True:
                try:
                    data = sock.recv(65535)
                except socket.timeout:
                    break
                except OSError:
                    # e.g. ICMP port-unreachable surfacing as connection refused
                    break
                t_arrive = clock.now_ns()
                try:
                    pkt = decode(data)
                except WireError:
                    continue
                if pkt.ptype != PT_PROBE_ECHO or pkt.seq != k or pkt.reflector_recv_ns is None:
                    continue  # stray or stale echo
                bias, rtt = combine_stamps(t_send, pkt.reflector_recv_ns, t_arrive, mode)
                used += 1
                if best is None or rtt < best[0]:
                    best = (rtt, bias)
                break
    finally:
        sock.close()
    if best is None:
        raise ProbeError("no probes returned")
    rtt, bias = best
    return OffsetEstimate(bias_ns=bias, min_rtt_ns=rtt, probes_used=used)
