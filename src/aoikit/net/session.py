"""Desk-scale measurement sessions: sender -> relay -> receiver on one host.

Runs the full pipeline in-process (each component is its own loop thread),
sweeps the offered rate through a fixed-service-rate relay, and reduces the
result to one row per rate step plus windowed region labels.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..agestats import hform_and_peak_age
from ..trace import Trace, UpdateRecord, record_columns
from .receiver import Receiver
from .regions import RegionConfig, RegionReport, classify_regions
from .relay import Relay
from .sender import RateStep, SendLog, run_sender
from .transport import TCP, UDP
from .wire import MIN_PAYLOAD


@dataclass(frozen=True)
class SweepStep:
    offered_rate: float
    achieved_rate: float
    sent: int
    received: int
    avg_age_s: Optional[float]
    peak_age_s: Optional[float]
    loss_fraction: float
    region: Optional[str]
    shortfall: bool

    def to_row(self) -> dict:
        return {
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "sent": self.sent,
            "received": self.received,
            "avg_age_s": self.avg_age_s,
            "peak_age_s": self.peak_age_s,
            "loss_fraction": self.loss_fraction,
            "region": self.region,
            "shortfall": self.shortfall,
        }


@dataclass(frozen=True)
class SweepOutcome:
    steps: tuple[SweepStep, ...]
    records: tuple[UpdateRecord, ...]
    regions: Optional[RegionReport]
    send_log: SendLog


def _wait_for_drain(receiver: Receiver, relay: Optional[Relay], timeout_s: float) -> None:
    """Wait until the pipeline goes quiet (no new records and an empty relay
    queue) or the timeout expires."""
    deadline = time.monotonic() + timeout_s
    last_count = -1
    stable_since = time.monotonic()
    while time.monotonic() < deadline:
        count = receiver.counters.received
        if count != last_count or (relay is not None and not relay.drained()):
            last_count = count
            stable_since = time.monotonic()
        elif time.monotonic() - stable_since > 0.5:
            return
        time.sleep(0.05)


def _step_stats(step, seq: np.ndarray, gen: np.ndarray, recv: np.ndarray) -> tuple[int, Optional[float], Optional[float]]:
    """(received, H-form average age, peak age) of one step's seqs; the
    columns are sorted by seq."""
    lo, hi = np.searchsorted(seq, [step.first_seq, step.first_seq + step.sent])
    if hi - lo < 2:
        return int(hi - lo), None, None
    return int(hi - lo), *hform_and_peak_age(Trace.from_columns(seq[lo:hi], gen[lo:hi], recv[lo:hi]))


def run_measured_sweep(
    rates: Sequence[float],
    dwell_s: float,
    proto: str = UDP,
    payload_size: int = MIN_PAYLOAD,
    service_rate: Optional[float] = None,
    queue_capacity: Optional[int] = None,
    region_config: RegionConfig | None = None,
    host: str = "127.0.0.1",
    drain_timeout_s: float = 15.0,
) -> SweepOutcome:
    """Sweep the offered rate against a local receiver, optionally through an
    impairment relay (service_rate set). Returns per-step measurements, the
    raw record stream, and windowed region labels."""
    if proto not in (UDP, TCP):
        raise ValueError(f"unknown proto {proto!r}")
    plan = [RateStep(rate=r, duration_s=dwell_s) for r in rates]

    # busy pacing loops contend for the interpreter lock; shorten the switch
    # interval so the sender/relay/receiver threads interleave finely
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    relay = None
    try:
        receiver = Receiver((host, 0), proto=proto).start()
        target = receiver.local_addr
        if service_rate is not None:
            relay = Relay(
                (host, 0),
                receiver.local_addr,
                service_rate=service_rate,
                queue_capacity=queue_capacity,
                proto=proto,
            ).start()
            target = relay.listen_addr
        try:
            send_log = run_sender(target, proto, plan, payload_size=payload_size)
            _wait_for_drain(receiver, relay, drain_timeout_s)
        finally:
            if relay is not None:
                relay.stop()
            receiver.stop()
    finally:
        sys.setswitchinterval(old_switch)

    records = receiver.records()
    regions = None
    if records:
        regions = classify_regions(records, region_config)

    seq, gen, recv = record_columns(records)
    order = np.argsort(seq, kind="stable")
    seq, gen, recv = seq[order], gen[order], recv[order]
    steps = []
    for st in send_log.steps:
        received, avg_age, peak_age = _step_stats(st, seq, gen, recv)
        label = None
        if regions is not None and st.sent:
            votes = Counter(
                lab.label
                for lab in regions.labels
                if lab.end_seq >= st.first_seq and lab.start_seq <= st.last_seq
            )
            if votes:
                label = votes.most_common(1)[0][0]
        steps.append(
            SweepStep(
                offered_rate=st.target_rate,
                achieved_rate=st.achieved_rate,
                sent=st.sent,
                received=received,
                avg_age_s=avg_age,
                peak_age_s=peak_age,
                loss_fraction=1.0 - received / st.sent if st.sent else 0.0,
                region=label,
                shortfall=st.shortfall,
            )
        )
    return SweepOutcome(
        steps=tuple(steps),
        records=tuple(records),
        regions=regions,
        send_log=send_log,
    )
