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
from ..trace import RecordRows, Trace
from .receiver import Receiver
from .regions import RegionConfig, RegionReport, classify_regions
from .relay import Relay
from .sender import RateStep, SendLog, run_sender
from .transport import UDP
from .wire import MIN_PAYLOAD

_LOCAL = ("127.0.0.1", 0)


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


@dataclass(frozen=True, eq=False)
class SweepOutcome:
    steps: tuple[SweepStep, ...]
    rows: np.ndarray  # received (seq, gen_ns, recv_ns), (n, 3) int64, in arrival order
    regions: Optional[RegionReport]
    send_log: SendLog

    @property
    def records(self) -> RecordRows:
        """The received updates as a read-only record sequence over ``rows``."""
        return RecordRows(self.rows)


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


def _step_region(regions: Optional[RegionReport], step) -> Optional[str]:
    """The label of most windows whose seq range meets the step's seqs; a tie
    goes to the label that comes first in window order. None when the step
    sent nothing or no window meets it."""
    if regions is None or not step.sent:
        return None
    meets = (regions.end_seq >= step.first_seq) & (regions.start_seq <= step.last_seq)
    votes = Counter(regions.label[meets].tolist()).most_common(1)
    return votes[0][0] if votes else None


def run_measured_sweep(
    rates: Sequence[float],
    dwell_s: float,
    proto: str = UDP,
    payload_size: int = MIN_PAYLOAD,
    service_rate: Optional[float] = None,
    queue_capacity: Optional[int] = None,
    region_config: RegionConfig | None = None,
    drain_timeout_s: float = 15.0,
) -> SweepOutcome:
    """Sweep the offered rate against a local receiver, optionally through an
    impairment relay (service_rate set). Returns per-step measurements, the
    raw record stream, and windowed region labels. Raises RuntimeError if the
    relay could not forward."""
    plan = [RateStep(rate=r, duration_s=dwell_s) for r in rates]

    # busy pacing loops contend for the interpreter lock; shorten the switch
    # interval so the sender/relay/receiver threads interleave finely
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    relay = None
    try:
        receiver = Receiver(_LOCAL, proto=proto).start()
        try:
            target = receiver.local_addr
            if service_rate is not None:
                relay = Relay(
                    _LOCAL,
                    receiver.local_addr,
                    service_rate=service_rate,
                    queue_capacity=queue_capacity,
                    proto=proto,
                ).start()
                target = relay.listen_addr
            send_log = run_sender(target, proto, plan, payload_size=payload_size)
            _wait_for_drain(receiver, relay, drain_timeout_s)
        finally:
            if relay is not None:
                relay.stop()
            receiver.stop()
    finally:
        sys.setswitchinterval(old_switch)
    if relay is not None and relay.log.error is not None:
        raise RuntimeError(f"relay failed: {relay.log.error}")

    rows = receiver.rows()
    regions = None
    if len(rows):
        regions = classify_regions(RecordRows(rows), region_config)

    seq, gen, recv = rows[np.argsort(rows[:, 0], kind="stable")].T
    steps = []
    for st in send_log.steps:
        received, avg_age, peak_age = _step_stats(st, seq, gen, recv)
        steps.append(
            SweepStep(
                offered_rate=st.target_rate,
                achieved_rate=st.achieved_rate,
                sent=st.sent,
                received=received,
                avg_age_s=avg_age,
                peak_age_s=peak_age,
                loss_fraction=1.0 - received / st.sent if st.sent else 0.0,
                region=_step_region(regions, st),
                shortfall=st.shortfall,
            )
        )
    return SweepOutcome(
        steps=tuple(steps),
        rows=rows,
        regions=regions,
        send_log=send_log,
    )
