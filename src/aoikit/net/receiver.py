"""Timestamping receiver: stamps UPDATE packets on arrival, corrects by the
estimated clock offset, and accumulates an update trace."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..agestats import AgeStatistics, compute_statistics
from ..trace import Trace, UpdateRecord
from .clock import DEFAULT_CLOCK, SessionClock
from .transport import UDP, Service, intake, listen_socket
from .wire import PT_UPDATE, WireError, decode


@dataclass
class ReceiverCounters:
    received: int = 0
    malformed: int = 0


class Receiver(Service):
    """Background intake loop bound to a local endpoint.

    Records are appended by the single intake thread; readers take a snapshot
    under the same lock, so statistics reads are consistent.
    """

    loops = ("_intake",)

    def __init__(
        self,
        bind_addr: tuple[str, int],
        proto: str = UDP,
        offset_ns: int = 0,
        clock: SessionClock | None = None,
    ):
        super().__init__(listen_socket(proto, bind_addr))
        self.proto = proto
        self.offset_ns = offset_ns
        self.clock = clock if clock is not None else DEFAULT_CLOCK
        self.counters = ReceiverCounters()
        self._records: list[UpdateRecord] = []
        self._lock = threading.Lock()
        self.local_addr = self._sock.getsockname()

    def _stamp(self) -> int:
        return self.clock.now_ns() - self.offset_ns

    def _intake(self) -> None:
        for data, recv_ns, _ in intake(self._sock, self.proto, self._stamp, self.running):
            try:
                pkt = decode(data)
            except WireError:
                self.counters.malformed += 1
                continue
            if pkt.ptype == PT_UPDATE:
                with self._lock:
                    self._records.append(UpdateRecord(seq=pkt.seq, gen_ns=pkt.gen_ns, recv_ns=recv_ns))
                    self.counters.received += 1

    # -- snapshots ----------------------------------------------------------

    def records(self) -> list[UpdateRecord]:
        with self._lock:
            return list(self._records)

    def trace(self) -> Trace:
        return Trace.from_records(self.records())

    def statistics(self) -> AgeStatistics:
        """Cumulative statistics of everything received so far."""
        return compute_statistics(self.trace())
