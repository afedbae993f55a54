"""Timestamping receiver: stamps UPDATE packets on arrival, corrects by the
estimated clock offset, and accumulates an update trace."""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass

import numpy as np

from ..agestats import AgeStatistics, compute_statistics
from ..trace import RecordRows, Trace
from .clock import DEFAULT_CLOCK, SessionClock
from .transport import UDP, Service, intake, listen_socket
from .wire import PT_UPDATE, WireError, decode


@dataclass
class ReceiverCounters:
    received: int = 0
    malformed: int = 0


class Receiver(Service):
    """Background intake loop bound to a local endpoint.

    Each update is appended as one (seq, gen_ns, recv_ns) row of an int64
    buffer by the single intake thread; readers copy the buffer under the
    same lock, so statistics reads are consistent. An update whose seq or
    gen_ns (u64 on the wire) does not fit int64 counts as malformed.
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
        self._rows = array("q")
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
            if pkt.ptype != PT_UPDATE:
                continue
            # checked first: array.extend keeps the items before one that overflows
            if max(pkt.seq, pkt.gen_ns) >= 2**63:
                self.counters.malformed += 1
                continue
            with self._lock:
                self._rows.extend((pkt.seq, pkt.gen_ns, recv_ns))
                self.counters.received += 1

    # -- snapshots ----------------------------------------------------------

    def rows(self) -> np.ndarray:
        """A copy of the received (seq, gen_ns, recv_ns) rows, (n, 3) int64,
        in arrival order."""
        with self._lock:
            snapshot = self._rows[:]
        return np.frombuffer(snapshot, dtype=np.int64).reshape(-1, 3)

    def records(self) -> RecordRows:
        """The received updates as a read-only record sequence over
        :meth:`rows`; records are built only as they are accessed."""
        return RecordRows(self.rows())

    def trace(self) -> Trace:
        return Trace.from_columns(*self.rows().T)

    def statistics(self) -> AgeStatistics:
        """Cumulative statistics of everything received so far."""
        return compute_statistics(self.trace())
