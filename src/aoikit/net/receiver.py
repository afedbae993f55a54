"""Timestamping receiver: stamps UPDATE packets on arrival, corrects by the
estimated clock offset, and accumulates an update trace."""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass

from ..agestats import AgeStatistics, compute_statistics
from ..trace import Trace, UpdateRecord
from .clock import DEFAULT_CLOCK, SessionClock
from .sender import UDP, listen_socket
from .wire import PT_UPDATE, FrameReader, WireError, decode


@dataclass
class ReceiverCounters:
    received: int = 0
    malformed: int = 0
    connection_resets: int = 0


class Receiver:
    """Background intake loop bound to a local endpoint.

    Records are appended by the single intake thread; readers take a snapshot
    under the same lock, so statistics reads are consistent.
    """

    def __init__(
        self,
        bind_addr: tuple[str, int],
        proto: str = UDP,
        offset_ns: int = 0,
        clock: SessionClock | None = None,
    ):
        self.proto = proto
        self.offset_ns = offset_ns
        self.clock = clock if clock is not None else DEFAULT_CLOCK
        self.counters = ReceiverCounters()
        self._records: list[UpdateRecord] = []
        self._lock = threading.Lock()
        self._running = False
        self._thread: threading.Thread | None = None
        self._sock = listen_socket(proto, bind_addr)
        self.local_addr = self._sock.getsockname()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Receiver":
        self._running = True
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sock.close()

    def __enter__(self) -> "Receiver":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- intake ------------------------------------------------------------

    def _stamp(self) -> int:
        return self.clock.now_ns() - self.offset_ns

    def _ingest(self, data: bytes, recv_ns: int) -> None:
        try:
            pkt = decode(data)
        except WireError:
            self.counters.malformed += 1
            return
        if pkt.ptype != PT_UPDATE:
            return
        rec = UpdateRecord(seq=pkt.seq, gen_ns=pkt.gen_ns, recv_ns=recv_ns)
        with self._lock:
            self._records.append(rec)
            self.counters.received += 1

    def _run(self) -> None:
        if self.proto == UDP:
            self._run_udp()
        else:
            self._run_tcp()

    def _run_udp(self) -> None:
        while self._running:
            try:
                data, _ = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            self._ingest(data, self._stamp())

    def _run_tcp(self) -> None:
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(0.2)
            reader = FrameReader()
            with conn:
                while self._running:
                    try:
                        chunk = conn.recv(1 << 16)
                    except socket.timeout:
                        continue
                    except (ConnectionResetError, OSError):
                        self.counters.connection_resets += 1
                        break
                    if not chunk:
                        break  # orderly close
                    stamp = self._stamp()
                    for record in reader.feed(chunk):
                        self._ingest(record, stamp)

    # -- snapshots ----------------------------------------------------------

    def records(self) -> list[UpdateRecord]:
        with self._lock:
            return list(self._records)

    def trace(self) -> Trace:
        return Trace.from_records(self.records())

    def statistics(self) -> AgeStatistics:
        """Cumulative statistics of everything received so far."""
        return compute_statistics(self.trace())
