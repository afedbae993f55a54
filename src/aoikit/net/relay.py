"""In-path impairment relay: a FCFS queue drained at a fixed service rate.

UDP mode tail-drops arrivals beyond the queue capacity, which reproduces a
congested best-effort hop. TCP mode never drops: when the queue is full the
relay stops reading its ingress socket, so flow control pushes back on the
sender instead, matching reliable-transport behavior.

The queue is kept as a schedule. Each admitted packet gets its departure from
its arrival alone, ``d = max(arrival, previous d) + 1/service_rate``, and the
egress thread sends it at ``d``. Whether the buffer is full is decided from
those departures, not from how far the egress thread has got, and on Linux a
UDP arrival is the kernel's receive stamp, not the moment the ingress thread
read it. So a descheduled relay thread delays packets but does not turn
isolated drops into runs.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .sender import UDP, listen_socket
from .wire import FrameReader, frame

# Linux socket option for nanosecond kernel receive stamps (a struct timespec
# in ancillary data); the socket module does not name it before Python 3.12.
SO_TIMESTAMPNS = getattr(socket, "SO_TIMESTAMPNS", 35)
_TIMESPEC = struct.Struct("@ll")


@dataclass
class RelayLog:
    forwarded: int = 0
    dropped: int = 0
    queue_delays_s: list[float] = field(default_factory=list)


class Relay:
    """Forward packets listen_addr -> forward_addr through a rate-limited
    FCFS queue."""

    def __init__(
        self,
        listen_addr: tuple[str, int],
        forward_addr: tuple[str, int],
        service_rate: float,
        queue_capacity: Optional[int] = None,
        proto: str = UDP,
    ):
        if service_rate <= 0:
            raise ValueError("service_rate must be positive")
        self.proto = proto
        self.forward_addr = forward_addr
        self.interval = 1.0 / service_rate
        self._interval_ns = round(1e9 / service_rate)
        self.capacity = queue_capacity
        self.log = RelayLog()
        # departures of the last capacity+1 admitted packets (ingress only):
        # the buffer is full while the oldest of them is still ahead
        self._departures: deque[int] = deque(maxlen=1 if queue_capacity is None else queue_capacity + 1)
        # admitted packets awaiting egress: (arrival ns, departure ns, record)
        self._queue: deque[tuple[int, int, bytes]] = deque()
        self._lock = threading.Lock()
        self._running = False
        self._threads: list[threading.Thread] = []
        self._in = listen_socket(proto, listen_addr)
        self.listen_addr = self._in.getsockname()
        self._kernel_stamps = False
        if proto == UDP and sys.platform.startswith("linux"):
            try:
                self._in.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
                self._kernel_stamps = True
            except OSError:
                pass

    def start(self) -> "Relay":
        self._running = True
        ingress = self._ingress_udp if self.proto == UDP else self._ingress_tcp
        egress = self._egress_udp if self.proto == UDP else self._egress_tcp
        for target in (ingress, egress):
            t = threading.Thread(target=target, daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        self._running = False
        for t in self._threads:
            t.join()
        self._threads.clear()
        self._in.close()

    def __enter__(self) -> "Relay":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def queue_len(self) -> int:
        with self._lock:
            return len(self._queue)

    def drained(self) -> bool:
        return self.queue_len() == 0

    # -- ingress -------------------------------------------------------------

    def _full(self, arrival_ns: int) -> bool:
        """Whether an arrival at arrival_ns finds every slot taken: capacity
        packets wait behind the one in service. A packet departing at the
        arrival instant has left."""
        deps = self._departures
        return self.capacity is not None and len(deps) == deps.maxlen and deps[0] > arrival_ns

    def _admit(self, record: bytes, arrival_ns: int) -> None:
        deps = self._departures
        departure = max(arrival_ns, deps[-1] if deps else arrival_ns) + self._interval_ns
        deps.append(departure)
        with self._lock:
            self._queue.append((arrival_ns, departure, record))

    def _enqueue(self, record: bytes, arrival_ns: int) -> bool:
        if self._full(arrival_ns):
            self.log.dropped += 1
            return False
        self._admit(record, arrival_ns)
        return True

    def _enqueue_blocking(self, record: bytes) -> None:
        """Wait for queue space instead of dropping (reliable-transport path)."""
        while self._running:
            now = time.monotonic_ns()
            if not self._full(now):
                self._admit(record, now)
                return
            time.sleep(0.0005)

    def _ingress_udp(self) -> None:
        space = socket.CMSG_SPACE(_TIMESPEC.size)
        while self._running:
            try:
                if self._kernel_stamps:
                    data, anc, _, _ = self._in.recvmsg(65535, space)
                else:
                    data, anc = self._in.recv(65535), ()
            except socket.timeout:
                continue
            except OSError:
                break
            arrival = time.monotonic_ns()
            for level, kind, raw in anc:
                if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                    sec, nsec = _TIMESPEC.unpack(raw)
                    # wall-clock kernel stamp -> monotonic timebase, at read time
                    arrival = sec * 1_000_000_000 + nsec + arrival - time.time_ns()
            self._enqueue(data, arrival)

    def _ingress_tcp(self) -> None:
        while self._running:
            try:
                conn, _ = self._in.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(0.2)
            reader = FrameReader()
            with conn:
                while self._running:
                    if self._full(time.monotonic_ns()):
                        # full queue: stop reading; TCP flow control blocks
                        # the sender instead of dropping
                        time.sleep(0.0005)
                        continue
                    try:
                        chunk = conn.recv(1 << 16)
                    except socket.timeout:
                        continue
                    except OSError:
                        break
                    if not chunk:
                        return
                    # one chunk may carry many frames: block per record so
                    # nothing is dropped even past the pre-read capacity check
                    for record in reader.feed(chunk):
                        self._enqueue_blocking(record)

    # -- egress --------------------------------------------------------------

    def _serve(self, send) -> None:
        """Send each admitted packet at its scheduled departure; a late
        egress thread sends what is due back to back."""
        while True:
            with self._lock:
                item = self._queue.popleft() if self._queue else None
            if item is None:
                if not self._running:
                    return
                time.sleep(0.0005)
                continue
            arrival, departure, record = item
            while True:
                wait_ns = departure - time.monotonic_ns()
                if wait_ns <= 0:
                    break
                time.sleep(min(wait_ns / 1e9, 0.0005))
            try:
                send(record)
            except OSError:
                return
            self.log.forwarded += 1
            self.log.queue_delays_s.append((departure - arrival) / 1e9)

    def _egress_udp(self) -> None:
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        out.connect(self.forward_addr)
        try:
            self._serve(out.send)
        finally:
            out.close()

    def _egress_tcp(self) -> None:
        out = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        out.settimeout(5.0)
        try:
            out.connect(self.forward_addr)
        except OSError:
            out.close()
            return
        out.settimeout(None)
        out.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self._serve(lambda rec: out.sendall(frame(rec)))
        finally:
            out.close()
