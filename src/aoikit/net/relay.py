"""In-path impairment relay: a FCFS queue drained at a fixed service rate.

UDP mode tail-drops arrivals beyond the queue capacity, which reproduces a
congested best-effort hop. TCP mode never drops: when the queue is full the
relay waits before admitting the next record and so stops reading its
ingress socket, and flow control pushes back on the sender instead, matching
reliable-transport behavior.

The queue is kept as a schedule. Each admitted packet gets its departure from
its arrival alone, ``d = max(arrival, previous d) + 1/service_rate``, and the
egress thread sends it at ``d``. Whether the buffer is full is decided from
those departures, not from how far the egress thread has got, and on Linux a
UDP arrival is the kernel's receive stamp, not the moment the ingress thread
read it. So a descheduled relay thread delays packets but does not turn
isolated drops into runs.

The egress thread waits for each departure, and a full TCP relay for the
departure that frees a slot, with :func:`~aoikit.net.clock.pause` under
:func:`~aoikit.net.clock.fine_timer_slack`: a sleep with 1 µs timer slack that
ends 20 µs (``SPIN_NS``) before the instant, then a spin. No packet leaves
before its departure. The spin costs at most 20 µs of CPU per departure, 2 %
of a core at a service rate of 1000/s.
"""

from __future__ import annotations

import contextlib
import socket
import sys
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .clock import fine_timer_slack, pause
from .transport import SO_TIMESTAMPNS, UDP, Service, connect, intake, listen_socket


@dataclass
class RelayLog:
    forwarded: int = 0
    dropped: int = 0
    queue_delays_s: array = field(default_factory=lambda: array("d"))
    error: Optional[str] = None  # why forwarding stopped


class Relay(Service):
    """Forward packets listen_addr -> forward_addr through a rate-limited
    FCFS queue."""

    loops = ("_ingress", "_egress")

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
        self._interval_ns = round(1e9 / service_rate)
        self.capacity = queue_capacity
        self.log = RelayLog()
        # departures of the last capacity+1 admitted packets (ingress only):
        # the buffer is full while the oldest of them is still ahead
        self._departures: deque[int] = deque(maxlen=1 if queue_capacity is None else queue_capacity + 1)
        # admitted packets awaiting egress: (arrival ns, departure ns, record)
        self._queue: deque[tuple[int, int, bytes]] = deque()
        self._lock = threading.Lock()
        super().__init__(listen_socket(proto, listen_addr))
        self.listen_addr = self._sock.getsockname()
        if proto == UDP and sys.platform.startswith("linux"):
            with contextlib.suppress(OSError):
                self._sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)

    def drained(self) -> bool:
        """Nothing is left to forward: the queue is empty or forwarding failed."""
        with self._lock:
            return not self._queue or self.log.error is not None

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

    def _enqueue_blocking(self, record: bytes, arrival_ns: int) -> None:
        """Wait for queue space instead of dropping (reliable-transport path):
        until the oldest tracked departure, which frees a slot. While it waits
        the ingress socket is not read; once stopped it admits nothing into a
        full queue."""
        now = time.monotonic_ns()
        if self._full(now):
            if not self._running:
                return
            pause(self._departures[0] - now)
        self._admit(record, arrival_ns)

    def _ingress(self) -> None:
        admit = self._enqueue if self.proto == UDP else self._enqueue_blocking
        with fine_timer_slack():
            for record, arrival_ns, _ in intake(self._sock, self.proto, time.monotonic_ns, self.running):
                if self.log.error is not None:
                    return  # ending intake closes a TCP sender's connection
                admit(record, arrival_ns)

    # -- egress --------------------------------------------------------------

    def _serve(self, send) -> None:
        """Send each admitted packet at its scheduled departure, never
        before it; a late egress thread sends what is due back to back."""
        while True:
            with self._lock:
                item = self._queue.popleft() if self._queue else None
            if item is None:
                if not self._running:
                    return
                time.sleep(0.0005)
                continue
            arrival, departure, record = item
            pause(departure - time.monotonic_ns())
            send(record)
            self.log.forwarded += 1
            self.log.queue_delays_s.append((departure - arrival) / 1e9)

    def _egress(self) -> None:
        """Forward until stopped; if the forward address cannot be reached,
        record why, so the ingress admits nothing more."""
        try:
            out, send = connect(self.proto, self.forward_addr)
            with out, fine_timer_slack():
                self._serve(send)
        except OSError as exc:
            self.log.error = f"forwarding to {self.forward_addr} failed: {exc}"
