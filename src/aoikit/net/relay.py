"""In-path impairment relay: a FCFS queue drained at a fixed service rate.

UDP mode tail-drops arrivals beyond the queue capacity, which reproduces a
congested best-effort hop. TCP mode never drops: when the queue is full the
relay stops reading its ingress socket, so flow control pushes back on the
sender instead, matching reliable-transport behavior.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .sender import UDP, listen_socket
from .wire import FrameReader, frame


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
        self.capacity = queue_capacity
        self.log = RelayLog()
        self._queue: deque[tuple[float, bytes]] = deque()  # (enqueue time, record)
        self._lock = threading.Lock()
        self._running = False
        self._threads: list[threading.Thread] = []
        self._in = listen_socket(proto, listen_addr)
        self.listen_addr = self._in.getsockname()

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

    def _enqueue(self, record: bytes) -> bool:
        with self._lock:
            if self.capacity is not None and len(self._queue) >= self.capacity:
                self.log.dropped += 1
                return False
            self._queue.append((time.monotonic(), record))
            return True

    def _enqueue_blocking(self, record: bytes) -> None:
        """Wait for queue space instead of dropping (reliable-transport path)."""
        while self._running:
            with self._lock:
                if self.capacity is None or len(self._queue) < self.capacity:
                    self._queue.append((time.monotonic(), record))
                    return
            time.sleep(0.0005)

    def _ingress_udp(self) -> None:
        while self._running:
            try:
                data, _ = self._in.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            self._enqueue(data)

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
                    if (
                        self.capacity is not None
                        and self.queue_len() >= self.capacity
                    ):
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
        """Drain the queue at the service rate: the packet at the head leaves
        one service interval after the server becomes free."""
        server_free = time.monotonic()
        while True:
            with self._lock:
                item = self._queue.popleft() if self._queue else None
            if item is None:
                if not self._running:
                    return
                time.sleep(0.0005)
                continue
            enq, record = item
            departure = max(server_free, enq) + self.interval
            while True:
                now = time.monotonic()
                if now >= departure:
                    break
                time.sleep(min(departure - now, 0.0005))
            try:
                send(record)
            except OSError:
                return
            self.log.forwarded += 1
            self.log.queue_delays_s.append(departure - enq)
            server_free = departure

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
