"""Transport for the live roles: every socket of the harness is opened, read
and served here, so sender, receiver, relay and reflector read, stamp and
send packets the same way on every transport.

Stamping rules of :func:`intake`:

* UDP: a datagram carries the kernel's receive instant when the socket
  delivers one (``SO_TIMESTAMPNS``, which the caller turns on). It is mapped
  from the wall clock into the caller's timebase as
  ``kernel_ns - time.time_ns() + now_ns()``, evaluated left to right: the
  wall clock is read first, so a delay between the two reads makes the stamp
  late, never early. Without a kernel stamp, the stamp is ``now_ns()`` when
  the datagram is read.
* TCP: each ``recv`` chunk is stamped once, with ``now_ns()`` when it is
  read, and every frame of that chunk shares the stamp. A frame that reached
  the kernel before the chunk's last bytes is therefore stamped late by up to
  the time the chunk took to fill.
* Sockets are read only while the caller asks for the next record. A caller
  that blocks between records stops the reads, so on TCP flow control pushes
  back on the sender.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Callable, Iterator

from .wire import FrameReader, frame

UDP = "udp"
TCP = "tcp"
# Linux socket option for nanosecond kernel receive stamps (a struct timespec
# in ancillary data); the socket module does not name it before Python 3.12.
SO_TIMESTAMPNS = getattr(socket, "SO_TIMESTAMPNS", 35)
_TIMESPEC = struct.Struct("@ll")
_STAMP_SPACE = socket.CMSG_SPACE(_TIMESPEC.size)
_POLL_S = 0.2  # intake sockets time out this often to check running()


def _check(proto: str) -> None:
    if proto not in (UDP, TCP):
        raise ValueError(f"unknown proto {proto!r}")


def listen_socket(proto: str, bind_addr: tuple[str, int]) -> socket.socket:
    """Bound intake socket that times out every _POLL_S: UDP with a large
    receive buffer, or a listening TCP socket."""
    _check(proto)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM if proto == UDP else socket.SOCK_STREAM)
    if proto == UDP:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 23)
    else:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(bind_addr)
    if proto == TCP:
        sock.listen(1)
    sock.settimeout(_POLL_S)
    return sock


def connect(proto: str, addr: tuple[str, int], timeout: float = 5.0) -> tuple[socket.socket, Callable[[bytes], None]]:
    """A socket connected to addr and the function that sends one record on
    it: a UDP socket with a large send buffer, one datagram per record; or a
    TCP socket (connect timeout in s, then blocking, TCP_NODELAY), one frame
    per record. Raises OSError if the connect fails."""
    _check(proto)
    if proto == UDP:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 22)
            sock.connect(addr)
        except OSError:
            sock.close()
            raise
        return sock, sock.send
    sock = socket.create_connection(addr, timeout)
    sock.settimeout(None)
    # one update per segment at low rates: disable small-write coalescing
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, lambda record: sock.sendall(frame(record))


def _datagram_stamp(anc, now_ns: Callable[[], int]) -> int:
    for level, kind, raw in anc:
        if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
            sec, nsec = _TIMESPEC.unpack(raw)
            # keep this order: the wall clock must be read before now_ns()
            return sec * 1_000_000_000 + nsec - time.time_ns() + now_ns()
    return now_ns()


def intake(
    sock: socket.socket, proto: str, now_ns: Callable[[], int], running: Callable[[], bool]
) -> Iterator[tuple[bytes, int, object]]:
    """(record, stamp, peer) for every record read from a listen_socket, until
    running() is false or the socket is closed. TCP takes one sender at a
    time and goes back to accept after it closes or resets."""
    _check(proto)
    if proto == UDP:
        while running():
            try:
                data, anc, _, peer = sock.recvmsg(65535, _STAMP_SPACE)
            except socket.timeout:
                continue
            except OSError:
                return
            yield data, _datagram_stamp(anc, now_ns), peer
        return
    while running():
        try:
            conn, peer = sock.accept()
        except socket.timeout:
            continue
        except OSError:
            return
        conn.settimeout(_POLL_S)
        reader = FrameReader()
        with conn:
            while running():
                try:
                    chunk = conn.recv(1 << 16)
                except socket.timeout:
                    continue
                except OSError:
                    break  # reset
                if not chunk:
                    break  # orderly close
                stamp = now_ns()
                for record in reader.feed(chunk):
                    yield record, stamp, peer


class Service:
    """A live role that owns one socket and runs its loops in daemon threads:
    ``start`` runs each method named in ``loops`` in a thread of its own,
    ``stop`` ends them and closes the socket."""

    loops: tuple[str, ...] = ()
    _running = False
    _threads: tuple[threading.Thread, ...] = ()

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def running(self) -> bool:
        return self._running

    def start(self):
        self._running = True
        self._threads = tuple(threading.Thread(target=getattr(self, name), daemon=True) for name in self.loops)
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        self._running = False
        for t in self._threads:
            t.join()
        self._threads = ()
        self._sock.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
