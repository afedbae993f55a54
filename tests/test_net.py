"""Loopback integration tests for the sender/receiver/relay/probe stack."""

import socket
import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

from aoikit import Trace
from aoikit.net import (
    FULL_RTT,
    HALF_RTT,
    ProbeError,
    RateStep,
    Receiver,
    Reflector,
    Relay,
    combine_stamps,
    encode_update,
    estimate_offset,
    parse_rate_plan,
    run_sender,
)
from aoikit.net import sender, transport
from aoikit.queuesim import fcfs_departures

LOCAL = ("127.0.0.1", 0)
MS = 10**6


def wait_for(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.01)
    return pred()


class TestRatePlan:
    def test_parse(self):
        plan = parse_rate_plan("100:300:100:2")
        assert [s.rate for s in plan] == [100.0, 200.0, 300.0]
        assert all(s.duration_s == 2.0 for s in plan)

    def test_parse_rejects(self):
        for bad in ("100:300:100", "0:300:100:2", "300:100:100:2", "a:b:c:d"):
            with pytest.raises(ValueError):
                parse_rate_plan(bad)


@pytest.mark.parametrize("proto", ["udp", "tcp"])
class TestSenderReceiver:
    def test_loopback_delivery(self, proto):
        with Receiver(LOCAL, proto=proto) as rx:
            log = run_sender(rx.local_addr, proto, [RateStep(200.0, 1.0)])
            assert wait_for(lambda: rx.counters.received >= log.total_sent)
            recs = rx.records()
        assert log.total_sent == 200
        assert not log.steps[0].shortfall
        assert [r.seq for r in recs] == list(range(200))
        # loopback delay: non-negative, small
        for r in recs:
            assert 0 <= r.recv_ns - r.gen_ns < 500 * MS

    def test_trace_and_statistics(self, proto):
        with Receiver(LOCAL, proto=proto) as rx:
            run_sender(rx.local_addr, proto, [RateStep(500.0, 0.5)])
            assert wait_for(lambda: rx.counters.received >= 200)
            tr = rx.trace()
            stats = rx.statistics()
        assert isinstance(tr, Trace)
        assert stats is not None
        # steady 500/s stream: average age near 1/rate + delay, well under 50ms
        assert 0 < stats.avg_age < 0.05
        assert stats.peak_age >= stats.avg_age


class JumpingTime:
    """Stands in for the time module inside the sender and for its clock:
    from the (at+1)-th monotonic() reading on, time reads jump_s ahead, as if
    the thread had been descheduled that long."""

    sleep = staticmethod(time.sleep)

    def __init__(self, at: int, jump_s: float):
        self.at, self.jump_s, self.calls = at, jump_s, 0

    def monotonic(self) -> float:
        self.calls += 1
        return time.monotonic() + (self.jump_s if self.calls > self.at else 0.0)

    def now_ns(self) -> int:
        jump = self.jump_s if self.calls > self.at else 0.0
        return round((time.monotonic() + jump) * 1e9)


def test_catch_up_after_a_stall_is_paced(monkeypatch):
    # a 50 ms stall at 200/s misses 10 slots: they are made up within the
    # step at CATCH_UP (1.5) times the rate, 3.3 ms apart, with at most two
    # back to back (one packet of lag is tolerated at this rate)
    fake = JumpingTime(at=100, jump_s=0.05)
    monkeypatch.setattr(sender, "time", fake)
    with Receiver(LOCAL, proto="udp") as rx:
        log = run_sender(rx.local_addr, "udp", [RateStep(200.0, 0.5)], clock=fake)
        wait_for(lambda: rx.counters.received >= log.total_sent)
        gen = [r.gen_ns for r in sorted(rx.records(), key=lambda r: r.seq)]
    assert log.total_sent >= 95  # without catch-up: 90
    # any three consecutive packets span at least 3.3 ms (checked with 0.8 ms
    # of slack); back to back, the ten made-up slots would span microseconds
    gen = np.array(gen)
    assert np.diff(gen).max() >= 50 * MS
    assert (gen[2:] - gen[:-2]).min() > 2.5 * MS


class TestReceiverRobustness:
    def test_malformed_counted(self):
        with Receiver(LOCAL, proto="udp") as rx:
            tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            tx.sendto(b"garbage", rx.local_addr)
            tx.sendto(b"XXXX" + bytes(17), rx.local_addr)
            tx.sendto(encode_update(0, 1), rx.local_addr)
            tx.close()
            assert wait_for(lambda: rx.counters.received == 1)
            assert wait_for(lambda: rx.counters.malformed == 2)
        assert len(rx.records()) == 1

    def test_offset_applied_to_stamp(self):
        with Receiver(LOCAL, proto="udp", offset_ns=50 * MS) as rx_corr, \
             Receiver(LOCAL, proto="udp") as rx_raw:
            tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            pkt = encode_update(0, 0)
            tx.sendto(pkt, rx_corr.local_addr)
            tx.sendto(pkt, rx_raw.local_addr)
            tx.close()
            assert wait_for(lambda: rx_corr.records() and rx_raw.records())
            corr = rx_corr.records()[0].recv_ns
            raw = rx_raw.records()[0].recv_ns
        assert raw - corr == pytest.approx(50 * MS, abs=20 * MS)


class TestRelay:
    def test_udp_forwarding_no_loss_below_capacity(self):
        with Receiver(LOCAL, proto="udp") as rx:
            with Relay(LOCAL, rx.local_addr, service_rate=2000.0, proto="udp") as relay:
                run_sender(relay.listen_addr, "udp", [RateStep(200.0, 0.5)])
                assert wait_for(relay.drained)
                assert wait_for(lambda: rx.counters.received >= relay.log.forwarded)
            assert relay.log.dropped == 0
            seqs = [r.seq for r in rx.records()]
        assert seqs == list(range(len(seqs)))
        assert len(seqs) >= 90  # loopback UDP may still lose the odd packet

    def test_udp_overload_drops_and_queue_delay(self):
        with Receiver(LOCAL, proto="udp") as rx:
            with Relay(
                LOCAL, rx.local_addr, service_rate=200.0, queue_capacity=20, proto="udp"
            ) as relay:
                log = run_sender(relay.listen_addr, "udp", [RateStep(1000.0, 1.0)])
                assert wait_for(relay.drained, timeout=10)
            assert relay.log.dropped > 0
            assert relay.log.forwarded + relay.log.dropped == log.total_sent
            # full queue of 20 at 200/s holds packets for ~100 ms
            assert max(relay.log.queue_delays_s) > 0.05
            seqs = sorted(r.seq for r in rx.records())
        assert any(b - a > 1 for a, b in zip(seqs, seqs[1:]))

    @pytest.mark.parametrize("cap", [0, 1, 10, None])
    def test_admission_follows_arrival_instants(self, cap):
        # drops and departures follow from the arrival instants alone, by the
        # simulator's tail-drop rule (a departure tying an arrival has left);
        # the relay is never started, so no egress progress is involved
        rng = np.random.default_rng(7)
        arr = np.cumsum(rng.integers(0, 4, 3000)) * (MS // 2)
        relay = Relay(LOCAL, LOCAL, service_rate=1000.0, queue_capacity=cap)
        try:
            admitted = [relay._enqueue(b"x", t) for t in arr.tolist()]
            departures = [d for _, d, _ in relay._queue]
        finally:
            relay.stop()
        idx, deps = fcfs_departures(arr, np.full(len(arr), MS), cap)
        assert np.flatnonzero(admitted).tolist() == idx.tolist()
        assert departures == deps.tolist()
        assert relay.log.dropped == len(arr) - len(idx)
        assert (cap is None) == (relay.log.dropped == 0)

    def test_tcp_backpressure_no_gaps(self):
        with Receiver(LOCAL, proto="tcp") as rx:
            with Relay(
                LOCAL, rx.local_addr, service_rate=300.0, queue_capacity=20, proto="tcp"
            ) as relay:
                log = run_sender(relay.listen_addr, "tcp", [RateStep(1500.0, 1.0)])
                assert wait_for(relay.drained, timeout=15)
                assert wait_for(lambda: rx.counters.received >= relay.log.forwarded)
            assert relay.log.dropped == 0
            seqs = [r.seq for r in rx.records()]
        # reliable path: every sequence number arrives, in order
        assert seqs == list(range(log.total_sent))

    def test_tcp_ingress_serves_senders_in_sequence(self):
        # the ingress goes back to accept after a sender closes, or resets
        # midway through a frame, so later senders are forwarded too
        with Receiver(LOCAL, proto="tcp") as rx:
            with Relay(LOCAL, rx.local_addr, service_rate=2000.0, proto="tcp") as relay:
                first = run_sender(relay.listen_addr, "tcp", [RateStep(200.0, 0.3)])
                reset = socket.create_connection(relay.listen_addr)
                reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                reset.sendall(b"\x00")
                reset.close()
                second = run_sender(relay.listen_addr, "tcp", [RateStep(200.0, 0.3)])
                sent = first.total_sent + second.total_sent
                assert wait_for(lambda: rx.counters.received >= sent)
            assert second.total_sent > 0
            assert relay.log.forwarded == sent
        assert rx.counters.received == sent


class FakeDatagrams:
    """A UDP socket that delivers the given (data, kernel wall-clock ns or
    None) datagrams, then reports itself closed."""

    def __init__(self, datagrams):
        self.datagrams = list(datagrams)

    def recvmsg(self, bufsize, ancbufsize):
        if not self.datagrams:
            raise OSError("closed")
        data, kernel_ns = self.datagrams.pop(0)
        anc = []
        if kernel_ns is not None:
            sec, nsec = divmod(kernel_ns, 10**9)
            anc.append((socket.SOL_SOCKET, transport.SO_TIMESTAMPNS, struct.pack("@ll", sec, nsec)))
        return data, anc, 0, ("127.0.0.1", 9)


def test_kernel_stamp_is_never_early(monkeypatch):
    # one true time advances by TICK on every read of either clock; the wall
    # clock reads WALL ahead of the caller's. Time passing between the two
    # reads that map a kernel stamp may make the stamp late, never early.
    TICK, WALL = 1000, 1_700_000_000 * 10**9
    true_ns = [0]

    def read(offset):
        true_ns[0] += TICK
        return true_ns[0] + offset

    monkeypatch.setattr(transport, "time", SimpleNamespace(time_ns=lambda: read(WALL)))
    arrivals = [50, 7 * TICK, 9 * TICK + 1]  # true ns at which the kernel got each datagram
    sock = FakeDatagrams([(b"x", WALL + a) for a in arrivals] + [(b"y", None)])
    out = list(transport.intake(sock, "udp", lambda: read(0), lambda: True))
    stamps = [stamp for _, stamp, _ in out]
    assert [d for d, _, _ in out] == [b"x"] * 3 + [b"y"]
    assert all(0 <= s - a <= TICK for s, a in zip(stamps, arrivals))
    # without a kernel stamp the datagram is stamped when it is read
    assert stamps[-1] == true_ns[0]


class TestOffsetEstimation:
    def test_combine_stamps_worked_example(self):
        # send at 100, reflected stamp 650, arrival 200: rtt 100,
        # half-rtt estimate 650 - 150 = 500
        bias, rtt = combine_stamps(100, 650, 200)
        assert (bias, rtt) == (500, 100)
        bias_full, _ = combine_stamps(100, 650, 200, mode=FULL_RTT)
        assert bias_full == 450

    def test_combine_stamps_bad_mode(self):
        with pytest.raises(ValueError):
            combine_stamps(0, 0, 0, mode="thirds")

    def test_loopback_estimate_recovers_injected_bias(self):
        injected = 1 * MS
        with Reflector(LOCAL, bias_ns=injected) as refl:
            est = estimate_offset(refl.local_addr, probe_count=20)
        assert est.probes_used >= 1
        assert est.min_rtt_ns > 0
        # symmetric loopback: error is bounded by the measured rtt
        assert abs(est.bias_ns - injected) <= est.min_rtt_ns

    def test_estimate_to_model(self):
        with Reflector(LOCAL) as refl:
            est = estimate_offset(refl.local_addr, probe_count=5, mode=HALF_RTT)
        model = est.to_model()
        assert model.bias_ns == est.bias_ns
        assert model.probe_count == est.probes_used

    def test_no_reflector_raises(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(LOCAL)
        dead_addr = sock.getsockname()
        sock.close()
        with pytest.raises(ProbeError, match="no probes returned"):
            estimate_offset(dead_addr, probe_count=2, timeout_s=0.1)
