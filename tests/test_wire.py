import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoikit.net import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    MIN_PAYLOAD,
    PT_PROBE,
    PT_PROBE_ECHO,
    PT_UPDATE,
    FrameReader,
    WireError,
    decode,
    encode_probe,
    encode_probe_echo,
    encode_update,
    frame,
)

U64 = st.integers(0, 2**64 - 1)


class TestGoldenBytes:
    def test_update_layout(self):
        data = encode_update(seq=1, gen_ns=2, payload_size=24)
        assert data[:4] == b"AOI1"
        assert data[4] == PT_UPDATE
        assert data[5:13] == (1).to_bytes(8, "big")
        assert data[13:21] == (2).to_bytes(8, "big")
        assert data[21:] == b"\x00\x00\x00"
        assert len(data) == 24

    def test_probe_echo_layout(self):
        data = encode_probe_echo(seq=7, gen_ns=100, reflector_recv_ns=650)
        assert len(data) == 29
        assert data[4] == PT_PROBE_ECHO
        assert data[21:29] == (650).to_bytes(8, "big")

    def test_frame_prefix(self):
        rec = encode_probe(0, 0)
        framed = frame(rec)
        assert framed[:2] == len(rec).to_bytes(2, "big")
        assert framed[2:] == rec


class TestRoundTrip:
    @given(seq=U64, gen=U64, pad=st.integers(0, 200))
    def test_update_round_trip(self, seq, gen, pad):
        pkt = decode(encode_update(seq, gen, MIN_PAYLOAD + pad))
        assert (pkt.ptype, pkt.seq, pkt.gen_ns) == (PT_UPDATE, seq, gen)
        assert pkt.reflector_recv_ns is None

    @given(seq=U64, gen=U64)
    def test_probe_round_trip(self, seq, gen):
        pkt = decode(encode_probe(seq, gen))
        assert (pkt.ptype, pkt.seq, pkt.gen_ns) == (PT_PROBE, seq, gen)

    @given(seq=U64, gen=U64, refl=U64)
    def test_echo_round_trip(self, seq, gen, refl):
        pkt = decode(encode_probe_echo(seq, gen, refl))
        assert pkt.reflector_recv_ns == refl


class TestMalformed:
    def test_bad_magic(self):
        data = b"XXXX" + encode_update(0, 0)[4:]
        with pytest.raises(WireError, match="magic"):
            decode(data)

    def test_truncated(self):
        with pytest.raises(WireError):
            decode(encode_update(0, 0)[: HEADER_SIZE - 1])

    def test_truncated_echo(self):
        with pytest.raises(WireError):
            decode(encode_probe_echo(0, 0, 0)[:-1])

    def test_unknown_ptype(self):
        data = bytearray(encode_update(0, 0))
        data[4] = 99
        with pytest.raises(WireError, match="ptype"):
            decode(bytes(data))

    @pytest.mark.parametrize("seq, gen", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_update_field_out_of_u64(self, seq, gen):
        with pytest.raises(WireError, match="u64"):
            encode_update(seq, gen)

    @pytest.mark.parametrize("seq, gen", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_probe_field_out_of_u64(self, seq, gen):
        with pytest.raises(WireError, match="u64"):
            encode_probe(seq, gen)

    @pytest.mark.parametrize("seq, gen, refl", [(-1, 0, 0), (0, 2**64, 0), (0, 0, -1), (0, 0, 2**64)])
    def test_probe_echo_field_out_of_u64(self, seq, gen, refl):
        with pytest.raises(WireError, match="u64"):
            encode_probe_echo(seq, gen, refl)

    def test_payload_bounds(self):
        with pytest.raises(WireError):
            encode_update(0, 0, payload_size=HEADER_SIZE - 1)
        with pytest.raises(WireError):
            encode_update(0, 0, payload_size=MAX_PAYLOAD + 1)


class TestFrameReader:
    def test_byte_at_a_time(self):
        records = [encode_update(i, i * 10) for i in range(3)]
        stream = b"".join(frame(r) for r in records)
        reader = FrameReader()
        seen = []
        for i in range(len(stream)):
            seen.extend(reader.feed(stream[i : i + 1]))
        assert seen == records
        assert reader.pending == 0

    def test_single_feed(self):
        records = [encode_update(i, 0, 64) for i in range(5)]
        reader = FrameReader()
        assert reader.feed(b"".join(frame(r) for r in records)) == records

    @given(st.lists(st.binary(min_size=1, max_size=100), min_size=1, max_size=10),
           st.integers(1, 7))
    def test_arbitrary_chunking(self, records, chunk):
        stream = b"".join(frame(r) for r in records)
        reader = FrameReader()
        seen = []
        for i in range(0, len(stream), chunk):
            seen.extend(reader.feed(stream[i : i + chunk]))
        assert seen == records
