import dataclasses
import io

import numpy as np
import pytest

from aoikit import (
    Trace,
    TraceError,
    UpdateRecord,
    effective_trace,
    read_trace_csv,
    write_trace_csv,
)
from aoikit.trace import RecordRows, record_columns


def make(gen_recv, **kw):
    return Trace.from_seconds(gen_recv, **kw)


class TestEffectiveTrace:
    def test_out_of_order_generation_discarded(self):
        tr = make([(0, 1), (2, 3), (1, 3.5)], initial_age=1.0, observe_start=0)
        eff = effective_trace(tr)
        assert [(r.gen_ns, r.recv_ns) for r in eff.records] == [
            (0, 10**9),
            (2 * 10**9, 3 * 10**9),
        ]
        assert eff.n_stale_discarded == 1

    def test_monotone_trace_unchanged(self):
        tr = make([(0, 1), (1, 2), (2, 3)], initial_age=1.0, observe_start=0)
        eff = effective_trace(tr)
        assert eff.records == tr.records
        assert eff.n_stale_discarded == 0

    def test_equal_gen_time_discarded(self):
        tr = make([(0, 1), (0, 2)], initial_age=1.0, observe_start=0)
        eff = effective_trace(tr)
        assert len(eff.records) == 1
        assert eff.n_stale_discarded == 1

    def test_empty_trace_is_valid(self):
        tr = Trace(records=(), observe_start_ns=0, observe_end_ns=10)
        eff = effective_trace(tr)
        assert len(eff) == 0


class TestInvariants:
    def test_unsorted_recv_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                records=(
                    UpdateRecord(0, 0, 5),
                    UpdateRecord(1, 1, 4),
                ),
                observe_end_ns=5,
            )

    def test_window_must_cover_records(self):
        with pytest.raises(TraceError):
            Trace(records=(UpdateRecord(0, 0, 5),), observe_start_ns=6, observe_end_ns=10)
        with pytest.raises(TraceError):
            Trace(records=(UpdateRecord(0, 0, 5),), observe_start_ns=0, observe_end_ns=4)

    def test_virtual_origin(self):
        tr = make([(0, 1)], initial_age=1.0, observe_start=0)
        origin = tr.virtual_origin
        assert origin.gen_ns == -(10**9)
        assert origin.recv_ns == 0


class TestCsvRoundTrip:
    def test_round_trip(self):
        tr = make([(0, 1), (2, 3)], initial_age=1.0, observe_start=0, observe_end=4)
        buf = io.StringIO()
        write_trace_csv(tr, buf, clock_bias_ns=42)
        back = read_trace_csv(io.StringIO(buf.getvalue()))
        assert back == tr

    def test_parse_error_carries_line_number(self):
        text = "seq,gen_ns,recv_ns\n0,1,2\nbad,line\n"
        with pytest.raises(TraceError, match="line 3"):
            read_trace_csv(io.StringIO(text))

    def test_empty_file_rejected(self):
        with pytest.raises(TraceError):
            read_trace_csv(io.StringIO(""))

    def test_bad_header_rejected(self):
        with pytest.raises(TraceError, match="header"):
            read_trace_csv(io.StringIO("a,b,c\n"))


def parse(text):
    return read_trace_csv(io.StringIO(text))


def rows(trace):
    return [(r.seq, r.gen_ns, r.recv_ns) for r in trace.records]


class TestBulkParse:
    def test_blank_and_comment_lines_in_body(self):
        tr = parse("seq,gen_ns,recv_ns\n0,1,2\n\n   \n# a note\n  # indented note\n1,3,4\n\n")
        assert rows(tr) == [(0, 1, 2), (1, 3, 4)]

    def test_metadata_honoured_anywhere(self):
        text = (
            "# initial_age_ns=7\n\nseq,gen_ns,recv_ns\n0,1,2\n"
            "# observe_end_ns = 50\n1,3,4\n#observe_start_ns=1\n# unknown_key=x\n"
        )
        tr = parse(text)
        assert (tr.initial_age_ns, tr.observe_start_ns, tr.observe_end_ns) == (7, 1, 50)
        assert rows(tr) == [(0, 1, 2), (1, 3, 4)]

    def test_bad_metadata_in_body_carries_line_number(self):
        with pytest.raises(TraceError, match="line 4: bad metadata"):
            parse("seq,gen_ns,recv_ns\n0,1,2\n\n# observe_end_ns=soon\n")

    def test_whitespace_and_plus_sign(self):
        tr = parse("  seq,gen_ns,recv_ns  \n +0 ,\t1, +2\t\n\t1,+3 ,4  \n")
        assert rows(tr) == [(0, 1, 2), (1, 3, 4)]

    def test_rows_sorted_by_recv_then_seq(self):
        tr = parse("seq,gen_ns,recv_ns\n5,3,9\n2,1,4\n1,0,4\n")
        assert rows(tr) == [(1, 0, 4), (2, 1, 4), (5, 3, 9)]

    def test_int64_extremes_accepted(self):
        tr = parse(f"seq,gen_ns,recv_ns\n0,{-(2**63)},{2**63 - 1}\n")
        assert rows(tr) == [(0, -(2**63), 2**63 - 1)]

    @pytest.mark.parametrize("row, fields", [("1,2", 2), ("1,2,3,4", 4)])
    def test_wrong_field_count_in_mixed_body(self, row, fields):
        with pytest.raises(TraceError, match=f"line 4: expected 3 fields, got {fields}"):
            parse(f"seq,gen_ns,recv_ns\n0,1,2\n\n{row}\n5,6,7\n")

    @pytest.mark.parametrize("row, fields", [("1,2", 2), ("1,2,3,4", 4)])
    def test_wrong_field_count_in_uniform_body(self, row, fields):
        # a body of uniform width loads in bulk; its width is still checked
        with pytest.raises(TraceError, match=f"line 3: expected 3 fields, got {fields}"):
            parse(f"# initial_age_ns=0\nseq,gen_ns,recv_ns\n{row}\n{row}\n")

    def test_non_integer_deep_in_body(self):
        body = "".join(f"{i},{i},{i}\n" for i in range(99_998))
        with pytest.raises(TraceError, match="line 100000: .*'99998,1.5,99998'"):
            parse("seq,gen_ns,recv_ns\n" + body + "99998,1.5,99998\n1,1,1\n")

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**30])
    def test_value_outside_int64(self, value):
        with pytest.raises(TraceError, match="line 3: .*int64"):
            parse(f"seq,gen_ns,recv_ns\n0,1,2\n1,{value},3\n")

    @pytest.mark.parametrize("row", ["1,2,3 # note", "1,,3", "1,2,0x10", "1,2,1_000"])
    def test_rejected_fields(self, row):
        with pytest.raises(TraceError, match="line 2"):
            parse(f"seq,gen_ns,recv_ns\n{row}\n")


class TestColumns:
    def test_records_view_round_trip(self):
        tr = make([(0, 1), (2, 3)], initial_age=1.0, observe_start=0)
        again = Trace(records=tr.records, initial_age_ns=tr.initial_age_ns,
                      observe_start_ns=tr.observe_start_ns, observe_end_ns=tr.observe_end_ns)
        assert again == tr
        assert tr.gen_ns.dtype == np.int64 and tr.seq.tolist() == [0, 1]

    def test_replace_keeps_columns(self):
        tr = make([(0, 1), (2, 3)], initial_age=1.0, observe_start=0)
        wider = dataclasses.replace(tr, observe_end_ns=10**10)
        assert wider.observe_end_ns == 10**10
        assert wider.records == tr.records and wider != tr

    def test_columns_read_only(self):
        gen = np.array([0, 5])
        tr = Trace(seq=[0, 1], gen_ns=gen, recv_ns=[1, 6], observe_end_ns=6)
        with pytest.raises(ValueError):
            tr.gen_ns[0] = 3
        assert gen.flags.writeable  # the caller's array is left as it was

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace(seq=[0], gen_ns=[0, 1], recv_ns=[1, 2], observe_end_ns=2)


class TestRecordRows:
    """The lazy record sequence over (seq, gen_ns, recv_ns) int64 rows."""

    ROWS = np.stack([np.arange(600), 10**18 + 7 * np.arange(600), 10**18 + 9 * np.arange(600)], axis=1)
    RECORDS = [UpdateRecord(*row) for row in ROWS.tolist()]

    def test_length_iteration_and_indexing(self):
        view = RecordRows(self.ROWS)
        assert len(view) == 600 and view  # iteration crosses chunk boundaries
        assert list(view) == self.RECORDS
        assert list(reversed(view)) == self.RECORDS[::-1]
        for i in (0, 1, 255, 256, 599, -1, -600):
            assert view[i] == self.RECORDS[i]
            assert type(view[i].seq) is int
        for i in (600, -601):
            with pytest.raises(IndexError):
                view[i]
        assert self.RECORDS[300] in view and view.index(self.RECORDS[300]) == 300
        assert not RecordRows(np.empty((0, 3), dtype=np.int64))

    @pytest.mark.parametrize("sl", [slice(2, 5), slice(None, None, -7), slice(-3, None), slice(5, 2), slice(1, 500, 3)])
    def test_slices_are_views(self, sl):
        part = RecordRows(self.ROWS)[sl]
        assert isinstance(part, RecordRows) and list(part) == self.RECORDS[sl]
        assert np.shares_memory(part.rows, self.ROWS) or not len(part)

    def test_read_only(self):
        view = RecordRows(self.ROWS)
        with pytest.raises(TypeError):
            view[0] = self.RECORDS[1]

    def test_columns_are_the_rows(self):
        seq, gen, recv = record_columns(RecordRows(self.ROWS))
        assert np.shares_memory(gen, self.ROWS)
        assert Trace.from_records(RecordRows(self.ROWS)) == Trace.from_records(self.RECORDS)


class TestFromRecords:
    def test_first_record_becomes_anchor(self):
        recs = [
            UpdateRecord(0, 0, 10),
            UpdateRecord(1, 5, 20),
            UpdateRecord(2, 15, 30),
        ]
        tr = Trace.from_records(recs)
        assert tr.observe_start_ns == 10
        assert tr.initial_age_ns == 10
        assert len(tr) == 2
        assert tr.observe_end_ns == 30

    def test_empty(self):
        assert len(Trace.from_records([])) == 0
