import time

import numpy as np
import pytest

from aoikit import Trace, UpdateRecord
from aoikit.net import BUSY, PANICKED, RELAXED, RegionConfig, classify_regions

NS = 10**9
MS = 10**6


def stream(*windows, rate=100, delay_ms=5):
    """Build records for consecutive 1-second windows. Each window spec is
    (kept_seq_offsets, delay_ms_override or None)."""
    recs = []
    seq_base = 0
    for w, (keep, dly) in enumerate(windows):
        d = (dly if dly is not None else delay_ms) * MS
        for off in keep:
            seq = seq_base + off
            recv = w * NS + (off * NS) // rate
            recs.append(UpdateRecord(seq=seq, gen_ns=recv - d, recv_ns=recv))
        seq_base += rate
    return recs


class TestClassify:
    def test_all_clean_relaxed(self):
        recs = stream((range(100), None), (range(100), None))
        report = classify_regions(recs)
        assert report.collapsed() == [RELAXED]
        assert not report.baseline_from_global
        assert report.baseline_delay_s == pytest.approx(0.005)

    def test_short_runs_busy(self):
        # drop isolated singles: loss present, runs of length 1
        keep = [i for i in range(100) if i % 10 != 0]
        recs = stream((range(100), None), (keep, None))
        report = classify_regions(recs)
        assert [l.label for l in report.labels] == [RELAXED, BUSY]
        assert report.labels[1].max_loss_run == 1
        assert report.labels[1].loss_rate == pytest.approx(0.1)

    def test_long_runs_panicked(self):
        # drop bursts of 5 consecutive updates
        keep = [i for i in range(100) if (i % 20) >= 5]
        recs = stream((range(100), None), (keep, None))
        report = classify_regions(recs)
        assert report.labels[1].label == PANICKED
        assert report.labels[1].max_loss_run == 5

    def test_delay_jump_panicked(self):
        recs = stream((range(100), 5), (range(100), 50))
        report = classify_regions(recs)
        assert [l.label for l in report.labels] == [RELAXED, PANICKED]
        assert report.labels[1].delay_ratio == pytest.approx(10.0)

    def test_delay_rules_disabled(self):
        cfg = RegionConfig(relaxed_delay_ratio=None, panicked_delay_ratio=None)
        recs = stream((range(100), 5), (range(100), 50))
        report = classify_regions(recs, cfg)
        assert [l.label for l in report.labels] == [RELAXED, RELAXED]

    def test_gap_spanning_window_boundary(self):
        # the run 95..104 straddles the boundary; the second window sees it
        recs = stream((range(95), None), (range(5, 100), None))
        report = classify_regions(recs)
        assert report.labels[1].max_loss_run == 10
        assert report.labels[1].label == PANICKED

    def test_baseline_global_fallback(self):
        keep = [i for i in range(100) if i % 2 == 0]
        recs = stream((keep, None), (keep, None))
        report = classify_regions(recs)
        assert report.baseline_from_global

    def test_collapsed_merges_runs(self):
        clean = (range(100), None)
        lossy = ([i for i in range(100) if i % 10], None)
        report = classify_regions(stream(clean, clean, lossy, lossy, clean))
        assert report.collapsed() == [RELAXED, BUSY, RELAXED]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_regions([])

    def test_unsorted_input_ok(self):
        recs = stream((range(100), None))
        report = classify_regions(list(reversed(recs)))
        assert report.collapsed() == [RELAXED]

    def test_trace_input_matches_records(self):
        clean = (range(100), None)
        lossy = ([i for i in range(100) if (i % 20) >= 5], 50)
        recs = stream(clean, lossy, clean)
        trace = Trace(records=recs, observe_end_ns=recs[-1].recv_ns)
        assert classify_regions(trace) == classify_regions(recs)

    def test_outlier_timestamp_adds_one_window(self):
        # one corrupt stamp 1e7 s after the rest: windows are cut only where
        # records are, so this costs one label, not 1e7 empty windows
        recv = np.append(np.arange(100) * 10 * MS, 10**16)
        trace = Trace(seq=np.arange(101), gen_ns=recv - 5 * MS, recv_ns=recv, observe_end_ns=10**16)
        t0 = time.perf_counter()
        report = classify_regions(trace)
        assert time.perf_counter() - t0 < 1.0
        assert len(report.labels) == 2
        assert (report.labels[1].start_seq, report.labels[1].end_seq) == (100, 100)
