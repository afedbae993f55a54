"""The region report as columns: the window-size check, and each sweep
step's region vote against a per-label reference."""

from collections import Counter

import numpy as np
import pytest

from aoikit.net import BUSY, PANICKED, RELAXED, RegionConfig, RegionReport
from aoikit.net.sender import StepStats
from aoikit.net.session import _step_region


class TestRegionConfig:
    @pytest.mark.parametrize("window_s", [0.0, 1e-12, 4e-10, -1.0, float("inf"), float("-inf"),
                                          float("nan"), 1e300])
    def test_window_under_1ns_or_beyond_int64_rejected(self, window_s):
        with pytest.raises(ValueError, match="region window"):
            RegionConfig(window_s=window_s)

    @pytest.mark.parametrize("window_s", [6e-10, 1e-9, 1.0, 9e9])
    def test_window_of_at_least_1ns_accepted(self, window_s):
        assert RegionConfig(window_s=window_s).window_s == window_s


def report(*windows):
    """A report over (label, start_seq, end_seq) windows, in window order."""
    label, start, end = zip(*windows) if windows else ((), (), ())
    n = len(windows)
    return RegionReport(np.array(label, dtype="<U8"), np.array(start, dtype=np.int64),
                        np.array(end, dtype=np.int64), np.zeros(n), np.zeros(n, dtype=np.int64),
                        np.ones(n), baseline_delay_s=0.005, baseline_from_global=False)


def reference_vote(rep, step):
    """The vote written over per-window label objects."""
    if not step.sent:
        return None
    votes = Counter(lab.label for lab in rep.labels
                    if lab.end_seq >= step.first_seq and lab.start_seq <= step.last_seq)
    return votes.most_common(1)[0][0] if votes else None


def step(first_seq, sent):
    return StepStats(target_rate=100.0, first_seq=first_seq, sent=sent)


class TestStepRegion:
    # reordering makes adjacent windows' seq ranges overlap: 0-12, 8-20, 18-30
    OVERLAP = report((RELAXED, 0, 12), (BUSY, 8, 20), (BUSY, 18, 30), (PANICKED, 40, 49))

    @pytest.mark.parametrize("rep, st, expected", [
        (OVERLAP, step(10, 10), BUSY),  # 10-19 meets all three overlapping windows
        (OVERLAP, step(0, 9), RELAXED),  # 0-8 meets 0-12 and 8-20: a tie
        # a tie goes to the first label in window order, not in seq order
        (report((BUSY, 10, 19), (RELAXED, 0, 9)), step(0, 20), BUSY),
        (report((PANICKED, 10, 19), (BUSY, 0, 9), (PANICKED, 20, 29), (BUSY, 30, 39)), step(5, 30), PANICKED),
        (OVERLAP, step(31, 9), None),  # 31-39 falls between windows
        (OVERLAP, step(50, 10), None),  # past the last window
        (OVERLAP, step(10, 0), None),  # sent nothing
        (report(), step(0, 10), None),  # no window at all
    ])
    def test_cases(self, rep, st, expected):
        assert _step_region(rep, st) == expected == reference_vote(rep, st)

    def test_no_report(self):
        assert _step_region(None, step(0, 10)) is None

    def test_random_reports_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            start = np.cumsum(rng.integers(0, 8, n))
            windows = [(str(rng.choice([RELAXED, BUSY, PANICKED])), int(s), int(s + rng.integers(0, 10)))
                       for s in start]
            rep = report(*windows)
            for _ in range(10):
                st = step(int(rng.integers(-5, 100)), int(rng.integers(0, 30)))
                assert _step_region(rep, st) == reference_vote(rep, st)
