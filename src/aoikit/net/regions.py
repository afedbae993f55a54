"""Operating-region classification of a measured update stream.

The stream is cut into fixed windows of receiver time; only windows that
hold a record exist, so an outlier timestamp costs nothing. Each window is
labeled from its loss and delay evidence:

* Relaxed: essentially no loss, delay at the baseline level.
* Busy: losses present but only in short runs, delay still near baseline.
* Panicked: long consecutive-loss runs, or the delay level has jumped well
  above baseline.

The baseline delay is the median delay of the first Relaxed-looking window
(no loss). All thresholds are configuration, not claims: on paths where a
single FIFO bottleneck dominates, the delay level jumps as soon as the queue
fills and the delay-ratio rules should be relaxed or disabled so that the
loss-run evidence decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

import numpy as np

from ..trace import NS_PER_S, Trace, UpdateRecord, record_columns

RELAXED = "relaxed"
BUSY = "busy"
PANICKED = "panicked"


@dataclass(frozen=True)
class RegionConfig:
    window_s: float = 1.0
    max_relaxed_loss_rate: float = 0.001
    panicked_min_run: int = 3
    relaxed_delay_ratio: Optional[float] = 1.5  # None disables the rule
    panicked_delay_ratio: Optional[float] = 2.0  # None disables the rule


@dataclass(frozen=True)
class RegionLabel:
    label: str
    start_seq: int
    end_seq: int
    loss_rate: float
    max_loss_run: int
    delay_ratio: float


@dataclass(frozen=True)
class RegionReport:
    labels: tuple[RegionLabel, ...]
    baseline_delay_s: float
    baseline_from_global: bool  # no loss-free window found; global median used

    def collapsed(self) -> list[str]:
        """Label sequence with consecutive duplicates merged."""
        out: list[str] = []
        for lab in self.labels:
            if not out or out[-1] != lab.label:
                out.append(lab.label)
        return out


def classify_regions(
    records: Trace | Sequence[UpdateRecord], config: RegionConfig | None = None
) -> RegionReport:
    """Label each window of the received stream. ``records`` is a trace or a
    record sequence (converted to columns once); either must carry the raw
    (possibly gapped) seq numbers. Delays are recv - gen per record."""
    if config is None:
        config = RegionConfig()
    if isinstance(records, Trace):
        seq, gen, recv = records.seq, records.gen_ns, records.recv_ns
    else:
        seq, gen, recv = record_columns(records)
    if not len(seq):
        raise ValueError("no records to classify")
    window = (recv - recv.min()) // round(config.window_s * NS_PER_S)
    # group by window, seqs ascending within each; only non-empty windows exist
    order = np.lexsort((seq, window))
    window, seq, delay_ns = window[order], seq[order], (recv - gen)[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(window)) + 1))
    counts = np.diff(starts, append=len(seq))

    # a window's first gap is measured from the previous window's last seq
    gaps = np.maximum(np.diff(seq, prepend=seq[0]) - 1, 0)
    lost = np.add.reduceat(gaps, starts)
    max_run = np.maximum.reduceat(gaps, starts)
    loss_rate = lost / (lost + counts)
    # sort delays within each window: order by (window ordinal, delay rank)
    rank = np.empty(len(seq), dtype=np.int64)
    rank[np.argsort(delay_ns)] = np.arange(len(seq))
    ordinal = np.repeat(np.arange(len(starts)), counts)
    delay_ns = np.sort(delay_ns)[np.sort(ordinal * len(seq) + rank) % len(seq)]
    mid = starts + counts // 2
    # the median; for an odd count both picks are the middle element
    delay = (delay_ns[mid - 1 + counts % 2] / NS_PER_S + delay_ns[mid] / NS_PER_S) / 2

    quiet = loss_rate < config.max_relaxed_loss_rate
    from_global = not quiet.any()
    baseline = median(delay.tolist()) if from_global else float(delay[np.argmax(quiet)])
    ratio = delay / baseline if baseline > 0 else np.full(len(delay), np.inf)

    panicked = max_run >= config.panicked_min_run
    if config.panicked_delay_ratio is not None:
        panicked |= ratio >= config.panicked_delay_ratio
    relaxed = quiet
    if config.relaxed_delay_ratio is not None:
        relaxed = relaxed & (ratio <= config.relaxed_delay_ratio)
    label = np.where(panicked, PANICKED, np.where(relaxed, RELAXED, BUSY))
    columns = (label, seq[starts], seq[starts + counts - 1], loss_rate, max_run, ratio)
    return RegionReport(
        labels=tuple(map(RegionLabel, *(c.tolist() for c in columns))),
        baseline_delay_s=baseline,
        baseline_from_global=from_global,
    )
