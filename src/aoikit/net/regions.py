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

A report holds its windows as columns, one array per :class:`RegionLabel`
field in window order; it builds no object per window unless asked.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from itertools import chain
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

    def __post_init__(self):
        # the window is cut in whole int64 nanoseconds; nan fails both bounds
        if not 0.5 < self.window_s * NS_PER_S < 2**63:
            raise ValueError(f"region window must round to 1 ns or more and fit in int64 ns, "
                             f"got window_s={self.window_s!r}")


@dataclass(frozen=True)
class RegionLabel:
    label: str
    start_seq: int
    end_seq: int
    loss_rate: float
    max_loss_run: int
    delay_ratio: float


WINDOW_COLUMNS = tuple(f.name for f in fields(RegionLabel))
_CSV_ROW = "%s,%d,%d,%r,%d,%r\r\n"  # the WINDOW_COLUMNS as csv.DictWriter renders them
_CHUNK_WINDOWS = 1 << 16


@dataclass(frozen=True, eq=False)
class RegionReport:
    """The windows as columns, one array per :class:`RegionLabel` field."""

    label: np.ndarray
    start_seq: np.ndarray
    end_seq: np.ndarray
    loss_rate: np.ndarray
    max_loss_run: np.ndarray
    delay_ratio: np.ndarray
    baseline_delay_s: float
    baseline_from_global: bool  # no loss-free window found; global median used

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegionReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def labels(self) -> tuple[RegionLabel, ...]:
        return tuple(map(RegionLabel, *(getattr(self, name).tolist() for name in WINDOW_COLUMNS)))

    def collapsed(self) -> list[str]:
        """Label sequence with consecutive duplicates merged."""
        lab = self.label
        return np.concatenate((lab[:1], lab[1:][lab[1:] != lab[:-1]])).tolist()

    def write_csv(self, fp: io.TextIOBase) -> None:
        """Write a header and one row per window, formatting one chunk of
        windows per call; open ``fp`` with ``newline=""``."""
        columns = [getattr(self, name) for name in WINDOW_COLUMNS]
        fp.write(",".join(WINDOW_COLUMNS) + "\r\n")
        for i in range(0, len(self.label), _CHUNK_WINDOWS):
            part = tuple(chain.from_iterable(zip(*(c[i : i + _CHUNK_WINDOWS].tolist() for c in columns))))
            fp.write(_CSV_ROW * (len(part) // len(columns)) % part)


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
    baseline = float(np.median(delay) if from_global else delay[np.argmax(quiet)])
    ratio = delay / baseline if baseline > 0 else np.full(len(delay), np.inf)

    panicked = max_run >= config.panicked_min_run
    if config.panicked_delay_ratio is not None:
        panicked |= ratio >= config.panicked_delay_ratio
    relaxed = quiet
    if config.relaxed_delay_ratio is not None:
        relaxed = relaxed & (ratio <= config.relaxed_delay_ratio)
    label = np.where(panicked, PANICKED, np.where(relaxed, RELAXED, BUSY))
    return RegionReport(label, seq[starts], seq[starts + counts - 1], loss_rate, max_run, ratio,
                        baseline_delay_s=baseline, baseline_from_global=from_global)
