"""Seeded input generation, traffic measurement and an independent age oracle
for the ``analyze-1m`` workload.

The trace imitates a measured update stream: Poisson generation at about
1 kHz, a fixed path delay plus exponential jitter (so a few percent of
updates arrive after a fresher one and are stale), and losses that are i.i.d.
in some 10 s segments and absent in others, plus occasional bursts. The mix
makes ``classify_regions`` see relaxed, busy and panicked windows.

Everything here uses numpy only; nothing imports the package under test, so
the oracle is independent of the code it checks.
"""

from __future__ import annotations

import numpy as np

NS = 1_000_000_000
EPOCH_NS = 1_700_000_000 * NS  # epoch-scale stamps, as a live receiver logs
INITIAL_AGE_NS = 100_000_000
RATE_HZ = 1000.0
BASE_DELAY_NS = 5_000_000
JITTER_MEAN_NS = 60_000  # ~3 % of updates overtaken by a fresher one
SEGMENT_NS = 10 * NS
IID_LOSS = 0.01
BURST_START_PROB = 5e-5
BURST_LEN = (3, 30)  # inclusive range of lost updates per burst
WINDOW_NS = NS  # the CLI's default --window-s for region classification
CSV_HEADER = "seq,gen_ns,recv_ns"


class GeneratedTrace:
    """Columns of a generated trace, in receive order, plus its window."""

    def __init__(self, seq, gen_ns, recv_ns, observe_start_ns, observe_end_ns, initial_age_ns):
        self.seq = seq
        self.gen_ns = gen_ns
        self.recv_ns = recv_ns
        self.observe_start_ns = observe_start_ns
        self.observe_end_ns = observe_end_ns
        self.initial_age_ns = initial_age_ns

    def __len__(self) -> int:
        return len(self.seq)

    def to_csv(self) -> str:
        """The trace in the package's CSV schema, metadata comments first."""
        head = (
            f"# observe_start_ns={self.observe_start_ns}\n"
            f"# observe_end_ns={self.observe_end_ns}\n"
            f"# initial_age_ns={self.initial_age_ns}\n"
            f"{CSV_HEADER}\n"
        )
        rows = zip(self.seq.tolist(), self.gen_ns.tolist(), self.recv_ns.tolist())
        return head + "".join(f"{q},{g},{r}\n" for q, g, r in rows)


def generate_trace(seed: int, n_records: int) -> GeneratedTrace:
    """Exactly ``n_records`` received updates, reproducible from ``seed``."""
    rng = np.random.default_rng(seed)
    n_gen = int(n_records * 1.1) + 1000  # enough candidates to survive loss
    gaps = np.maximum(1, np.rint(rng.exponential(NS / RATE_HZ, n_gen))).astype(np.int64)
    gen = EPOCH_NS + np.cumsum(gaps)
    segment = (gen - EPOCH_NS) // SEGMENT_NS
    seg_loss = rng.choice([0.0, IID_LOSS], size=int(segment[-1]) + 1)
    lost = rng.random(n_gen) < seg_loss[segment]
    starts = np.flatnonzero(rng.random(n_gen) < BURST_START_PROB)
    lengths = rng.integers(BURST_LEN[0], BURST_LEN[1] + 1, size=len(starts))
    for s, n in zip(starts.tolist(), lengths.tolist()):
        lost[s : s + n] = True
    jitter = np.rint(rng.exponential(JITTER_MEAN_NS, n_gen)).astype(np.int64)
    recv = gen + BASE_DELAY_NS + jitter
    kept = np.flatnonzero(~lost)
    if len(kept) < n_records:
        raise RuntimeError("generator produced too few updates")
    seq = kept[:n_records]
    order = np.lexsort((seq, recv[seq]))
    seq = seq[order].astype(np.int64)
    return GeneratedTrace(
        seq=seq,
        gen_ns=gen[seq],
        recv_ns=recv[seq],
        observe_start_ns=EPOCH_NS,
        observe_end_ns=int(recv[seq].max()) + BASE_DELAY_NS,
        initial_age_ns=INITIAL_AGE_NS,
    )


def effective_mask(trace: GeneratedTrace) -> np.ndarray:
    """Updates that refresh the age: generated after every update received
    before them, the initial condition's virtual origin included."""
    origin_gen = trace.observe_start_ns - trace.initial_age_ns
    prior = np.maximum.accumulate(np.concatenate(([origin_gen], trace.gen_ns)))[:-1]
    return trace.gen_ns > prior


def traffic_stats(trace: GeneratedTrace) -> dict:
    """Measured properties of the traffic, recorded next to the results."""
    seq = np.sort(trace.seq)
    span = int(seq[-1] - seq[0] + 1)
    gaps = np.diff(seq) - 1
    windows = np.unique((trace.recv_ns - trace.recv_ns.min()) // WINDOW_NS)
    return {
        "records": len(trace),
        "stale_share": 1.0 - float(np.count_nonzero(effective_mask(trace))) / len(trace),
        "loss_share": 1.0 - len(seq) / span,
        "longest_loss_run": int(gaps.max()) if len(gaps) else 0,
        "windows": len(windows),
        "duration_s": (trace.observe_end_ns - trace.observe_start_ns) / NS,
    }


def oracle_ages(trace: GeneratedTrace) -> tuple[float, float]:
    """(time-average age over the observation window, peak average age), in
    seconds, from the age definition: the freshest generation time received
    so far is a running maximum, and the age is a sawtooth of slope 1 whose
    area is summed piece by piece between receptions."""
    eff = effective_mask(trace)
    gen, recv = trace.gen_ns[eff], trace.recv_ns[eff]
    start, end = trace.observe_start_ns, trace.observe_end_ns
    origin_gen = start - trace.initial_age_ns
    freshest = np.concatenate(([origin_gen], gen))
    left = np.concatenate(([start], recv)) - start
    right = np.concatenate((recv, [end])) - start
    width = (right - left).astype(np.float64)
    age_left = (left + start - freshest).astype(np.float64)
    area = float(np.sum(width * (age_left + width / 2.0)))  # ns^2
    avg_age = area / (end - start) / NS
    peak_age = float(np.mean((recv - freshest[:-1]) / NS))
    return avg_age, peak_age
