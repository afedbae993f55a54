"""Single-server FCFS queue simulator producing synthetic update traces.

Arrival-driven formulation: for a work-conserving FCFS single server the
departure of admitted packet j is r_j = max(a_j, r_{j-1}) + S_j, so no event
calendar is needed. Finite buffers tail-drop: an arrival finding the waiting
room full is discarded but still consumes a sequence number, producing seq
gaps in the trace.

Simulation time is unitless; traces are emitted with one time unit mapped to
one second (integer nanoseconds underneath).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .agestats import HFORM, peak_average_age, penalty_average, time_average_age
from .penalty import PenaltyFunction
from .syncbias import shift_reception
from .trace import NS_PER_S, Trace

POISSON = "poisson"
DETERMINISTIC = "deterministic"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class SimConfig:
    arrival_rate: float  # lambda
    service_rate: float  # mu
    arrival: str = POISSON  # poisson | deterministic
    service: str = EXPONENTIAL  # exponential | deterministic
    buffer_capacity: Optional[int] = None  # waiting slots; None = unbounded
    n_events: int = 10_000  # arrivals to generate
    seed: int = 0
    warmup_fraction: float = 0.05  # leading share of departures dropped

    def __post_init__(self):
        if not (self.arrival_rate > 0 and self.service_rate > 0):
            raise ValueError("rates must be positive")
        if self.arrival not in (POISSON, DETERMINISTIC):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.service not in (EXPONENTIAL, DETERMINISTIC):
            raise ValueError(f"unknown service process {self.service!r}")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")

    @property
    def load(self) -> float:
        return self.arrival_rate / self.service_rate


@dataclass(frozen=True)
class SimResult:
    trace: Trace
    n_generated: int
    n_dropped: int
    unstable: bool  # unbounded queue driven at load >= 1
    mean_delay: float  # mean system time of post-warmup packets, seconds

    @property
    def loss_fraction(self) -> float:
        return self.n_dropped / self.n_generated if self.n_generated else 0.0


def _variates(kind: str, rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind in (POISSON, EXPONENTIAL):
        # inverse-CDF exponential for cross-platform reproducibility
        return -np.log(rng.random(n)) / rate
    return np.full(n, 1.0 / rate)


def simulate_queue(config: SimConfig, rng: np.random.Generator | None = None) -> SimResult:
    """Run one simulation: gen_time = arrival instant, recv_time = departure.

    The first post-warmup departure anchors the trace (it becomes the
    virtual predecessor defining the initial age), so per-interval statistics
    start from a steady sawtooth tooth.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n = config.n_events
    inter = _variates(config.arrival, config.arrival_rate, n, rng)
    svc = _variates(config.service, config.service_rate, n, rng)
    cap = config.buffer_capacity
    max_in_system = None if cap is None else cap + 1  # waiting room + server

    arrivals = np.cumsum(inter)
    in_system: deque[float] = deque()  # departure times of admitted packets
    last_dep = 0.0
    admitted: list[int] = []
    departures: list[float] = []
    dropped = 0
    for seq, (t, s) in enumerate(zip(arrivals.tolist(), svc.tolist())):
        while in_system and in_system[0] <= t:
            in_system.popleft()
        if max_in_system is not None and len(in_system) >= max_in_system:
            dropped += 1
            continue
        dep = max(t, last_dep) + s
        in_system.append(dep)
        last_dep = dep
        admitted.append(seq)
        departures.append(dep)

    # np.rint matches s_to_ns's round() bit for bit: both round half to even
    seq = np.array(admitted, dtype=np.int64)
    gen_ns = np.rint(arrivals[seq] * NS_PER_S).astype(np.int64)
    recv_ns = np.rint(np.array(departures) * NS_PER_S).astype(np.int64)
    skip = math.floor(config.warmup_fraction * len(seq))
    seq, gen_ns, recv_ns = seq[skip:], gen_ns[skip:], recv_ns[skip:]
    return SimResult(
        trace=Trace.from_columns(seq, gen_ns, recv_ns),
        n_generated=n,
        n_dropped=dropped,
        unstable=cap is None and config.load >= 1.0,
        mean_delay=float(np.mean((recv_ns - gen_ns) / 1e9)) if len(seq) else float("nan"),
    )


@dataclass(frozen=True)
class SweepPoint:
    arrival_rate: float
    avg_age: float
    peak_age: float
    loss_fraction: float
    mean_delay: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    seeds_per_point: int

    def to_rows(self) -> list[dict]:
        return [
            {
                "lambda": p.arrival_rate,
                "avg_age": p.avg_age,
                "peak_age": p.peak_age,
                "loss_fraction": p.loss_fraction,
                "mean_delay": p.mean_delay,
            }
            for p in self.points
        ]


def load_sweep(base: SimConfig, rates: Sequence[float], seeds_per_point: int = 10) -> SweepResult:
    """Simulate each arrival rate with seeds_per_point independent substreams
    and aggregate per-rate means.

    Substreams are spawned from base.seed, so the whole sweep is reproducible
    from (base config, rates, seeds_per_point).
    """
    if not rates:
        raise ValueError("empty rate grid")
    if any(r <= 0 for r in rates):
        raise ValueError("rates must be positive")
    root = np.random.SeedSequence(base.seed)
    streams = root.spawn(len(rates) * seeds_per_point)
    points = []
    for i, rate in enumerate(rates):
        ages, peaks, losses, delays = [], [], [], []
        for j in range(seeds_per_point):
            rng = np.random.default_rng(streams[i * seeds_per_point + j])
            res = simulate_queue(replace(base, arrival_rate=rate), rng=rng)
            ages.append(time_average_age(res.trace, HFORM))
            peaks.append(peak_average_age(res.trace))
            losses.append(res.loss_fraction)
            delays.append(res.mean_delay)
        points.append(
            SweepPoint(
                arrival_rate=rate,
                avg_age=float(np.mean(ages)),
                peak_age=float(np.mean(peaks)),
                loss_fraction=float(np.mean(losses)),
                mean_delay=float(np.mean(delays)),
            )
        )
    return SweepResult(points=tuple(points), seeds_per_point=seeds_per_point)


def bias_experiment(
    base: SimConfig, bias_ns: int, f: PenaltyFunction
) -> tuple[float, float]:
    """Monte Carlo offset experiment: simulate one trace, then measure the
    average penalty with and without an artificial offset on the departure
    stamps. Returns (unbiased, biased); for the linear penalty the difference
    is alpha * B for every seed."""
    res = simulate_queue(base)
    unbiased = penalty_average(res.trace, f)
    biased = penalty_average(shift_reception(res.trace, bias_ns).trace, f)
    return unbiased, biased
