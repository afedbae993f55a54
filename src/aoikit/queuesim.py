"""Single-server FCFS queue simulator producing synthetic update traces.

Arrival-driven formulation: for a work-conserving FCFS single server the
departure of admitted packet j is d_j = max(a_j, d_{j-1}) + s_j (Lindley's
recurrence), so no event calendar is needed.

Simulation time is unitless; one time unit maps to one second. Interarrival
and service times are drawn as floats, then arrival instants (the cumulative
sum) and service times are rounded once to int64 nanoseconds, and every
departure is computed exactly in integers from those:

- Unbounded buffer: with C_j the cumulative service, d_j = C_j +
  max_{k<=j}(a_k - C_{k-1}), one ``np.maximum.accumulate`` scan.
- Finite buffer (tail drop): an arrival finding the waiting room full is
  discarded but still consumes a sequence number, producing seq gaps in the
  trace. With room for cap waiting packets plus the one in service, an
  arrival at t is dropped iff the departure of the (cap+1)-th most recently
  admitted packet is later than t. A departure at exactly t has freed its
  slot, so an arrival that ties a departure is admitted. Drops change later
  departures, so this path is a loop over integer chunks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .agestats import hform_and_peak_age, penalty_average
from .penalty import PenaltyFunction
from .syncbias import shift_reception
from .trace import NS_PER_S, Trace

POISSON = "poisson"
DETERMINISTIC = "deterministic"
EXPONENTIAL = "exponential"

_CHUNK = 1 << 16  # arrivals per Python-int chunk of the tail-drop loop
# a one-ppm margin below 2**63 covers rounding the float horizon and each
# service time to whole ns (for fewer than 2**32 events)
_MAX_HORIZON_NS = 2.0**63 * (1 - 2.0**-20)


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
        # operator.index: a non-integral count is a TypeError, not a bad index later
        if operator.index(self.n_events) < 0:
            raise ValueError(f"n_events must be >= 0, got {self.n_events}")
        if self.buffer_capacity is not None and operator.index(self.buffer_capacity) < 0:
            raise ValueError(f"buffer_capacity must be >= 0 or None, got {self.buffer_capacity}")

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


def fcfs_departures(
    arr_ns: np.ndarray, svc_ns: np.ndarray, buffer_capacity: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact FCFS departures in integer ns.

    ``arr_ns`` (int64) holds non-decreasing, non-negative arrival instants
    and ``svc_ns`` (int64) the service time each arrival would receive.
    Returns the indices of the admitted arrivals and their departure
    instants. ``buffer_capacity`` counts waiting slots; None is unbounded.
    """
    if buffer_capacity is None:
        done = np.cumsum(svc_ns)  # C_j
        departures = done + np.maximum.accumulate(arr_ns - (done - svc_ns))
        return np.arange(len(arr_ns), dtype=np.int64), departures
    k = buffer_capacity + 1  # waiting room + server
    deps = [-1] * k  # the last k admitted departures, then this chunk's
    last = -1
    dropped: list[int] = []
    parts = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(arr_ns), _CHUNK):
        hi = lo + _CHUNK
        for i, t, s in zip(range(lo, hi), arr_ns[lo:hi].tolist(), svc_ns[lo:hi].tolist()):
            if deps[-k] > t:
                dropped.append(i)
            else:
                last = (t if t > last else last) + s
                deps.append(last)
        parts.append(np.array(deps[k:], dtype=np.int64))
        deps = deps[-k:]
    keep = np.ones(len(arr_ns), dtype=bool)
    keep[dropped] = False
    return np.flatnonzero(keep), np.concatenate(parts)


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
    arrivals = np.cumsum(inter)
    # the last departure is at most the last arrival plus all service
    if n and not float(arrivals[-1] + svc.sum()) * NS_PER_S < _MAX_HORIZON_NS:
        raise ValueError("simulated horizon exceeds the int64 nanosecond range")
    # np.rint matches s_to_ns's round() bit for bit: both round half to even
    arr_ns = np.rint(arrivals * NS_PER_S).astype(np.int64)
    seq, recv_ns = fcfs_departures(arr_ns, np.rint(svc * NS_PER_S).astype(np.int64),
                                   config.buffer_capacity)
    n_dropped = n - len(seq)
    skip = math.floor(config.warmup_fraction * len(seq))
    seq, recv_ns = seq[skip:], recv_ns[skip:]
    gen_ns = arr_ns[seq]
    return SimResult(
        trace=Trace.from_columns(seq, gen_ns, recv_ns),
        n_generated=n,
        n_dropped=n_dropped,
        unstable=config.buffer_capacity is None and config.load >= 1.0,
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
            age, peak = hform_and_peak_age(res.trace)
            ages.append(age)
            peaks.append(peak)
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
