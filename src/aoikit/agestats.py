"""Exact sample-path age statistics: sawtooth construction, time-average age
in three mutually verifiable forms, peak age, and penalty averages.

Conventions:

* Age follows the sawtooth age(t) = t - U(t), U(t) = newest generation time
  received by t; slope +1 between receptions, downward jump to the system
  time Y_i at each effective reception.
* The per-interval forms (Q-form, H-form, penalty averages, peak age) are
  defined on the horizon [r_0, r_N], where r_0 is the observation start
  (reception instant of the virtual predecessor) and r_N the last effective
  reception. The geometric form integrates the sawtooth over the full
  observation window.
* All results are double-precision seconds; inputs are nanosecond traces.
  Every statistic is one vectorized pass over the trace columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .penalty import PenaltyFunction, linear
from .trace import NS_PER_S, Trace, TraceError, fresh_mask

GEOMETRIC = "geometric"
QFORM = "qform"
HFORM = "hform"


@dataclass(frozen=True)
class AgeSamplePath:
    """Piecewise-linear sawtooth as (t_ns, age_ns) breakpoints, two int64
    arrays.

    Jumps appear as two breakpoints at the same t: the peak followed by the
    post-reception value.
    """

    t_ns: np.ndarray
    age_ns: np.ndarray

    @property
    def breakpoints(self) -> tuple[tuple[int, int], ...]:
        """(t_ns, age_ns) pairs as Python ints, built on each access."""
        return tuple(zip(self.t_ns.tolist(), self.age_ns.tolist()))

    def evaluate(self, t_ns: int) -> int:
        """Age at t_ns (post-jump value at reception instants)."""
        ts = self.t_ns
        if not len(ts) or t_ns < ts[0] or t_ns > ts[-1]:
            raise ValueError("t_ns outside the sample path")
        i = int(np.searchsorted(ts, t_ns, side="right")) - 1
        return int(self.age_ns[i]) + (t_ns - int(ts[i]))


@dataclass(frozen=True)
class _Teeth:
    """The effective updates of a trace with the virtual predecessor first:
    ``gen``/``recv`` in ns, N+1 entries each. ``beta``/``theta`` hold the
    per-interval terms (r_{i-1} - s_{i-1}, r_i - s_{i-1}) in seconds,
    i = 1..N."""

    gen: np.ndarray
    recv: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    horizon: float  # r_N - r_0, seconds

    @property
    def n(self) -> int:
        return len(self.beta)

    def require(self) -> "_Teeth":
        """The teeth, if the per-interval forms are defined on them."""
        if not self.n:
            raise TraceError("no effective updates")
        if self.horizon <= 0:
            raise TraceError("non-positive horizon")
        return self


def _teeth(trace: Trace) -> _Teeth:
    """Effective updates: generated after every earlier-received update and
    after the virtual predecessor (a record older than the initial
    condition cannot refresh the age)."""
    start = trace.observe_start_ns
    origin_gen = start - trace.initial_age_ns
    keep = fresh_mask(trace.gen_ns, origin_gen)
    gen = np.concatenate(([origin_gen], trace.gen_ns[keep]))
    recv = np.concatenate(([start], trace.recv_ns[keep]))
    beta, theta = (recv[:-1] - gen[:-1]) / NS_PER_S, (recv[1:] - gen[:-1]) / NS_PER_S
    return _Teeth(gen, recv, beta, theta, horizon=(int(recv[-1]) - start) / NS_PER_S)


def sample_path(trace: Trace) -> AgeSamplePath:
    """Sawtooth of the age process over the full observation window."""
    t = _teeth(trace)
    r, g, end = t.recv, t.gen, trace.observe_end_ns
    # each effective reception adds two breakpoints: the peak, then the post-jump age
    times = np.concatenate(([r[0]], np.repeat(r[1:], 2), [end]))
    jumps = np.column_stack((r[1:] - g[:-1], r[1:] - g[1:])).ravel()
    ages = np.concatenate(([r[0] - g[0]], jumps, [end - g[-1]]))
    n = len(times) - int(end == r[-1])  # no tail point when the window ends at r_N
    return AgeSamplePath(t_ns=times[:n], age_ns=ages[:n])


def _geometric(trace: Trace, t: _Teeth) -> tuple[float, int]:
    """(time-average age over the observation window in s, max age in ns):
    one closed-form piece per tooth, from each effective reception (the
    observation start first) to the next one or the window end."""
    start, end = trace.observe_start_ns, trace.observe_end_ns
    if end <= start:
        raise TraceError("non-positive horizon")
    width = np.diff(t.recv, append=end)
    age = t.recv - t.gen  # at the left end of each piece
    area = float(np.sum(width.astype(np.float64) * (2 * age + width))) / (2 * NS_PER_S * NS_PER_S)
    return area / ((end - start) / NS_PER_S), int(np.max(age + width))


def _h_terms(t: _Teeth) -> np.ndarray:
    d = t.theta - t.beta
    return d * t.beta + d * d / 2.0


def _hform(t: _Teeth) -> float:
    return float(np.sum(_h_terms(t.require()))) / t.horizon


@dataclass(frozen=True)
class AreaDecomposition:
    """Per-interval building blocks of the age area on [r_0, r_N], as float64
    arrays.

    ``q_terms`` holds the N update trapezoids; together with the closing
    triangle Y_N^2/2 and minus the opening triangle age_0^2/2 (the part of
    the first trapezoid before the observation start) they sum to the
    geometric area, as do the ``h_terms``.
    """

    q_terms: np.ndarray
    h_terms: np.ndarray
    interval_terms: np.ndarray  # (N, 2) rows of (beta_i, theta_i)
    tail_triangle: float  # Y_N^2 / 2
    initial_triangle: float  # age_0^2 / 2
    horizon: float

    @property
    def q_area(self) -> float:
        # summed in record order: the opening triangle can cancel most of
        # the sum, so the result should not depend on numpy's pairwise blocks
        return sum(self.q_terms.tolist()) + self.tail_triangle - self.initial_triangle

    @property
    def h_area(self) -> float:
        return float(np.sum(self.h_terms))


def _decompose(t: _Teeth) -> AreaDecomposition:
    t.require()
    x = np.diff(t.gen) / NS_PER_S  # inter-generation times X_i
    y = (t.recv[1:] - t.gen[1:]) / NS_PER_S  # system times Y_i
    return AreaDecomposition(
        q_terms=x * y + x * x / 2.0,
        h_terms=_h_terms(t),
        interval_terms=np.column_stack((t.beta, t.theta)),
        tail_triangle=float(y[-1] * y[-1]) / 2.0,
        initial_triangle=float(t.beta[0] * t.beta[0]) / 2.0,
        horizon=t.horizon,
    )


def area_decomposition(trace: Trace) -> AreaDecomposition:
    return _decompose(_teeth(trace))


def time_average_age(trace: Trace, method: str = GEOMETRIC) -> float:
    """Time-average age in seconds.

    ``geometric``: exact area of the sawtooth over the full observation
    window. ``qform``/``hform``: per-interval trapezoid sums on [r_0, r_N];
    both agree with the geometric area restricted to that horizon to
    floating tolerance.
    """
    if method not in (GEOMETRIC, QFORM, HFORM):
        raise ValueError(f"unknown method {method!r}")
    t = _teeth(trace)
    if method == GEOMETRIC:
        return _geometric(trace, t)[0]
    if method == HFORM:
        return _hform(t)
    return _decompose(t).q_area / t.horizon


def peak_average_age(trace: Trace) -> float:
    """Mean of the sawtooth values immediately before each downward jump:
    (1/N) sum_i (r_i - s_{i-1}), in seconds."""
    return float(np.mean(_teeth(trace).require().theta))


def hform_and_peak_age(trace: Trace) -> tuple[float, float]:
    """``(time_average_age(trace, HFORM), peak_average_age(trace))`` from one
    pass over the effective updates."""
    t = _teeth(trace)
    return _hform(t), float(np.mean(t.theta))


def _penalty_average(t: _Teeth, f: PenaltyFunction) -> float:
    t.require()
    return float(np.sum(f.F(t.theta) - f.F(t.beta))) / t.horizon


def penalty_average(trace: Trace, f: PenaltyFunction) -> float:
    """Time-average penalty (1/T) sum_i [F(theta_i) - F(beta_i)] on the
    horizon [r_0, r_N]; identical to (1/T) * integral of f(age(t))."""
    return _penalty_average(_teeth(trace), f)


def loss_runs(seqs) -> dict[int, int]:
    """Histogram {run_length: count} of consecutive-loss runs from seq gaps."""
    gaps = np.diff(np.sort(np.asarray(seqs, dtype=np.int64))) - 1  # repeats give -1
    lengths, counts = np.unique(gaps[gaps > 0], return_counts=True)
    return dict(zip(lengths.tolist(), counts.tolist()))


@dataclass(frozen=True)
class AgeStatistics:
    """Aggregate per-trace statistics; age fields are None for traces with no
    effective update."""

    avg_age: Optional[float]
    peak_age: Optional[float]
    avg_penalty: Optional[float]
    max_age: Optional[float]
    n_effective: int
    n_stale_discarded: int
    loss_runs: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "avg_age_s": self.avg_age,
            "peak_age_s": self.peak_age,
            "avg_penalty": self.avg_penalty,
            "max_age_s": self.max_age,
            "n_effective": self.n_effective,
            "n_stale_discarded": self.n_stale_discarded,
            "loss_runs": {str(k): v for k, v in sorted(self.loss_runs.items())},
        }


def compute_statistics(trace: Trace, f: PenaltyFunction | None = None) -> AgeStatistics:
    """Full statistics of a raw trace: stale filtering is applied internally
    for age values; loss runs come from seq gaps of the raw records."""
    if f is None:
        f = linear(1.0)
    runs = loss_runs(trace.seq)
    t = _teeth(trace)
    stats = dict(n_effective=t.n, n_stale_discarded=len(trace) - t.n, loss_runs=runs)
    if not t.n:
        return AgeStatistics(avg_age=None, peak_age=None, avg_penalty=None, max_age=None, **stats)
    avg_age, max_age_ns = _geometric(trace, t)
    return AgeStatistics(
        avg_age=avg_age,
        peak_age=float(np.mean(t.theta)),
        avg_penalty=_penalty_average(t, f),
        max_age=max_age_ns / NS_PER_S,
        **stats,
    )
