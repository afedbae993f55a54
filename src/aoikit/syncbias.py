"""Clock-synchronization bias: shifting reception stamps by a constant offset
and the resulting error in average penalty, both by direct re-evaluation and
by per-interval closed forms.

The offset model is a constant B (receiver clock minus transmitter clock):
apparent reception times are r_i' = r_i + B. Drift over the observation
window is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .agestats import _teeth, penalty_average
from .penalty import (
    EXPONENTIAL,
    LINEAR,
    LOGARITHMIC,
    PenaltyDomainError,
    PenaltyFunction,
)
from .trace import NS_PER_S, Trace


@dataclass(frozen=True)
class ClockBiasModel:
    """Constant receiver-minus-transmitter clock offset, with estimation
    metadata when it came from RTT probing."""

    bias_ns: int
    rtt_bound_ns: int = 0  # bound on |true B - estimate|
    probe_count: int = 0


@dataclass(frozen=True)
class ShiftedTrace:
    trace: Trace
    negative_delay: bool  # some shifted record has recv' < gen (mis-sync)


def shift_reception(trace: Trace, bias: ClockBiasModel | int) -> ShiftedTrace:
    """Apply r_i -> r_i + B to every reception stamp and the observation
    window; generation stamps are untouched. A negative apparent delay is
    permitted (it models mis-synchronization) but flagged."""
    b = bias.bias_ns if isinstance(bias, ClockBiasModel) else int(bias)
    recv_ns = trace.recv_ns + b
    # the virtual predecessor's reception shifts with every other reception
    # while its generation stays put, so the apparent initial age grows by B
    shifted = replace(
        trace,
        recv_ns=recv_ns,
        initial_age_ns=trace.initial_age_ns + b,
        observe_start_ns=trace.observe_start_ns + b,
        observe_end_ns=trace.observe_end_ns + b,
    )
    negative = trace.initial_age_ns + b < 0 or bool(np.any(recv_ns < trace.gen_ns))
    return ShiftedTrace(trace=shifted, negative_delay=negative)


def sync_bias_direct(trace: Trace, f: PenaltyFunction, bias_ns: int) -> float:
    """Measured-penalty error caused by offset B: the average penalty of the
    shifted trace minus that of the original, evaluated by construction as
    two penalty averages (so the shift-consistency identity holds
    bit-for-bit)."""
    shifted = shift_reception(trace, bias_ns)
    return penalty_average(shifted.trace, f) - penalty_average(trace, f)


def sync_bias_closed_form(trace: Trace, f: PenaltyFunction, bias_ns: int) -> float:
    """Closed-form penalty bias.

    Linear: alpha * B, independent of the trace. Exponential and logarithmic:
    per-interval evaluation in (beta_i, theta_i) = (r_{i-1}-s_{i-1},
    r_i-s_{i-1}), summed over intervals and normalized by the horizon.
    Agrees with sync_bias_direct to numerical tolerance.
    """
    b = bias_ns / NS_PER_S
    a = f.alpha
    if f.kind == LINEAR:
        return a * b
    t = _teeth(trace).require()
    beta, theta, horizon = t.beta, t.theta, t.horizon
    if f.kind == EXPONENTIAL:
        total = np.sum(
            np.exp(a * (theta + b))
            - np.exp(a * (beta + b))
            - np.exp(a * theta)
            + np.exp(a * beta)
        )
        return float(total) / (a * horizon)
    # logarithmic
    for x in (beta + b, theta + b):
        if np.any(a * x + 1.0 <= 0):
            raise PenaltyDomainError("bias outside penalty domain")
    lb, lt = np.log(a * beta + 1.0), np.log(a * theta + 1.0)
    lbb, ltb = np.log(a * (beta + b) + 1.0), np.log(a * (theta + b) + 1.0)
    total = np.sum(
        (lb - lt + ltb - lbb) / a
        - theta * lt
        + beta * lb
        + (theta + b) * ltb
        - (beta + b) * lbb
    )
    return float(total) / horizon
