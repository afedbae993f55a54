"""Live measurement harness: wire format, paced sender, timestamping
receiver, impairment relay, RTT-probe offset estimation, and operating-region
classification."""

from .clock import DEFAULT_CLOCK, SessionClock
from .probe import (
    FULL_RTT,
    HALF_RTT,
    OffsetEstimate,
    ProbeError,
    Reflector,
    combine_stamps,
    estimate_offset,
)
from .receiver import Receiver
from .regions import (
    BUSY,
    PANICKED,
    RELAXED,
    RegionConfig,
    RegionLabel,
    RegionReport,
    classify_regions,
)
from .relay import Relay, RelayLog
from .sender import RateStep, SendLog, StepStats, parse_rate_plan, run_sender
from .session import SweepOutcome, SweepStep, run_measured_sweep
from .transport import TCP, UDP
from .wire import (
    ECHO_SIZE,
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    MIN_PAYLOAD,
    PT_PROBE,
    PT_PROBE_ECHO,
    PT_UPDATE,
    FrameReader,
    Packet,
    WireError,
    decode,
    encode_probe,
    encode_probe_echo,
    encode_update,
    frame,
)
