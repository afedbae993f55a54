"""Update traces: timestamped generation/reception records and CSV I/O.

All timestamps are integer nanoseconds. A trace stores them as int64 numpy
columns; statistics modules convert to double-precision seconds relative to
the observation window, so absolute epoch-scale values stay lossless on disk
and on the wire.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

NS_PER_S = 1_000_000_000


def ns_to_s(ns: int) -> float:
    return ns / NS_PER_S


def s_to_ns(s: float) -> int:
    return round(s * NS_PER_S)


class TraceError(ValueError):
    """Malformed trace data or an operation applied to an unusable trace."""


@dataclass(frozen=True, slots=True)
class UpdateRecord:
    """One status update: generated at gen_ns, received at recv_ns."""

    seq: int
    gen_ns: int
    recv_ns: int

    @property
    def system_time_ns(self) -> int:
        """Delay experienced by this update (Y_i)."""
        return self.recv_ns - self.gen_ns


class RecordRows(Sequence[UpdateRecord]):
    """A read-only record sequence over ``rows``, an (n, 3) int64 array of
    (seq, gen_ns, recv_ns): a record is built only when it is accessed, and
    iteration holds only one chunk of rows as Python ints at a time. A slice
    is a view over the same rows."""

    __slots__ = ("rows",)
    _ITER_ROWS = 256

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RecordRows(self.rows[i])
        return UpdateRecord(*self.rows[i].tolist())

    def __iter__(self):
        for lo in range(0, len(self.rows), self._ITER_ROWS):
            yield from map(UpdateRecord, *self.rows[lo : lo + self._ITER_ROWS].T.tolist())


def record_columns(records: Iterable[UpdateRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(seq, gen_ns, recv_ns) int64 columns of a record sequence, in its order;
    views of the rows of a :class:`RecordRows`."""
    if isinstance(records, RecordRows):
        return tuple(records.rows.T)
    rows = np.array([(r.seq, r.gen_ns, r.recv_ns) for r in records], dtype=np.int64)
    return tuple(rows.reshape(-1, 3).T)


def sorted_columns(seq, gen_ns, recv_ns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns ordered by (recv_ns, seq), stably; sorted only if they are not."""
    seq, gen_ns, recv_ns = (np.asarray(c, dtype=np.int64) for c in (seq, gen_ns, recv_ns))
    dr = np.diff(recv_ns)
    if np.any((dr < 0) | ((dr == 0) & (np.diff(seq) < 0))):
        order = np.lexsort((seq, recv_ns))
        seq, gen_ns, recv_ns = seq[order], gen_ns[order], recv_ns[order]
    return seq, gen_ns, recv_ns


@dataclass(frozen=True, eq=False, init=False)
class Trace:
    """An ordered sequence of updates plus the observation window.

    The updates are three int64 columns sorted by ``recv_ns``. ``records``
    is a per-record view built on each access, O(n) objects; passing
    ``records`` to the constructor replaces the columns.

    ``initial_age_ns`` is the age at ``observe_start_ns``. Internally it is
    realized as a virtual predecessor update generated at
    ``observe_start_ns - initial_age_ns`` and received at ``observe_start_ns``,
    which gives the i=1 terms of the per-interval age formulas a well-defined
    meaning.
    """

    seq: np.ndarray
    gen_ns: np.ndarray
    recv_ns: np.ndarray
    initial_age_ns: int = 0
    observe_start_ns: int = 0
    observe_end_ns: int = 0
    n_stale_discarded: int = 0

    def __init__(self, records: Iterable[UpdateRecord] | None = None, initial_age_ns: int = 0,
                 observe_start_ns: int = 0, observe_end_ns: int = 0, n_stale_discarded: int = 0,
                 *, seq=(), gen_ns=(), recv_ns=()):
        if records is not None:
            seq, gen_ns, recv_ns = record_columns(records)
        seq, gen_ns, recv_ns = (np.ascontiguousarray(c, dtype=np.int64).view() for c in (seq, gen_ns, recv_ns))
        if not len(seq) == len(gen_ns) == len(recv_ns):
            raise TraceError("columns differ in length")
        if np.any(recv_ns[1:] < recv_ns[:-1]):
            raise TraceError("records must be sorted by recv_ns")
        # initial_age_ns may be negative: a bias-shifted trace can report a
        # physically impossible apparent age (mis-synchronization)
        if len(recv_ns):
            if observe_start_ns > recv_ns[0]:
                raise TraceError("observe_start_ns must not exceed first recv_ns")
            if observe_end_ns < recv_ns[-1]:
                raise TraceError("observe_end_ns must cover last recv_ns")
        elif observe_end_ns < observe_start_ns:
            raise TraceError("empty observation window")
        for col in (seq, gen_ns, recv_ns):
            col.flags.writeable = False  # views: the caller's arrays stay writeable
        window = (initial_age_ns, observe_start_ns, observe_end_ns, n_stale_discarded)
        for f, value in zip(fields(self), (seq, gen_ns, recv_ns, *map(int, window))):
            object.__setattr__(self, f.name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def records(self) -> tuple[UpdateRecord, ...]:
        return tuple(map(UpdateRecord, self.seq.tolist(), self.gen_ns.tolist(), self.recv_ns.tolist()))

    @property
    def virtual_origin(self) -> UpdateRecord:
        """The virtual predecessor realizing the initial age condition."""
        return UpdateRecord(
            seq=-1,
            gen_ns=self.observe_start_ns - self.initial_age_ns,
            recv_ns=self.observe_start_ns,
        )

    @classmethod
    def from_seconds(
        cls,
        gen_recv: Sequence[tuple[float, float]],
        initial_age: float = 0.0,
        observe_start: float | None = None,
        observe_end: float | None = None,
        seqs: Sequence[int] | None = None,
    ) -> "Trace":
        """Build a trace from (gen, recv) pairs expressed in seconds.

        Convenience constructor for tests and the simulator; seqs default to
        0..n-1.
        """
        gen = [s_to_ns(g) for g, _ in gen_recv]
        recv = [s_to_ns(r) for _, r in gen_recv]
        if observe_start is None:
            observe_start = ns_to_s(recv[0]) if recv else 0.0
        if observe_end is None:
            observe_end = ns_to_s(recv[-1]) if recv else observe_start
        return cls(
            seq=range(len(gen)) if seqs is None else list(seqs),
            gen_ns=gen,
            recv_ns=recv,
            initial_age_ns=s_to_ns(initial_age),
            observe_start_ns=s_to_ns(observe_start),
            observe_end_ns=s_to_ns(observe_end),
        )

    @classmethod
    def from_records(cls, records: Iterable[UpdateRecord]) -> "Trace":
        """:meth:`from_columns` of a measured/simulated record stream."""
        return cls.from_columns(*record_columns(records))

    @classmethod
    def from_columns(cls, seq, gen_ns, recv_ns) -> "Trace":
        """Anchor an update stream, given as columns, into a trace.

        The first update by (recv_ns, seq) becomes the virtual predecessor: it
        defines the observation start and the initial age; the remaining
        updates form the trace body.
        """
        seq, gen_ns, recv_ns = sorted_columns(seq, gen_ns, recv_ns)
        if not len(seq):
            return cls()
        return cls(initial_age_ns=recv_ns[0] - gen_ns[0], observe_start_ns=recv_ns[0],
                   observe_end_ns=recv_ns[-1], seq=seq[1:], gen_ns=gen_ns[1:], recv_ns=recv_ns[1:])


def fresh_mask(gen_ns: np.ndarray, floor: int) -> np.ndarray:
    """True for each update generated after ``floor`` and after every update
    received before it."""
    prior = np.maximum.accumulate(np.concatenate(([floor], gen_ns[:-1])))
    return gen_ns > prior


def effective_trace(trace: Trace) -> Trace:
    """Drop stale records: keep only updates whose generation time strictly
    exceeds every earlier-received generation time, so the freshest-update
    time is non-decreasing.

    Discarded records are counted in ``n_stale_discarded`` (cumulative with
    any prior filtering); seq-gap loss statistics are computed from the raw
    trace, not here.
    """
    keep = fresh_mask(trace.gen_ns, np.iinfo(np.int64).min)
    dropped = len(keep) - int(np.count_nonzero(keep))
    return replace(trace, seq=trace.seq[keep], gen_ns=trace.gen_ns[keep], recv_ns=trace.recv_ns[keep],
                   n_stale_discarded=trace.n_stale_discarded + dropped)


CSV_HEADER = "seq,gen_ns,recv_ns"

# clock_bias_ns is informational: parsed and checked, not a Trace field
_META_FIELDS = {"observe_start_ns", "observe_end_ns", "initial_age_ns", "clock_bias_ns"}
_COMMENT = re.compile(r"^[^\S\n]*#(.*)$", re.M)
_FILLER = re.compile(r"^[^\S\n]*(?:#.*)?$", re.M)  # blank, whitespace-only or comment line
_FIELD = re.compile(r"[+-]?[0-9]+")
_CHUNK_ROWS = 1 << 16


def write_rows(fp: io.TextIOBase, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length integer columns as comma-separated rows, formatting
    one chunk of rows per call so memory stays bounded."""
    row = ",".join(["%d"] * len(columns)) + "\n"
    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        part = np.column_stack([c[i : i + _CHUNK_ROWS] for c in columns]).ravel().tolist()
        fp.write(row * (len(part) // len(columns)) % tuple(part))


def write_trace_csv(trace: Trace, fp: io.TextIOBase, clock_bias_ns: int | None = None) -> None:
    fp.write(f"# observe_start_ns={trace.observe_start_ns}\n")
    fp.write(f"# observe_end_ns={trace.observe_end_ns}\n")
    fp.write(f"# initial_age_ns={trace.initial_age_ns}\n")
    if clock_bias_ns is not None:
        fp.write(f"# clock_bias_ns={clock_bias_ns}\n")
    fp.write(CSV_HEADER + "\n")
    write_rows(fp, (trace.seq, trace.gen_ns, trace.recv_ns))


def _take_meta(comment: str, lineno: int, meta: dict[str, int]) -> None:
    key, eq, val = comment.strip().partition("=")
    if eq and key.strip() in _META_FIELDS:
        try:
            meta[key.strip()] = int(val.strip())
        except ValueError:
            raise TraceError(f"line {lineno}: bad metadata value {val!r}")


def _load_rows(src) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty body is valid
        rows = np.loadtxt(src, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    if rows.size and rows.shape[1] != 3:  # a uniform 2- or 4-column body loads without error
        raise ValueError(f"{rows.shape[1]} columns")
    return rows.reshape(-1, 3)


def _bad_line(body: str, first_lineno: int) -> str | None:
    """Message for the first body line the bulk parser rejects."""
    for lineno, raw in enumerate(body.split("\n"), start=first_lineno):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            return f"line {lineno}: expected 3 fields, got {len(parts)}"
        if not all(_FIELD.fullmatch(p.strip()) and -(2**63) <= int(p) < 2**63 for p in parts):
            return f"line {lineno}: field is not an int64 integer in {line!r}"
    return None


def read_trace_csv(fp: io.TextIOBase) -> Trace:
    """Parse the trace CSV schema; raises TraceError with a line number on
    malformed input. Metadata comments count wherever they appear; the rows
    after the header are parsed in bulk."""
    if not fp.seekable():  # a bad body is re-read to find the bad line
        fp = io.StringIO(fp.read())
    meta: dict[str, int] = {}
    lineno = 0
    for raw in iter(fp.readline, ""):
        lineno += 1
        line = raw.strip()
        if line.startswith("#"):
            _take_meta(line[1:], lineno, meta)
        elif line:
            if line != CSV_HEADER:
                raise TraceError(f"line {lineno}: expected header {CSV_HEADER!r}, got {line!r}")
            break
    else:
        raise TraceError("empty trace file (missing header)")
    body_at = fp.tell()
    try:
        rows = _load_rows(fp)
    except ValueError:  # blank or comment lines in the body, or a bad line
        fp.seek(body_at)
        body = fp.read()
        pos, at = 0, lineno + 1
        for m in _COMMENT.finditer(body):
            at += body.count("\n", pos, m.start())
            pos = m.start()
            _take_meta(m.group(1), at, meta)
        body = _FILLER.sub("", body)  # keeps the line count
        try:
            rows = _load_rows(io.StringIO(body))
        except ValueError as exc:
            raise TraceError(_bad_line(body, lineno + 1) or f"malformed trace body: {exc}") from None
    seq, gen_ns, recv_ns = sorted_columns(rows[:, 0], rows[:, 1], rows[:, 2])
    start = meta.get("observe_start_ns", int(recv_ns[0]) if len(recv_ns) else 0)
    end = meta.get("observe_end_ns", int(recv_ns[-1]) if len(recv_ns) else start)
    try:
        return Trace(initial_age_ns=meta.get("initial_age_ns", 0), observe_start_ns=start,
                     observe_end_ns=end, seq=seq, gen_ns=gen_ns, recv_ns=recv_ns)
    except TraceError as exc:
        raise TraceError(f"inconsistent trace metadata: {exc}")
