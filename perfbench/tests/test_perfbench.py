"""Tests of the benchmark itself: seeded inputs, the age oracle, the live
reductions, the tracer, and refusal to run outside a source checkout.

Run with ``python -m pytest perfbench/tests``.
"""

import io
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoikit
import aoikit.cli
import gen
import loopback
import tracer
from aoikit import compute_statistics, exponential, read_trace_csv

BENCH = Path(__file__).resolve().parent.parent


def _parse(trace: gen.GeneratedTrace):
    return read_trace_csv(io.StringIO(trace.to_csv()))


def _scrambled(rng, n: int) -> gen.GeneratedTrace:
    """A small trace with heavy reordering, seq gaps and a random window."""
    gen_ns = 10**18 + np.cumsum(rng.integers(1, 2_000_000, n))
    recv_ns = gen_ns + rng.integers(0, 5_000_000, n)
    seq = np.sort(rng.choice(3 * n, size=n, replace=False))
    order = np.lexsort((seq, recv_ns))
    start = int(gen_ns[0]) - int(rng.integers(0, 1_000_000))
    return gen.GeneratedTrace(
        seq=seq[order], gen_ns=gen_ns[order], recv_ns=recv_ns[order],
        observe_start_ns=start,
        observe_end_ns=int(recv_ns.max()) + int(rng.integers(0, 3_000_000)),
        initial_age_ns=int(rng.integers(0, 4_000_000)),
    )


class TestGenerator:
    def test_same_seed_same_trace(self):
        a, b = gen.generate_trace(7, 5000), gen.generate_trace(7, 5000)
        assert a.to_csv() == b.to_csv()
        assert gen.traffic_stats(a) == gen.traffic_stats(b)

    def test_other_seed_other_trace(self):
        assert gen.generate_trace(7, 5000).to_csv() != gen.generate_trace(8, 5000).to_csv()

    def test_shape(self):
        trace = gen.generate_trace(3, 50_000)
        stats = gen.traffic_stats(trace)
        assert len(trace) == stats["records"] == 50_000
        assert np.all(np.diff(trace.recv_ns) >= 0)
        assert 0.01 < stats["stale_share"] < 0.06
        assert 0.0 < stats["loss_share"] < 0.05
        assert stats["windows"] >= 50

    def test_parses_as_written(self):
        trace = gen.generate_trace(4, 2000)
        parsed = _parse(trace)
        assert len(parsed) == 2000
        assert parsed.observe_start_ns == trace.observe_start_ns
        assert parsed.initial_age_ns == trace.initial_age_ns
        assert [r.seq for r in parsed.records] == trace.seq.tolist()


class TestOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_compute_statistics(self, seed):
        rng = np.random.default_rng(seed)
        trace = _scrambled(rng, int(rng.integers(2, 300)))
        stats = compute_statistics(_parse(trace), exponential(0.5))
        avg, peak = gen.oracle_ages(trace)
        assert avg == pytest.approx(stats.avg_age, rel=1e-9)
        assert peak == pytest.approx(stats.peak_age, rel=1e-9)
        assert np.count_nonzero(gen.effective_mask(trace)) == stats.n_effective

    def test_matches_on_generated_trace(self):
        trace = gen.generate_trace(5, 20_000)
        stats = compute_statistics(_parse(trace))
        avg, peak = gen.oracle_ages(trace)
        assert avg == pytest.approx(stats.avg_age, rel=1e-9)
        assert peak == pytest.approx(stats.peak_age, rel=1e-9)

    def test_hand_computed(self):
        # origin gen -1 s; updates (gen 0, recv 1) and (gen 2, recv 3) on [0, 4]
        trace = gen.GeneratedTrace(
            seq=np.array([0, 1]), gen_ns=np.array([0, 2]) * gen.NS,
            recv_ns=np.array([1, 3]) * gen.NS,
            observe_start_ns=0, observe_end_ns=4 * gen.NS, initial_age_ns=gen.NS,
        )
        avg, peak = gen.oracle_ages(trace)
        assert avg == pytest.approx(1.75)  # the CLI's golden value
        assert peak == pytest.approx(2.5)


MS = 1_000_000
BASE = 1_700_000_000 * 10**9


class TestLiveReductions:
    def test_lateness_known_answer(self):
        steps = [(0, 5, 1000.0), (5, 3, 500.0)]
        seq = np.arange(8)
        offs = [0, 10, 500, 0, 20, 0, 7, 3]  # ns late against the schedule
        sched = [k * MS for k in range(5)] + [9 * MS + k * 2 * MS for k in range(3)]
        gen_ns = BASE + np.array(sched) + np.array(offs)
        assert loopback.lateness_ns(steps, seq, gen_ns).tolist() == offs

    def test_lateness_without_first_packet(self):
        # the relay dropped seq 0: the most prompt packet still anchors t0
        steps = [(0, 5, 1000.0)]
        seq = np.array([1, 2, 4])
        gen_ns = BASE + np.array([1 * MS + 30, 2 * MS + 5, 4 * MS + 80])
        assert loopback.lateness_ns(steps, seq, gen_ns).tolist() == [25, 0, 75]

    def test_lateness_unsorted_input(self):
        steps = [(0, 3, 1000.0)]
        seq = np.array([2, 0, 1])
        gen_ns = BASE + np.array([2 * MS + 4, 0, 1 * MS + 9])
        assert sorted(loopback.lateness_ns(steps, seq, gen_ns).tolist()) == [0, 4, 9]

    def test_max_burst_known_answer(self):
        steps = [(0, 7, 1000.0)]
        seq = np.arange(7)
        # seqs 1..4 go out back to back after an oversleep: 3 short gaps
        gen_ns = BASE + np.array([0, 4 * MS, 4 * MS + 10, 4 * MS + 20, 4 * MS + 30, 5 * MS, 6 * MS])
        assert loopback.max_burst(steps, seq, gen_ns) == 3

    def test_max_burst_broken_by_loss_and_steps(self):
        steps = [(0, 4, 1000.0), (4, 3, 1000.0)]
        seq = np.array([0, 1, 3, 4, 5, 6])  # seq 2 lost
        gen_ns = BASE + np.array([0, 10, 30, 40, 50, 60])
        # 0-1 short (1); 3-4 cross steps; 4-5-6 short (2)
        assert loopback.max_burst(steps, seq, gen_ns) == 2

    def test_max_burst_paced(self):
        steps = [(0, 4, 1000.0)]
        gen_ns = BASE + np.arange(4) * MS
        assert loopback.max_burst(steps, np.arange(4), gen_ns) == 0

    def test_fidelity_share(self):
        ops = [{"fidelity_misses": []}, {"fidelity_misses": ["step labels", "saturated ages"]},
               {"fidelity_misses": []}, {"fidelity_misses": ["shortfall"]}]
        got = loopback.fidelity(ops)
        assert (got["runs"], got["missed"], got["share"]) == (4, 2, 0.5)
        assert got["notes"] == ["step labels", "saturated ages", "shortfall"]


class TestTracer:
    def test_spans_nest_and_imported_names_are_patched(self):
        original = aoikit.cli.compute_statistics
        tr = tracer.Tracer().install()
        try:
            assert aoikit.cli.compute_statistics is not original
            aoikit.cli.compute_statistics(_parse(gen.generate_trace(1, 500)))
        finally:
            tr.uninstall()
        assert aoikit.cli.compute_statistics is original
        times = tracer.span_times(tr.spans)
        top = times["agestats.compute_statistics"]
        assert top["count"] == 1
        assert 0 <= top["self_s"] < top["total_s"]
        assert times["agestats.sample_path"]["count"] >= 1
        tree = tracer.span_tree(tr.spans)
        assert tree[0][:2] == (0, "agestats.compute_statistics")
        assert all(depth >= 1 for depth, *_ in tree[1:])

    def test_classmethod_wrapped_and_restored(self):
        tr = tracer.Tracer().install()
        try:
            aoikit.Trace.from_records([aoikit.UpdateRecord(0, 0, 1), aoikit.UpdateRecord(1, 2, 3)])
        finally:
            tr.uninstall()
        assert [s[2] for s in tr.spans] == ["trace.Trace.from_records"]
        assert "from_records" in vars(aoikit.Trace)
        assert aoikit.Trace.from_records([]).records == ()

    def test_self_time(self):
        spans = [[0, None, "a", 0, 100], [1, 0, "b", 10, 40], [2, 0, "c", 50, 60], [3, 1, "c", 20, 30]]
        times = tracer.span_times(spans)
        assert times["a"]["self_s"] == pytest.approx(60e-9)
        assert times["b"]["self_s"] == pytest.approx(20e-9)
        assert times["c"]["count"] == 2

    def test_histogram_median(self):
        agg = tracer.Aggregate()
        for dt in (100, 120, 2000, 130, 140):
            agg.add(dt)
        d = agg.to_dict()
        assert d["count"] == 5
        assert d["p50_us"] == pytest.approx(0.125)  # middle of the 100-149 ns bucket


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
