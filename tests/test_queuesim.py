from collections import deque

import numpy as np
import pytest

from aoikit import (
    SimConfig,
    bias_experiment,
    linear,
    exponential,
    load_sweep,
    peak_average_age,
    simulate_queue,
    time_average_age,
)
from aoikit import queuesim
from aoikit.analytic import dd1_average_age, mm1_average_age, mm1_peak_age, mm11_average_age
from aoikit.queuesim import fcfs_departures

NS = 10**9


def dd1(lam, mu=1.0, n=2000):
    return SimConfig(
        arrival_rate=lam,
        service_rate=mu,
        arrival="deterministic",
        service="deterministic",
        n_events=n,
    )


class TestSimulateQueue:
    @pytest.mark.parametrize("lam", [0.5, 0.2, 0.9])
    def test_dd1_analytic_average_age(self, lam):
        res = simulate_queue(dd1(lam))
        assert time_average_age(res.trace, "hform") == pytest.approx(dd1_average_age(lam), abs=1e-9)

    def test_dd1_no_queueing_unit_delay(self):
        res = simulate_queue(dd1(0.5, n=500))
        for rec in res.trace.records:
            assert rec.system_time_ns == NS

    def test_reproducible_per_seed(self):
        cfg = SimConfig(arrival_rate=0.7, service_rate=1.0, n_events=5000, seed=99)
        a, b = simulate_queue(cfg), simulate_queue(cfg)
        assert a.trace == b.trace
        assert a.n_dropped == b.n_dropped

    def test_different_seeds_differ(self):
        base = dict(arrival_rate=0.7, service_rate=1.0, n_events=5000)
        a = simulate_queue(SimConfig(seed=1, **base))
        b = simulate_queue(SimConfig(seed=2, **base))
        assert a.trace != b.trace

    def test_fcfs_ordering(self):
        res = simulate_queue(SimConfig(arrival_rate=0.9, service_rate=1.0, n_events=5000))
        recs = res.trace.records
        gens = [r.gen_ns for r in recs]
        recvs = [r.recv_ns for r in recs]
        assert gens == sorted(gens)
        assert recvs == sorted(recvs)

    def test_work_conservation(self):
        # departures of queued packets are exactly one service apart:
        # the server never idles while work is waiting
        res = simulate_queue(
            SimConfig(
                arrival_rate=0.95,
                service_rate=1.0,
                service="deterministic",
                n_events=5000,
                warmup_fraction=0.0,
            )
        )
        recs = [res.trace.virtual_origin, *res.trace.records]
        for prev, cur in zip(recs, recs[1:]):
            if cur.gen_ns <= prev.recv_ns:  # arrived while busy
                assert cur.recv_ns - prev.recv_ns == pytest.approx(NS, abs=2)

    def test_work_conservation_exact(self):
        # integer-ns departures: a packet that arrived while the server was
        # busy leaves exactly one deterministic service after its predecessor
        res = simulate_queue(
            SimConfig(
                arrival_rate=0.95,
                service_rate=1.0,
                service="deterministic",
                n_events=5000,
                warmup_fraction=0.0,
            )
        )
        gen, recv = map(np.array, full_columns(res.trace))
        busy = gen[1:] <= recv[:-1]
        assert busy.sum() > 1000
        assert np.all(np.diff(recv)[busy] == NS)

    def test_finite_buffer_drops_and_gaps(self):
        res = simulate_queue(
            SimConfig(arrival_rate=20.0, service_rate=1.0, buffer_capacity=1, n_events=5000)
        )
        assert res.loss_fraction > 0
        seqs = [r.seq for r in res.trace.records]
        assert any(b - a > 1 for a, b in zip(seqs, seqs[1:]))

    def test_unbounded_overload_flagged_unstable(self):
        res = simulate_queue(SimConfig(arrival_rate=1.5, service_rate=1.0, n_events=2000))
        assert res.unstable

    def test_stable_not_flagged(self):
        res = simulate_queue(SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=2000))
        assert not res.unstable

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(arrival_rate=0.0, service_rate=1.0)
        with pytest.raises(ValueError):
            SimConfig(arrival_rate=1.0, service_rate=1.0, arrival="weird")

    def test_negative_n_events_rejected(self):
        with pytest.raises(ValueError, match="n_events"):
            SimConfig(arrival_rate=1.0, service_rate=1.0, n_events=-1)

    def test_negative_buffer_capacity_rejected(self):
        with pytest.raises(ValueError, match="buffer_capacity"):
            SimConfig(arrival_rate=1.0, service_rate=1.0, buffer_capacity=-1)

    def test_fractional_buffer_capacity_rejected(self):
        with pytest.raises(TypeError):
            SimConfig(arrival_rate=1.0, service_rate=1.0, buffer_capacity=1.5)

    @pytest.mark.parametrize("cap", [None, 0, 3])
    def test_zero_events_empty_trace(self, cap):
        res = simulate_queue(
            SimConfig(arrival_rate=1.0, service_rate=1.0, n_events=0, buffer_capacity=cap)
        )
        assert len(res.trace) == 0 and res.n_dropped == 0

    def test_int64_horizon_overflow_rejected(self):
        # mean service of 1e10 s: 20 of them pass 2**63 ns (about 292 years)
        with pytest.raises(ValueError, match="int64"):
            simulate_queue(SimConfig(arrival_rate=1.0, service_rate=1e-10, n_events=20))


def lindley_reference(arr, svc):
    """d_j = max(a_j, d_{j-1}) + s_j on Python ints, starting idle at 0."""
    out, last = [], 0
    for a, s in zip(arr, svc):
        last = max(a, last) + s
        out.append(last)
    return out


def tail_drop_reference(arr, svc, cap):
    """Per-packet tail drop: release every packet departed by t (a departure
    at t frees its slot), then admit if fewer than cap + 1 remain."""
    in_system, last = deque(), 0
    admitted, departures = [], []
    for i, (t, s) in enumerate(zip(arr, svc)):
        while in_system and in_system[0] <= t:
            in_system.popleft()
        if len(in_system) >= cap + 1:
            continue
        last = max(t, last) + s
        in_system.append(last)
        admitted.append(i)
        departures.append(last)
    return admitted, departures


def sim_inputs_ns(cfg):
    """The arrival instants and service times simulate_queue draws for cfg,
    rounded to Python-int ns."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    inter = queuesim._variates(cfg.arrival, cfg.arrival_rate, cfg.n_events, rng)
    svc = queuesim._variates(cfg.service, cfg.service_rate, cfg.n_events, rng)
    return [round(x * NS) for x in np.cumsum(inter).tolist()], [round(x * NS) for x in svc.tolist()]


def full_columns(trace):
    """(gen_ns, recv_ns) of the anchor update followed by the records."""
    gen = [trace.virtual_origin.gen_ns, *trace.gen_ns.tolist()]
    recv = [trace.observe_start_ns, *trace.recv_ns.tolist()]
    return gen, recv


class TestExactness:
    @pytest.mark.parametrize("arrival", ["poisson", "deterministic"])
    @pytest.mark.parametrize("service", ["exponential", "deterministic"])
    @pytest.mark.parametrize("lam", [0.5, 0.97, 1.3])
    def test_infinite_buffer_matches_integer_lindley(self, arrival, service, lam):
        cfg = SimConfig(arrival_rate=lam, service_rate=1.0, arrival=arrival, service=service,
                        n_events=3000, seed=5, warmup_fraction=0.0)
        arr, svc = sim_inputs_ns(cfg)
        res = simulate_queue(cfg)
        assert full_columns(res.trace) == (arr, lindley_reference(arr, svc))

    @pytest.mark.parametrize("cap", [0, 1, 10])
    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_finite_buffer_matches_deque_reference(self, cap, chunk, monkeypatch):
        # whole-ns steps of 0..3 and services of 1..4 make many arrivals tie
        # a departure or another arrival
        monkeypatch.setattr(queuesim, "_CHUNK", chunk)
        rng = np.random.default_rng(cap)
        arr = np.cumsum(rng.integers(0, 4, 5000)).tolist()
        svc = rng.integers(1, 5, 5000).tolist()
        admitted, departures = tail_drop_reference(arr, svc, cap)
        seq, recv = fcfs_departures(np.array(arr), np.array(svc), cap)
        assert 0 < len(admitted) < len(arr)
        assert seq.tolist() == admitted
        assert recv.tolist() == departures

    def test_arrival_tying_a_departure_is_admitted(self):
        # packet 0 departs at 10, when packet 1 arrives: its slot is free.
        # Packet 2 arrives at 10 too, with packet 1 in service until 15.
        seq, recv = fcfs_departures(np.array([0, 10, 10]), np.array([10, 5, 5]), 0)
        assert seq.tolist() == [0, 1]
        assert recv.tolist() == [10, 15]

    @pytest.mark.parametrize("cap", [0, 1, 10])
    def test_simulated_finite_buffer_matches_deque_reference(self, cap):
        cfg = SimConfig(arrival_rate=1.5, service_rate=1.0, buffer_capacity=cap,
                        n_events=5000, seed=9, warmup_fraction=0.0)
        arr, svc = sim_inputs_ns(cfg)
        admitted, departures = tail_drop_reference(arr, svc, cap)
        res = simulate_queue(cfg)
        assert res.n_dropped == len(arr) - len(admitted)
        assert full_columns(res.trace) == ([arr[i] for i in admitted], departures)
        assert res.trace.seq.tolist() == admitted[1:]


def seed_mean(stat, **config):
    """Mean of stat over 10 seeds at 1e5 events, and its standard error."""
    vals = [stat(simulate_queue(SimConfig(n_events=100_000, seed=s, **config)).trace)
            for s in range(10)]
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


class TestAnalyticOracles:
    # Tolerance: 4 standard errors of the 10-seed mean, with the standard
    # error estimated from the seed-to-seed spread of the same runs. It is
    # fixed in advance, not tuned to pass.
    Z = 4.0

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_mm1_average_age(self, rho):
        mean, se = seed_mean(lambda t: time_average_age(t, "hform"),
                             arrival_rate=rho, service_rate=1.0)
        assert abs(mean - mm1_average_age(rho, 1.0)) <= self.Z * se

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_mm1_peak_age(self, rho):
        mean, se = seed_mean(peak_average_age, arrival_rate=rho, service_rate=1.0)
        assert abs(mean - mm1_peak_age(rho, 1.0)) <= self.Z * se

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_mm11_average_age(self, lam):
        mean, se = seed_mean(lambda t: time_average_age(t, "hform"),
                             arrival_rate=lam, service_rate=1.0, buffer_capacity=0)
        assert abs(mean - mm11_average_age(lam, 1.0)) <= self.Z * se


class TestLoadSweep:
    def test_single_rate(self):
        base = SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=2000)
        res = load_sweep(base, [0.5], seeds_per_point=2)
        assert len(res.points) == 1
        assert res.points[0].arrival_rate == 0.5

    def test_deterministic_given_seed(self):
        base = SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=2000, seed=7)
        a = load_sweep(base, [0.3, 0.6], seeds_per_point=3)
        b = load_sweep(base, [0.3, 0.6], seeds_per_point=3)
        assert a == b

    def test_empty_rates_error(self):
        base = SimConfig(arrival_rate=0.5, service_rate=1.0)
        with pytest.raises(ValueError):
            load_sweep(base, [])

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_fewer_than_one_seed_error(self, seeds):
        base = SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=100)
        with pytest.raises(ValueError, match="seeds_per_point"):
            load_sweep(base, [0.5], seeds_per_point=seeds)

    def test_mm1_u_shape_small(self):
        base = SimConfig(arrival_rate=0.1, service_rate=1.0, n_events=20000, seed=3)
        res = load_sweep(base, [0.1, 0.3, 0.5, 0.7, 0.9], seeds_per_point=3)
        ages = [p.avg_age for p in res.points]
        k = int(np.argmin(ages))
        assert 0 < k < len(ages) - 1
        assert ages[0] > min(ages) and ages[-1] > min(ages)


class TestBiasExperiment:
    def test_linear_difference_equals_b(self):
        base = SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=10000, seed=11)
        unbiased, biased = bias_experiment(base, 1000 * NS, linear(1.0))
        assert biased - unbiased == pytest.approx(1000.0, abs=1e-6)

    def test_zero_bias_zero_difference(self):
        base = SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=5000, seed=11)
        unbiased, biased = bias_experiment(base, 0, linear(1.0))
        assert biased == unbiased

    def test_exponential_difference_varies_across_seeds(self):
        diffs = []
        for seed in range(5):
            base = SimConfig(arrival_rate=0.5, service_rate=1.0, n_events=2000, seed=seed)
            unbiased, biased = bias_experiment(base, NS, exponential(1.0))
            diffs.append(biased - unbiased)
        assert len({round(d, 9) for d in diffs}) > 1
        assert all(d != pytest.approx(1.0, rel=1e-6) for d in diffs)
