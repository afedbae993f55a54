import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoikit import (
    PenaltyDomainError,
    Trace,
    TraceError,
    area_decomposition,
    compute_statistics,
    exponential,
    linear,
    logarithmic,
    loss_runs,
    peak_average_age,
    penalty_average,
    sample_path,
    time_average_age,
)

from aoikit.agestats import hform_and_peak_age
from conftest import integrate_age, integrate_penalty, random_trace

GOLDEN = Trace.from_seconds(
    [(0, 1), (2, 3)], initial_age=1.0, observe_start=0, observe_end=4
)
GOLDEN_PAIRS = [(0.0, 1.0), (2.0, 3.0)]


def sec_points(path):
    return [(t / 1e9, a / 1e9) for t, a in path.breakpoints]


class TestSamplePath:
    def test_golden_breakpoints(self):
        assert sec_points(sample_path(GOLDEN)) == [
            (0, 1),
            (1, 2),
            (1, 1),
            (3, 3),
            (3, 1),
            (4, 2),
        ]

    def test_no_records_grows_linearly(self):
        tr = Trace.from_seconds([], initial_age=1.0, observe_start=0, observe_end=4)
        assert sec_points(sample_path(tr)) == [(0, 1), (4, 5)]

    def test_zero_delay_periodic_oscillates(self):
        tr = Trace.from_seconds(
            [(i, i) for i in range(1, 5)], initial_age=0.0, observe_start=0, observe_end=4
        )
        ages = [a for _, a in sample_path(tr).breakpoints]
        assert max(ages) == 10**9 and min(ages) == 0

    def test_evaluate_matches_definition_oracle(self, rng):
        from conftest import age_at

        for _ in range(20):
            tr = random_trace(rng)
            path = sample_path(tr)
            pairs = [(r.gen_ns / 1e9, r.recv_ns / 1e9) for r in tr.records]
            for t in rng.uniform(tr.observe_start_ns / 1e9, tr.observe_end_ns / 1e9, 10):
                t_ns = round(t * 1e9)
                assert path.evaluate(t_ns) / 1e9 == pytest.approx(
                    age_at(t_ns / 1e9, pairs, tr.initial_age_ns / 1e9, tr.observe_start_ns / 1e9),
                    abs=1e-9,
                )


class TestTimeAverageAge:
    def test_golden_three_methods_on_reception_horizon(self):
        # frozen from the exact piecewise-linear area on [0, 3]: 5.5 / 3
        expected = integrate_age(GOLDEN_PAIRS, 1.0, 0.0, 0.0, 3.0) / 3.0
        assert expected == pytest.approx(5.5 / 3)
        assert time_average_age(GOLDEN, "qform") == pytest.approx(expected, rel=1e-12)
        assert time_average_age(GOLDEN, "hform") == pytest.approx(expected, rel=1e-12)

    def test_golden_geometric_full_window(self):
        expected = integrate_age(GOLDEN_PAIRS, 1.0, 0.0, 0.0, 4.0) / 4.0
        assert expected == pytest.approx(7 / 4)
        assert time_average_age(GOLDEN, "geometric") == pytest.approx(expected, rel=1e-12)

    def test_unit_sawtooth(self):
        tr = Trace.from_seconds(
            [(i, i) for i in range(1, 11)], initial_age=0.0, observe_start=0, observe_end=10
        )
        assert time_average_age(tr, "geometric") == pytest.approx(0.5, rel=1e-12)

    def test_no_effective_updates_is_error(self):
        tr = Trace.from_seconds([], initial_age=1.0, observe_start=0, observe_end=4)
        with pytest.raises(TraceError, match="no effective updates"):
            time_average_age(tr, "hform")

    def test_dual_form_equality_random(self, rng):
        for _ in range(200):
            tr = random_trace(rng)
            g = time_average_age(
                Trace(
                    records=tr.records,
                    initial_age_ns=tr.initial_age_ns,
                    observe_start_ns=tr.observe_start_ns,
                    observe_end_ns=tr.records[-1].recv_ns,
                ),
                "geometric",
            )
            q = time_average_age(tr, "qform")
            h = time_average_age(tr, "hform")
            assert abs(q - h) <= 1e-9 * abs(h)
            assert abs(g - h) <= 1e-9 * abs(h)

    def test_geometric_matches_oracle_random(self, rng):
        for _ in range(50):
            tr = random_trace(rng)
            pairs = [(r.gen_ns / 1e9, r.recv_ns / 1e9) for r in tr.records]
            t0, t1 = tr.observe_start_ns / 1e9, tr.observe_end_ns / 1e9
            oracle = integrate_age(pairs, tr.initial_age_ns / 1e9, t0, t0, t1) / (t1 - t0)
            assert time_average_age(tr, "geometric") == pytest.approx(oracle, rel=1e-9)


class TestAreaDecomposition:
    def test_sums_match_geometric_area(self, rng):
        for _ in range(100):
            tr = random_trace(rng)
            dec = area_decomposition(tr)
            assert dec.q_area == pytest.approx(dec.h_area, rel=1e-9)
            pairs = [(r.gen_ns / 1e9, r.recv_ns / 1e9) for r in tr.records]
            t0 = tr.observe_start_ns / 1e9
            area = integrate_age(pairs, tr.initial_age_ns / 1e9, t0, t0, t0 + dec.horizon)
            assert dec.h_area == pytest.approx(area, rel=1e-9)

    def test_interval_terms_consistent(self, rng):
        tr = random_trace(rng, n=30)
        dec = area_decomposition(tr)
        recv = [tr.observe_start_ns / 1e9] + [r.recv_ns / 1e9 for r in tr.records]
        for (beta, theta), r_prev, r_cur in zip(dec.interval_terms, recv, recv[1:]):
            assert theta > beta >= 0
            assert theta - beta == pytest.approx(r_cur - r_prev, rel=1e-9)


class TestPeakAverageAge:
    def test_golden(self):
        assert peak_average_age(GOLDEN) == pytest.approx(2.5, rel=1e-12)

    def test_zero_delay_periodic(self):
        tr = Trace.from_seconds(
            [(i, i) for i in range(1, 6)], initial_age=0.0, observe_start=0
        )
        assert peak_average_age(tr) == pytest.approx(1.0, rel=1e-12)

    def test_single_update(self):
        tr = Trace.from_seconds([(0, 5)], initial_age=1.0, observe_start=0)
        assert peak_average_age(tr) == pytest.approx(6.0, rel=1e-12)

    def test_equals_mean_of_pre_jump_path_values(self, rng):
        for _ in range(30):
            tr = random_trace(rng)
            path = sample_path(tr)
            # breakpoints store (peak, post-jump) in order: peak is the first
            peaks = [
                a0 / 1e9
                for (t0, a0), (t1, a1) in zip(path.breakpoints, path.breakpoints[1:])
                if t0 == t1
            ]
            assert peak_average_age(tr) == pytest.approx(np.mean(peaks), rel=1e-9)

    def test_peak_dominates_time_average_homogeneous(self, rng):
        # with comparable teeth (bounded initial age and delays) the
        # unweighted peak mean dominates the duration-weighted time average
        for _ in range(100):
            tr = random_trace(rng, n=40, max_delay=0.5, max_gap=1.0)
            assert peak_average_age(tr) >= time_average_age(tr, "hform") - 1e-12

    def test_peak_dominance_counterexample(self):
        # per-trace dominance is not universal: one long interval with a
        # large starting age outweighs the unweighted mean of the peaks
        tr = Trace.from_seconds(
            [(10.0, 10.0), (10.05, 10.1)], initial_age=10.0, observe_start=0
        )
        assert peak_average_age(tr) < time_average_age(tr, "hform")

    def test_one_pass_pair_is_bit_identical(self, rng):
        for _ in range(50):
            tr = random_trace(rng)
            assert hform_and_peak_age(tr) == (time_average_age(tr, "hform"), peak_average_age(tr))
        with pytest.raises(TraceError):
            hform_and_peak_age(Trace.from_seconds([], observe_start=0, observe_end=1))


class TestPenaltyAverage:
    def test_linear_reduces_to_time_average(self, rng):
        for _ in range(50):
            tr = random_trace(rng)
            assert penalty_average(tr, linear(1.0)) == pytest.approx(
                time_average_age(tr, "hform"), rel=1e-9
            )

    def test_exponential_matches_quadrature_oracle(self):
        f = exponential(0.5)
        pairs = GOLDEN_PAIRS
        oracle = integrate_penalty(
            lambda x: math.exp(0.5 * x) - 1.0, pairs, 1.0, 0.0, 0.0, 3.0
        ) / 3.0
        assert penalty_average(GOLDEN, f) == pytest.approx(oracle, rel=1e-6)

    def test_logarithmic_closed_form_tooth(self):
        # one unit sawtooth tooth: integral of ln(t+1) over [0,1] = 2 ln 2 - 1
        tr = Trace.from_seconds(
            [(i, i) for i in range(1, 11)], initial_age=0.0, observe_start=0
        )
        assert penalty_average(tr, logarithmic(1.0)) == pytest.approx(
            2 * math.log(2) - 1, rel=1e-12
        )

    def test_quadrature_oracle_random(self, rng):
        for _ in range(10):
            tr = random_trace(rng, n=8)
            pairs = [(r.gen_ns / 1e9, r.recv_ns / 1e9) for r in tr.records]
            t0 = tr.observe_start_ns / 1e9
            t1 = tr.records[-1].recv_ns / 1e9
            f = exponential(0.3)
            oracle = integrate_penalty(
                lambda x: math.exp(0.3 * x) - 1.0, pairs, tr.initial_age_ns / 1e9, t0, t0, t1
            ) / (t1 - t0)
            assert penalty_average(tr, f) == pytest.approx(oracle, rel=1e-6)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            linear(0.0)
        with pytest.raises(ValueError):
            exponential(-1.0)


class TestLossRuns:
    def test_single_run(self):
        assert loss_runs([1, 2, 3, 7]) == {3: 1}

    def test_contiguous(self):
        assert loss_runs([0, 1, 2, 3]) == {}

    def test_multiple_runs(self):
        assert loss_runs([0, 2, 3, 10]) == {1: 1, 6: 1}


class TestComputeStatistics:
    def test_zero_delay_periodic(self):
        tr = Trace.from_seconds(
            [(i, i) for i in range(1, 11)], initial_age=0.0, observe_start=0
        )
        stats = compute_statistics(tr)
        assert stats.avg_age == pytest.approx(0.5, rel=1e-12)
        assert stats.peak_age == pytest.approx(1.0, rel=1e-12)
        assert stats.max_age == pytest.approx(1.0, rel=1e-12)
        assert stats.loss_runs == {}

    def test_stale_records_do_not_change_ages(self):
        base = Trace.from_seconds(
            [(0, 1), (2, 3), (4, 5)], initial_age=1.0, observe_start=0
        )
        with_stale = Trace.from_seconds(
            [(0, 1), (2, 3), (1, 3.5), (4, 5)],
            initial_age=1.0,
            observe_start=0,
            seqs=[0, 1, 2, 3],
        )
        a, b = compute_statistics(base), compute_statistics(with_stale)
        assert a.avg_age == b.avg_age
        assert a.peak_age == b.peak_age
        assert b.n_stale_discarded == 1

    def test_empty_trace(self):
        tr = Trace(records=(), observe_start_ns=0, observe_end_ns=10)
        stats = compute_statistics(tr)
        assert stats.avg_age is None and stats.n_effective == 0


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(0.01, 5.0),  # inter-reception gap
            st.floats(0.0, 4.0),  # delay
        ),
        min_size=2,
        max_size=40,
    ),
    initial_age=st.floats(0.01, 5.0),
)
def test_dual_form_equality_property(data, initial_age):
    """Q-form, H-form and geometric (restricted to the reception horizon)
    agree on arbitrary valid traces."""
    recv, gen = [], []
    t, prev_gen = 1.0, 1.0 - initial_age  # virtual predecessor generation
    for gap, delay in data:
        t += gap
        g = max(prev_gen + 1e-3, t - delay)
        recv.append(t)
        gen.append(min(g, t))
        prev_gen = gen[-1]
    tr = Trace.from_seconds(
        list(zip(gen, recv)), initial_age=initial_age, observe_start=1.0
    )
    q = time_average_age(tr, "qform")
    h = time_average_age(tr, "hform")
    g = time_average_age(tr, "geometric")  # window already ends at r_N
    assert abs(q - h) <= 1e-9 * abs(h)
    assert abs(g - h) <= 1e-9 * abs(h)


# -- vectorized statistics against the scalar per-record loops ----------------


def scalar_reference(trace, penalties):
    """Every statistic from per-record Python loops: the stale filter, the
    sawtooth breakpoints and their trapezoid areas, and the per-interval
    terms, evaluated one record at a time. Returns {name: value or the
    exception type raised}."""
    ns = 1e9
    start, end = trace.observe_start_ns, trace.observe_end_ns
    newest, kept = None, []
    for r in trace.records:  # effective trace
        if newest is None or r.gen_ns > newest:
            kept.append(r)
            newest = r.gen_ns
    origin_gen = start - trace.initial_age_ns
    recs = [r for r in kept if r.gen_ns > origin_gen]

    cur = origin_gen
    pts = [(start, start - cur)]
    for r in recs:
        pts += [(r.recv_ns, r.recv_ns - cur), (r.recv_ns, r.recv_ns - r.gen_ns)]
        cur = r.gen_ns
    if end > pts[-1][0]:
        pts.append((end, end - cur))
    out = {"max": max(a for _, a in pts) / ns}
    if end <= start:
        out["geometric"] = TraceError
    else:
        area = 0.0
        for (ta, aa), (tb, _) in zip(pts, pts[1:]):
            if tb > ta:  # a jump is two breakpoints at one instant
                area += (tb - ta) * (aa + aa + (tb - ta)) / 2.0
        out["geometric"] = area / (ns * ns) / ((end - start) / ns)

    horizon = (recs[-1].recv_ns - start) / ns if recs else 0.0
    if not recs or horizon <= 0:
        for name in ("qform", "hform", "peak", *penalties):
            out[name] = TraceError
        return out
    beta, theta, q_terms = np.empty(len(recs)), np.empty(len(recs)), []
    prev_gen, prev_recv = origin_gen, start
    for i, r in enumerate(recs):
        beta[i] = (prev_recv - prev_gen) / ns
        theta[i] = (r.recv_ns - prev_gen) / ns
        x, y = (r.gen_ns - prev_gen) / ns, (r.recv_ns - r.gen_ns) / ns
        q_terms.append(x * y + x * x / 2.0)
        prev_gen, prev_recv = r.gen_ns, r.recv_ns
    d = theta - beta
    out["hform"] = float(np.sum(d * beta + d * d / 2.0)) / horizon
    y_last, age0 = (recs[-1].recv_ns - recs[-1].gen_ns) / ns, trace.initial_age_ns / ns
    out["qform"] = (sum(q_terms) + y_last * y_last / 2.0 - age0 * age0 / 2.0) / horizon
    out["peak"] = float(np.mean(theta))
    for name, f in penalties.items():
        try:
            out[name] = float(np.sum(f.F(theta) - f.F(beta))) / horizon
        except PenaltyDomainError:
            out[name] = PenaltyDomainError
    return out


def outcome(fn):
    try:
        return fn()
    except (TraceError, PenaltyDomainError) as exc:
        return type(exc)


@st.composite
def mixed_traces(draw):
    """Traces with stale records, records older than the virtual origin, a
    negative initial age (as after a negative clock shift), and possibly no
    effective update at all."""
    n = draw(st.integers(0, 30))
    start = draw(st.integers(-10**12, 10**12))
    gaps = draw(st.lists(st.integers(0, 2 * 10**9), min_size=n, max_size=n))
    delays = draw(st.lists(st.integers(0, 4 * 10**9), min_size=n, max_size=n))
    recv = np.cumsum([start, *gaps])[1:]
    return Trace(
        seq=range(n),
        gen_ns=recv - np.array(delays, dtype=np.int64),
        recv_ns=recv,
        initial_age_ns=draw(st.integers(-2 * 10**9, 3 * 10**9)),
        observe_start_ns=start,
        observe_end_ns=(int(recv[-1]) if n else start) + draw(st.integers(0, 2 * 10**9)),
    )


PENALTIES = {"linear": linear(1.0), "exp": exponential(0.5), "log": logarithmic(1.0)}


@settings(max_examples=300, deadline=None)
@given(tr=mixed_traces())
def test_vectorized_matches_scalar_reference(tr):
    want = scalar_reference(tr, PENALTIES)
    got = {
        "geometric": outcome(lambda: time_average_age(tr, "geometric")),
        "qform": outcome(lambda: time_average_age(tr, "qform")),
        "hform": outcome(lambda: time_average_age(tr, "hform")),
        "peak": outcome(lambda: peak_average_age(tr)),
        **{k: outcome(lambda f=f: penalty_average(tr, f)) for k, f in PENALTIES.items()},
    }
    stats = outcome(lambda: compute_statistics(tr))
    if stats is not TraceError and stats.n_effective:
        got["max"] = stats.max_age
    else:
        got["max"] = max(a for _, a in sample_path(tr).breakpoints) / 1e9
    for name, value in want.items():
        if isinstance(value, type):
            assert got[name] is value, name
        else:
            assert got[name] == pytest.approx(value, rel=1e-12, abs=0.0), name
