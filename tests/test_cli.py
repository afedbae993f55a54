import csv
import io
import json
import socket
from dataclasses import asdict, fields

import numpy as np
import pytest

import aoikit.net.regions
from aoikit import Trace, read_trace_csv, write_trace_csv
from aoikit.cli import main
from aoikit.net import BUSY, PANICKED, RELAXED, RegionLabel, classify_regions

GOLDEN = Trace.from_seconds(
    [(0, 1), (2, 3)], initial_age=1.0, observe_start=0, observe_end=4
)


@pytest.fixture
def golden_csv(tmp_path):
    path = tmp_path / "golden.csv"
    with open(path, "w") as fp:
        write_trace_csv(GOLDEN, fp)
    return str(path)


class TestAnalyze:
    def test_golden_outputs(self, golden_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--mode", "analyze", "--trace", golden_csv, "--out", str(out)])
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["avg_age_s"] == pytest.approx(1.75)
        assert stats["peak_age_s"] == pytest.approx(2.5)
        assert stats["n_effective"] == 2
        # sample path CSV has header plus one row per breakpoint
        lines = (out / "samplepath.csv").read_text().splitlines()
        assert lines[0] == "t_ns,age_ns"
        assert len(lines) == 7
        assert (out / "regions.csv").exists()
        assert (out / "manifest.json").exists()
        printed = json.loads(capsys.readouterr().out)
        assert printed["avg_age_s"] == pytest.approx(1.75)

    def test_penalty_selection(self, golden_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["--mode", "analyze", "--trace", golden_csv, "--out", str(out),
                   "--penalty", "exp", "--alpha", "0.5"])
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["avg_penalty"] > 0

    def test_missing_trace_flag_usage_error(self, tmp_path, capsys):
        assert main(["--mode", "analyze", "--out", str(tmp_path)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_runtime_error(self, tmp_path, capsys):
        rc = main(["--mode", "analyze", "--trace", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_empty_trace_runtime_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("seq,gen_ns,recv_ns\n")
        rc = main(["--mode", "analyze", "--trace", str(path), "--out", str(tmp_path)])
        assert rc == 2

    def test_corrupt_trace_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("seq,gen_ns,recv_ns\n0,10,xyz\n")
        rc = main(["--mode", "analyze", "--trace", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_loss_runs_reported(self, tmp_path):
        tr = Trace.from_seconds(
            [(0, 1), (1, 2), (5, 6)], initial_age=1.0, observe_start=0,
            seqs=[0, 1, 5],
        )
        path = tmp_path / "gappy.csv"
        with open(path, "w") as fp:
            write_trace_csv(tr, fp)
        out = tmp_path / "out"
        assert main(["--mode", "analyze", "--trace", str(path), "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["loss_runs"] == {"3": 1}


def write_reordered_trace(path, delay_ns):
    """Write 7 s of 1 kHz receptions whose seqs are shuffled in blocks of 7,
    so adjacent windows' seq ranges overlap, with 2 % of them lost;
    ``delay_ns(rng, n)`` gives each update's delay."""
    rng = np.random.default_rng(5)
    seq = rng.permuted(np.arange(7000).reshape(-1, 7), axis=1).ravel()
    kept = np.flatnonzero(rng.random(len(seq)) >= 0.02)
    recv = 1_700_000_000 * 10**9 + kept * 10**6
    trace = Trace(seq=seq[kept], gen_ns=recv - delay_ns(rng, len(kept)), recv_ns=recv,
                  observe_start_ns=recv[0], observe_end_ns=recv[-1])
    with open(path, "w") as fp:
        write_trace_csv(trace, fp)


def zero_delay(rng, n):
    return np.zeros(n, dtype=np.int64)


def jittered_delay(rng, n):
    return 5 * 10**6 + rng.integers(0, 10**6, n)


class TestRegionsCsv:
    @pytest.mark.parametrize("delay_ns", [zero_delay, jittered_delay])
    def test_equals_dictwriter_of_labels(self, delay_ns, tmp_path, monkeypatch):
        monkeypatch.setattr(aoikit.net.regions, "_CHUNK_WINDOWS", 3)  # several chunks, a short last one
        path, out = tmp_path / "trace.csv", tmp_path / "out"
        write_reordered_trace(path, delay_ns)
        assert main(["--mode", "analyze", "--trace", str(path), "--out", str(out)]) == 0
        with open(path) as fp:
            report = classify_regions(read_trace_csv(fp))
        labels = report.labels
        assert len(labels) == 7
        assert any(a.end_seq >= b.start_seq for a, b in zip(labels, labels[1:]))
        assert any(len(repr(lab.loss_rate)) >= 18 for lab in labels)
        if delay_ns is zero_delay:
            assert report.baseline_delay_s == 0.0
            assert all(lab.delay_ratio == float("inf") for lab in labels)
        else:
            assert any(len(repr(lab.delay_ratio)) >= 18 for lab in labels)
        expected = io.StringIO()
        writer = csv.DictWriter(expected, fieldnames=[f.name for f in fields(RegionLabel)])
        writer.writeheader()
        writer.writerows(asdict(lab) for lab in labels)
        assert (out / "regions.csv").read_bytes() == expected.getvalue().encode()


class TestNoLabelObjects:
    """Neither analyze nor the net sweep's post-processing builds a
    RegionLabel: each works on the report's columns."""

    @pytest.fixture(autouse=True)
    def refuse_labels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a RegionLabel was built")

        monkeypatch.setattr(aoikit.net.regions, "RegionLabel", refuse)

    def test_analyze(self, tmp_path):
        path, out = tmp_path / "trace.csv", tmp_path / "out"
        write_reordered_trace(path, jittered_delay)
        assert main(["--mode", "analyze", "--trace", str(path), "--out", str(out)]) == 0
        assert len((out / "regions.csv").read_text().splitlines()) == 8

    def test_net_sweep(self, tmp_path):
        rc = main(["--mode", "sweep", "--sweep-kind", "net", "--rate-plan", "200:200:100:0.2",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sweep.csv") as fp:
            assert next(csv.DictReader(fp))["region"] in (RELAXED, BUSY, PANICKED)


class TestSimulate:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["--mode", "simulate", "--lambda", "0.5", "--events", "2000",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["load"] == pytest.approx(0.5)
        assert not summary["unstable"]

    def test_requires_lambda(self, tmp_path):
        assert main(["--mode", "simulate", "--out", str(tmp_path)]) == 1

    def test_bad_lambda_runtime_error(self, tmp_path):
        rc = main(["--mode", "simulate", "--lambda", "-1", "--out", str(tmp_path)])
        assert rc == 2


class TestSweep:
    def test_sim_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["--mode", "sweep", "--rates", "0.3,0.6", "--events", "2000",
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["lambda"] for r in rows] == [0.3, 0.6]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 points

    def test_sim_sweep_requires_rates(self, tmp_path):
        assert main(["--mode", "sweep", "--out", str(tmp_path)]) == 1

    def test_net_sweep_requires_plan(self, tmp_path):
        assert main(["--mode", "sweep", "--sweep-kind", "net",
                     "--out", str(tmp_path)]) == 1

    def test_net_sweep_csv_columns(self, tmp_path):
        rc = main(["--mode", "sweep", "--sweep-kind", "net", "--rate-plan", "200:200:100:0.2",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "sweep.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert list(rows[0]) == ["offered_rate", "achieved_rate", "sent", "received", "avg_age_s",
                                 "peak_age_s", "loss_fraction", "region", "shortfall"]
        assert int(rows[0]["received"]) > 0
        assert (tmp_path / "trace.csv").exists()


class TestMeasure:
    def test_relay_forward_failure_exits_2(self, tmp_path, capsys):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()
        rc = main(["--mode", "measure", "--role", "relay", "--proto", "tcp", "--addr", "127.0.0.1:0",
                   "--forward", f"{host}:{port}", "--service-rate", "100", "--duration-s", "0.3",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "relay failed: forwarding to" in capsys.readouterr().err


class TestBiasExperiment:
    def test_linear_difference_rows(self, tmp_path, capsys):
        out = tmp_path / "bias"
        rc = main(["--mode", "bias-experiment", "--lambda", "0.5",
                   "--events", "2000", "--seeds", "3",
                   "--bias-ns", str(2 * 10**9), "--out", str(out)])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        for row in rows:
            assert row["difference"] == pytest.approx(2.0, abs=1e-6)
        assert (out / "bias.csv").exists()

    def test_requires_lambda(self, tmp_path):
        assert main(["--mode", "bias-experiment", "--out", str(tmp_path)]) == 1


class TestManifest:
    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--mode", "simulate", "--lambda", "0.7", "--events", "3000",
                "--seed", "42"]
        assert main([*args, "--out", str(a)]) == 0
        assert main(["--from-manifest", str(a / "manifest.json"),
                     "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_manifest_records_argv(self, tmp_path):
        out = tmp_path / "m"
        args = ["--mode", "simulate", "--lambda", "0.5", "--events", "1000",
                "--out", str(out)]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "aoikit"
        assert manifest["argv"] == args


class TestRejectedInput:
    """Each input rejected before any output is written: an exit code, one
    error line and no traceback."""

    @pytest.mark.parametrize("argv, code, message", [
        *(pytest.param(["--mode", "analyze", "--window-s", w], 2, "error: region window must round to 1 ns",
                       id=f"window-s={w}") for w in ["0", "1e-12", "-1", "inf", "nan"]),
        pytest.param(["--mode", "sweep", "--rates", "0.5", "--events", "100", "--seeds", "0"], 1,
                     "usage error: argument --seeds: must be at least 1", id="sweep-seeds=0"),
        pytest.param(["--mode", "bias-experiment", "--lambda", "0.5", "--events", "100", "--seeds", "0"], 1,
                     "usage error: argument --seeds: must be at least 1", id="bias-seeds=0"),
    ])
    def test_rejected(self, argv, code, message, golden_csv, tmp_path, capsys):
        out = tmp_path / "out"
        if "analyze" in argv:
            argv = [*argv, "--trace", golden_csv]
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err
        assert {p.name for p in out.glob("*")} <= {"manifest.json"}


class TestUsage:
    def test_no_mode(self, tmp_path):
        assert main([]) == 1

    def test_unknown_mode(self):
        assert main(["--mode", "frobnicate"]) == 1

    def test_bad_addr(self):
        assert main(["--mode", "measure", "--role", "probe",
                     "--addr", "notanaddr"]) == 1

    def test_measure_requires_role(self, tmp_path):
        assert main(["--mode", "measure", "--out", str(tmp_path)]) == 1
