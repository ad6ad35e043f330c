"""End-to-end health monitoring: event bus -> HealthMonitor -> verdicts.

Covers the acceptance scenario for the watchdog: a deliberately stalled
reconfiguration must surface as a ``critical`` verdict while the
triggering event is still visible in the bus's ring buffer.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.designs import wami_soc_z
from repro.core.platform import PrEspPlatform
from repro.noc.mesh import Mesh
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.health import HealthMonitor, Verdict
from repro.obs.instrumentation import Instrumentation
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.faults import RuntimeFaultModel, RuntimeFaultOptions
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.vivado.bitstream import Bitstream, BitstreamKind


def build_manager(sim, bus, size_bytes):
    """A minimal one-tile runtime whose only partial bitstream is
    ``size_bytes`` long, so the ICAP transfer time is under test control."""
    mesh = Mesh(3, 3, clock_hz=78e6)
    prc = PrcDevice(sim, mesh, mem_position=(0, 1), aux_position=(0, 2))
    store = BitstreamStore()
    store.load(
        Bitstream(
            name="rt0_fft.pbs",
            kind=BitstreamKind.PARTIAL,
            size_bytes=size_bytes,
            compressed=True,
            target_rp="rt0",
            mode="fft",
        ),
        "rt0",
    )
    registry = DriverRegistry()
    registry.install(AcceleratorDriver(accelerator="fft", exec_time_s=0.010))
    bus.use_clock(lambda: sim.now)
    manager = ReconfigurationManager(
        sim, prc, store, registry, instrumentation=Instrumentation(events=bus)
    )
    manager.attach_tile("rt0")
    return manager


class TestStalledReconfiguration:
    def test_stalled_reconfiguration_goes_critical(self, sim):
        """A transfer still in flight past the deadline is flagged
        ``critical``, and the RECONFIG_STARTED event that tripped the
        watchdog is retrievable from the ring buffer."""
        bus = EventBus()
        monitor = HealthMonitor(bus, reconfig_deadline_s=0.05)
        # ~400 MB partial: several simulated seconds of ICAP streaming.
        manager = build_manager(sim, bus, size_bytes=400_000_000)
        manager.invoke("rt0", "fft")
        sim.run(until=0.5)  # freeze mid-transfer, well past the deadline

        report = monitor.report(now=sim.now)
        assert report.verdict is Verdict.CRITICAL
        assert report.verdict.exit_code == 2
        finding = report.findings[0]
        assert finding.rule == "stuck-reconfiguration"
        assert "rt0" in finding.message
        assert report.active_reconfigs["rt0"] == pytest.approx(0.5, abs=1e-3)

        # The triggering event is still in the (unwrapped) ring buffer.
        started = bus.events(ev.RECONFIG_STARTED)
        assert len(started) == 1
        assert started[0].source == "rt0"
        assert started[0].attrs["mode"] == "fft"
        assert bus.dropped == 0

    def test_fast_reconfiguration_stays_ok(self, sim):
        bus = EventBus()
        monitor = HealthMonitor(bus, reconfig_deadline_s=0.05)
        manager = build_manager(sim, bus, size_bytes=300_000)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        assert proc.value.reconfig_s < 0.05
        report = monitor.report(now=sim.now)
        assert report.verdict is Verdict.OK
        assert report.active_reconfigs == {}
        assert report.reconfig_s.count == 1


class TestMonitorWami:
    def test_healthy_deployment_reports_ok(self):
        platform = PrEspPlatform()
        report, health, bus = platform.monitor_wami(wami_soc_z(), frames=2)
        assert report.frames == 2
        assert health.verdict is Verdict.OK
        assert health.completions > 0
        assert health.failures == 0
        assert bus.emitted > 0
        kinds = {event.kind for event in bus.events()}
        assert ev.RECONFIG_STARTED in kinds
        assert ev.RECONFIG_COMPLETED in kinds

    def test_injected_failures_degrade_the_verdict(self):
        faults = RuntimeFaultModel()
        faults.inject("rt1", "change_detection", count=1)
        platform = PrEspPlatform()
        _report, health, bus = platform.monitor_wami(
            wami_soc_z(),
            frames=2,
            failure_rate_degraded=0.001,
            runtime_options=RuntimeFaultOptions(faults=faults),
        )
        assert health.verdict is Verdict.DEGRADED
        assert health.failures >= 1
        failed = bus.events(ev.RECONFIG_FAILED)
        assert failed and failed[0].source == "rt1"
        assert failed[0].attrs["abandoned"] is False  # retry succeeded


class TestMonitorCli:
    def test_healthy_run_exits_zero(self, capsys):
        assert main(["monitor", "soc_z", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict       : OK" in out
        assert "recent events" in out

    def test_injected_failure_exits_one(self, capsys):
        code = main([
            "monitor", "soc_z", "--frames", "2",
            "--inject", "runtime:rt1:change_detection:crc:1",
            "--failure-rate-degraded", "0.001",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict       : DEGRADED" in out
        assert "failure-rate" in out

    def test_json_payload(self, capsys):
        assert main(["monitor", "soc_z", "--frames", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "ok"
        assert payload["deploy"]["config"] == "soc_z"
        assert payload["deploy"]["frames"] == 1
        assert payload["events"]
        assert {"seq", "kind", "time", "source", "attrs"} <= set(
            payload["events"][0]
        )

    def test_bad_injection_spec_is_an_error(self, capsys):
        assert main(["monitor", "soc_z", "--inject", "runtime:rt1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_event_count_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "soc_x", "--events", "-1"])
        assert exc.value.code == 2
        assert "--events: must be >= 0" in capsys.readouterr().err


class TestBenchDiffCli:
    def write_demo_summary(self, results, value):
        from repro.obs.baseline import write_summary

        write_summary(results, "demo", {"total_min": value})

    def test_no_baselines_is_an_error(self, tmp_path, capsys):
        code = main([
            "bench-diff",
            "--results-dir", str(tmp_path / "results"),
            "--baselines-dir", str(tmp_path / "baselines"),
        ])
        assert code == 1
        assert "no baselines" in capsys.readouterr().err

    def test_update_then_clean_run_exits_zero(self, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        self.write_demo_summary(results, 100.0)
        args = [
            "bench-diff",
            "--results-dir", str(results),
            "--baselines-dir", str(baselines),
        ]
        assert main(args + ["--update"]) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "1/1 experiments in band" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        self.write_demo_summary(results, 100.0)
        args = [
            "bench-diff",
            "--results-dir", str(results),
            "--baselines-dir", str(baselines),
        ]
        assert main(args + ["--update"]) == 0
        capsys.readouterr()
        # Inject a 25% slowdown against the freshly pinned baseline.
        self.write_demo_summary(results, 125.0)
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "+25.0%" in out

    def test_committed_baselines_pin_every_value_exactly(self, tmp_path, capsys):
        # A scratch copy of the committed summaries passes the committed
        # baselines (within the few-ulp float slack); a 0.1% edit to one
        # value fails the gate.
        benchmarks = Path(__file__).resolve().parents[2] / "benchmarks"
        results = tmp_path / "results"
        results.mkdir()
        for summary in (benchmarks / "results").glob("BENCH_*.json"):
            shutil.copy(summary, results)
        args = [
            "bench-diff",
            "--results-dir", str(results),
            "--baselines-dir", str(benchmarks / "baselines"),
        ]
        assert main(args) == 0
        assert "19/19 experiments in band" in capsys.readouterr().out
        edited = results / "BENCH_table5_vs_monolithic.json"
        document = json.loads(edited.read_text())
        document["metrics"]["soc_b_presp_total_min"] *= 1.001
        edited.write_text(json.dumps(document))
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "18/19 experiments in band" in out
