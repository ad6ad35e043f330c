"""End-to-end runtime resilience: faults -> recovery -> degraded runs.

The acceptance scenarios of the resilience layer: a WAMI deployment
under persistent runtime faults completes degraded (quarantine plus
scheduler failover) instead of deadlocking, same-seed deployments
replay the identical fault timeline, and the CLI exposes the whole
path (``deploy``/``monitor`` exit semantics included).
"""

import json

import pytest

from repro import api
from repro.cli import main
from repro.core.designs import wami_soc_y
from repro.obs import events as ev
from repro.obs.health import Verdict
from repro.runtime.faults import (
    PERSISTENT,
    RecoveryPolicy,
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)

CRC = RuntimeFaultKind.BITSTREAM_CORRUPTION


def quarantine_rt1_options():
    model = RuntimeFaultModel()
    model.inject("rt1", "change_detection", CRC, count=PERSISTENT)
    return RuntimeFaultOptions(faults=model)


class TestDegradedWamiDeployment:
    def test_wami_completes_with_a_quarantined_tile(self):
        report, health, bus = api.monitor(
            wami_soc_y(), frames=2, runtime_options=quarantine_rt1_options()
        )
        # The run completed every frame despite rt1 going away.
        assert report.frames == 2
        assert report.seconds_per_frame > 0
        stats = report.runtime_stats
        assert stats.quarantined == {"rt1": "crc"}
        assert stats.tiles["rt1"].quarantined
        assert stats.failovers > 0
        assert stats.fallbacks > 0  # change_detection fell back first
        # Health: degraded, not critical, and the verdict maps to exit 1.
        assert health.verdict is Verdict.DEGRADED
        assert health.verdict.exit_code == 1
        assert health.quarantined_tiles == ["rt1"]
        assert health.failovers == stats.failovers
        rules = {f.rule for f in health.findings}
        assert "tile-quarantined" in rules
        assert "scheduler-failover" in rules
        # The timeline shows the re-planning.
        failovers = bus.events(ev.SCHED_FAILOVER)
        assert failovers and failovers[0].source == "rt1"
        assert bus.events(ev.TILE_QUARANTINED)

    def test_degraded_run_is_slower_than_healthy(self):
        healthy = api.deploy(wami_soc_y(), frames=2)
        degraded = api.deploy(
            wami_soc_y(), frames=2, runtime_options=quarantine_rt1_options()
        )
        assert degraded.seconds_per_frame > healthy.seconds_per_frame
        assert healthy.runtime_stats.quarantined == {}
        assert healthy.runtime_stats.failovers == 0

    def test_custom_recovery_policy_is_honoured(self):
        model = RuntimeFaultModel()
        model.inject("rt1", "change_detection", CRC, count=PERSISTENT)
        options = RuntimeFaultOptions(
            faults=model, recovery=RecoveryPolicy(quarantine_after=1)
        )
        report = api.deploy(wami_soc_y(), frames=1, runtime_options=options)
        stats = report.runtime_stats
        assert stats.quarantined == {"rt1": "crc"}
        # quarantine_after=1: the very first abandonment quarantined the
        # tile, so no fallback ever ran.
        assert stats.fallbacks == 0


class TestSameSeedDeterminism:
    def stochastic_options(self):
        return RuntimeFaultOptions(
            faults=RuntimeFaultModel(seed=3, rates={CRC: 0.15})
        )

    def event_log(self, bus):
        return [
            (e.kind, e.time, e.source, tuple(sorted(e.attrs.items())))
            for e in bus.events()
        ]

    def test_same_seed_deploys_replay_identically(self):
        runs = []
        for _ in range(2):
            report, health, bus = api.monitor(
                wami_soc_y(), frames=2, runtime_options=self.stochastic_options()
            )
            runs.append(
                (
                    self.event_log(bus),
                    report.runtime_stats.to_dict(),
                    report.seconds_per_frame,
                    health.to_dict(),
                )
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]
        assert runs[0][3] == runs[1][3]
        # The 15% CRC rate produced actual faults (the runs are not
        # trivially identical because nothing happened).
        assert runs[0][1]["failed_attempts"] > 0

    def test_different_seed_changes_the_timeline(self):
        base, _, _ = api.monitor(
            wami_soc_y(), frames=2, runtime_options=self.stochastic_options()
        )
        other, _, _ = api.monitor(
            wami_soc_y(),
            frames=2,
            runtime_options=RuntimeFaultOptions(
                faults=RuntimeFaultModel(seed=4, rates={CRC: 0.15})
            ),
        )
        assert (
            base.runtime_stats.to_dict() != other.runtime_stats.to_dict()
        )

    def test_options_object_is_reusable_across_deploys(self):
        # The platform deploys from a fresh copy of the model, so one
        # options object drives many identical runs (no leaked attempt
        # counters between deployments).
        options = self.stochastic_options()
        first = api.deploy(wami_soc_y(), frames=1, runtime_options=options)
        second = api.deploy(wami_soc_y(), frames=1, runtime_options=options)
        assert first.runtime_stats.to_dict() == second.runtime_stats.to_dict()
        assert not options.faults.enabled or options.faults.drawn[CRC] == 0


class TestDeployCli:
    def test_forced_quarantine_still_exits_zero(self, capsys):
        code = main(
            [
                "deploy",
                "soc_y",
                "--frames",
                "2",
                "--inject",
                "runtime:rt1:change_detection",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # the deployment completed, degraded
        assert "QUARANTINED" in out
        assert "failovers=" in out

    def test_json_payload_carries_resilience_stats(self, capsys):
        code = main(
            [
                "deploy",
                "soc_y",
                "--frames",
                "1",
                "--json",
                "--inject",
                "runtime:rt1:change_detection:crc",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        runtime = payload["runtime"]
        assert runtime["quarantined"] == {"rt1": "crc"}
        assert runtime["failovers"] > 0
        assert runtime["tiles"]["rt1"]["quarantined"] is True

    def test_stochastic_rate_flags_are_deterministic(self, capsys):
        args = [
            "deploy",
            "soc_y",
            "--frames",
            "1",
            "--json",
            "--fault",
            "runtime:crc=0.15@3",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["runtime"] == second["runtime"]

    def test_bad_specs_are_errors(self, capsys):
        assert main(["deploy", "soc_y", "--inject", "runtime:rt1"]) == 1
        assert "error:" in capsys.readouterr().err
        assert (
            main(["deploy", "soc_y", "--inject", "runtime:rt1:fft:nope"])
            == 1
        )
        assert "error:" in capsys.readouterr().err
        assert main(["deploy", "soc_y", "--fault", "runtime=wat"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["deploy", "soc_y", "--fault", "runtime:crc=2.0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, spec, named",
        [
            # soc_x's rt1 loads no accelerator named x...
            ("monitor", "runtime:rt1:x:hang", "rt1 loads debayer, warp"),
            # ...and soc_x has no tile rt9.
            ("monitor", "runtime:rt9:warp:hang", "tiles rt1, rt2"),
            ("deploy", "runtime:rt2:warp", "rt2 loads grayscale"),
            ("dashboard", "runtime:aux0:warp", "tiles rt1, rt2"),
        ],
    )
    def test_targets_the_design_lacks_are_errors(self, capsys, verb, spec, named):
        # An injection that can never fire would run a healthy deploy
        # and exit 0, so it is refused before the run.
        assert main([verb, "soc_x", "--frames", "1", "--inject", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad --inject ")
        assert named in captured.err


class TestMonitorCli:
    def test_quarantine_degrades_the_verdict(self, capsys):
        code = main(
            [
                "monitor",
                "soc_y",
                "--frames",
                "2",
                "--inject",
                "runtime:rt1:change_detection",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DEGRADED" in out
        assert "tile-quarantined" in out
        assert "scheduler-failover" in out

    def test_json_payload_reports_runtime_faults(self, capsys):
        code = main(
            [
                "monitor",
                "soc_y",
                "--frames",
                "2",
                "--json",
                "--inject",
                "runtime:rt1:change_detection",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        faults = payload["runtime_faults"]
        assert faults["quarantined_tiles"] == ["rt1"]
        assert faults["failovers"] > 0
        kinds = {event["kind"] for event in payload["events"]}
        assert kinds  # the ring buffer made it into the payload

    def test_hang_injection_shows_up_in_health(self, capsys):
        code = main(
            [
                "monitor",
                "soc_y",
                "--frames",
                "1",
                "--inject",
                "runtime:rt2:hessian:hang",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "kernel hangs" in out
