"""End-to-end request telemetry: correlation IDs through the platform.

Covers the tentpole acceptance criteria: concurrent ``build_many``
requests through one platform produce fully disjoint, joinable
telemetry; pool and inline batches agree under a context; the null
observability paths never consult the context variable; and the
``repro dashboard`` verb reports SLO state deterministically with
verdict-driven exit codes.
"""

import json
import re
import threading

from repro import api
from repro.cli import main
from repro.core.platform import PrEspPlatform
from repro.flow.batch import BuildRequest
from repro.obs.context import RequestIdFactory, TelemetryContext, activate
from repro.obs.events import EventBus
from repro.obs.export import parse_prometheus_text
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import TelemetryStore
from repro.sim.kernel import Simulator
from repro.soc.config import SocConfig
from repro.soc.esp_library import stock_accelerator
from repro.soc.tiles import ReconfigurableTile, Tile, TileKind


def tiny_soc(name: str) -> SocConfig:
    return SocConfig.assemble(
        name=name,
        board="vc707",
        rows=2,
        cols=2,
        tiles=[
            Tile(kind=TileKind.CPU, name="cpu0"),
            Tile(kind=TileKind.MEM, name="mem0"),
            Tile(kind=TileKind.AUX, name="aux0"),
            ReconfigurableTile(name="rt0", modes=[stock_accelerator("mac")]),
        ],
    )


def request_labels(registry) -> set:
    """Distinct ``request=...`` label values across all series."""
    found = set()
    for key in registry.snapshot():
        match = re.search(r"request=([^,}]+)", key)
        if match:
            found.add(match.group(1))
    return found


class TestRequestScoping:
    def test_platform_mints_deterministic_ids(self, small_soc):
        def run():
            registry = MetricsRegistry()
            plat = PrEspPlatform(
                request_ids=RequestIdFactory(seed=3),
                instrumentation=Instrumentation(metrics=registry),
            )
            plat.build(small_soc)
            return registry

        first, second = run(), run()
        assert sorted(first.snapshot()) == sorted(second.snapshot())
        ids = request_labels(first)
        assert len(ids) == 1
        assert next(iter(ids)).startswith("build-")

    def test_explicit_context_wins_over_minting(self, small_soc):
        factory = RequestIdFactory(seed=0)
        registry = MetricsRegistry()
        plat = PrEspPlatform(
            request_ids=factory,
            instrumentation=Instrumentation(metrics=registry),
        )
        ctx = TelemetryContext(request_id="my-req", tenant="acme")
        plat.build(small_soc, context=ctx)
        assert factory.minted == 0
        assert request_labels(registry) == {"my-req"}
        assert any("tenant=acme" in key for key in registry.snapshot())

    def test_compare_runs_under_a_single_request(self, small_soc):
        factory = RequestIdFactory(seed=0)
        plat = PrEspPlatform(
            request_ids=factory,
            instrumentation=Instrumentation(metrics=MetricsRegistry()),
        )
        plat.compare_with_monolithic(small_soc)
        assert factory.minted == 1
        assert factory.mint("probe").request_id.startswith("probe-")

    def test_platform_store_records_after_each_verb(self, small_soc):
        store = TelemetryStore()
        registry = MetricsRegistry()
        plat = PrEspPlatform(
            telemetry=store,
            instrumentation=Instrumentation(metrics=registry),
        )
        plat.build(small_soc)
        assert len(store) == 1
        plat.build(small_soc)  # cache hit still closes out a request
        assert len(store) == 2
        assert store.latest().values  # snapshots carry the flow counters

    def test_platform_store_without_metrics_records_empty_samples(
        self, small_soc
    ):
        store = TelemetryStore()
        plat = PrEspPlatform(telemetry=store)
        plat.build(small_soc)
        plat.build_many([BuildRequest(config=small_soc)])
        assert len(store) == 2
        assert store.latest().values == {}


class TestConcurrentBatches:
    def test_two_batches_stay_disjoint_and_joinable(self):
        registry = MetricsRegistry()
        bus = EventBus()
        plat = PrEspPlatform(
            request_ids=RequestIdFactory(seed=11),
            instrumentation=Instrumentation(metrics=registry, events=bus),
        )
        configs = {"alpha": tiny_soc("alpha"), "beta": tiny_soc("beta")}
        outcomes = {}

        def run(name):
            outcomes[name] = plat.build_many(
                [BuildRequest(config=configs[name])]
            )

        threads = [
            threading.Thread(target=run, args=(name,)) for name in configs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert all(o[0].ok for o in outcomes.values())
        ids = request_labels(registry)
        assert len(ids) == 2  # one request id per batch, fully disjoint
        assert all(rid.startswith("batch-") for rid in ids)
        # Event-stream correlation joins on the same ids.
        event_ids = {
            event.attrs["request_id"]
            for event in bus.events()
            if "request_id" in event.attrs
        }
        assert event_ids <= ids

    def test_pool_matches_inline_under_context(self):
        requests = [
            BuildRequest(config=tiny_soc(name)) for name in ("s1", "s2", "s3")
        ]

        def run(jobs):
            plat = PrEspPlatform(request_ids=RequestIdFactory(seed=5))
            try:
                return plat.build_many(requests, jobs=jobs)
            finally:
                plat.close()

        inline, pooled = run(1), run(4)
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert a.result.to_summary_dict() == b.result.to_summary_dict()


class TestNullParity:
    def test_null_paths_never_consult_the_context(
        self, small_soc, monkeypatch
    ):
        calls = {"count": 0}

        def counting(module):
            original = module
            def probe(*args, **kwargs):
                calls["count"] += 1
                return original(*args, **kwargs)
            return probe

        import repro.obs.events as events_mod
        import repro.obs.metrics as metrics_mod
        import repro.obs.recorder as recorder_mod

        monkeypatch.setattr(
            metrics_mod, "current_context", counting(metrics_mod.current_context)
        )
        for module in (events_mod, recorder_mod):
            monkeypatch.setattr(
                module,
                "current_request_id",
                counting(module.current_request_id),
            )

        with activate(TelemetryContext(request_id="r-null")):
            api.deploy(small_soc, frames=1)
        assert calls["count"] == 0

    def test_fast_dispatch_loop_survives_null_hooks(self):
        sim = Simulator()
        sim.attach_observability(OFF)
        assert sim._recorder is None
        assert sim._fold is None

    def test_context_changes_nothing_on_uninstrumented_deploys(self, small_soc):
        plain = api.deploy(small_soc, frames=2).to_summary_dict()
        with activate(TelemetryContext(request_id="r-1", tenant="t")):
            scoped = api.deploy(small_soc, frames=2).to_summary_dict()
        assert scoped == plain


class TestDashboardCli:
    def test_healthy_run_exits_zero(self, capsys):
        assert main(["dashboard", "soc_y", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "slo verdict" in out
        assert "overall" in out

    def test_breached_budget_exits_nonzero(self, capsys):
        code = main([
            "dashboard",
            "soc_y",
            "--frames",
            "2",
            "--inject",
            "runtime:rt1:change_detection:crc:2",
        ])
        assert code != 0
        out = capsys.readouterr().out
        assert "deploy-failure-rate" in out

    def test_json_output_is_deterministic(self, capsys):
        def run():
            main(["dashboard", "soc_y", "--frames", "2", "--seed", "1", "--json"])
            return capsys.readouterr().out

        first, second = run(), run()
        assert first == second
        payload = json.loads(first)
        assert payload["verdict"] == "ok"
        assert payload["requests"]["minted"] >= 1
        assert {s["name"] for s in payload["slo"]["objectives"]} == {
            "reconfig-latency-p95",
            "deploy-failure-rate",
            "cad-retry-rate",
        }

    def test_prometheus_scrape_file_parses(self, tmp_path, capsys):
        prom = tmp_path / "dash.prom"
        otlp = tmp_path / "dash.otlp.jsonl"
        code = main([
            "dashboard",
            "soc_y",
            "--frames",
            "2",
            "--prom",
            str(prom),
            "--otlp",
            str(otlp),
        ])
        assert code == 0
        families = parse_prometheus_text(prom.read_text())
        assert families  # non-empty scrape
        assert any(name.startswith("flow_") for name in families)
        lines = otlp.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

    def test_follow_replays_verdict_timeline(self, capsys):
        code = main([
            "dashboard",
            "soc_y",
            "--frames",
            "2",
            "--follow",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        replay = payload["replay"]
        assert replay
        assert [frame["time"] for frame in replay] == sorted(
            frame["time"] for frame in replay
        )
        assert all(
            frame["verdict"] in ("ok", "degraded", "critical")
            for frame in replay
        )
