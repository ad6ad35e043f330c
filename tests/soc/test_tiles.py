"""Tests for the tile taxonomy."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.esp_library import stock_accelerator
from repro.soc.tiles import (
    CPU_TILE_LUTS,
    CpuCore,
    RECONF_WRAPPER_LUTS,
    ReconfigurableTile,
    Tile,
    TileKind,
)


class TestStaticTiles:
    def test_cpu_tile_defaults_to_leon3(self):
        tile = Tile(kind=TileKind.CPU, name="cpu0")
        assert tile.cpu_core is CpuCore.LEON3

    def test_cpu_core_only_on_cpu_tiles(self):
        with pytest.raises(ConfigurationError):
            Tile(kind=TileKind.MEM, name="m", cpu_core=CpuCore.LEON3)

    def test_acc_tile_needs_accelerator(self):
        with pytest.raises(ConfigurationError):
            Tile(kind=TileKind.ACC, name="a")

    @pytest.mark.parametrize("name", ["", "  "])
    def test_empty_name_rejected(self, name):
        with pytest.raises(ConfigurationError, match="mem tile needs a non-empty name"):
            Tile(kind=TileKind.MEM, name=name)
        with pytest.raises(ConfigurationError, match="reconf tile needs a non-empty name"):
            ReconfigurableTile(name=name, modes=[stock_accelerator("mac")])

    def test_non_acc_tile_rejects_accelerator(self):
        with pytest.raises(ConfigurationError):
            Tile(kind=TileKind.MEM, name="m", accelerator=stock_accelerator("mac"))

    def test_base_luts_cpu(self):
        tile = Tile(kind=TileKind.CPU, name="cpu0")
        assert tile.base_luts() == CPU_TILE_LUTS[CpuCore.LEON3]

    def test_base_luts_acc_is_ip_size(self):
        ip = stock_accelerator("gemm")
        tile = Tile(kind=TileKind.ACC, name="a", accelerator=ip)
        assert tile.base_luts() == ip.luts

    def test_all_static_kinds_report_static(self):
        assert Tile(kind=TileKind.MEM, name="m").is_static
        assert Tile(kind=TileKind.EMPTY, name="e").is_static


class TestReconfigurableTile:
    def test_needs_modes_or_cpu(self):
        with pytest.raises(ConfigurationError):
            ReconfigurableTile(name="rt", modes=[])

    def test_duplicate_modes_rejected(self):
        mac = stock_accelerator("mac")
        with pytest.raises(ConfigurationError):
            ReconfigurableTile(name="rt", modes=[mac, mac])

    def test_is_not_static(self):
        tile = ReconfigurableTile(name="rt", modes=[stock_accelerator("mac")])
        assert not tile.is_static

    def test_base_luts_is_an_error(self):
        tile = ReconfigurableTile(name="rt", modes=[stock_accelerator("mac")])
        with pytest.raises(ConfigurationError):
            tile.base_luts()

    def test_partition_resources_is_max_plus_wrapper(self):
        conv = stock_accelerator("conv2d")
        sort = stock_accelerator("sort")
        tile = ReconfigurableTile(name="rt", modes=[conv, sort])
        demand = tile.partition_resources()
        assert demand.lut == conv.luts + RECONF_WRAPPER_LUTS
        assert demand.bram == max(conv.resources.bram, sort.resources.bram)

    def test_synthesis_luts_is_sum_plus_wrapper(self):
        conv = stock_accelerator("conv2d")
        sort = stock_accelerator("sort")
        tile = ReconfigurableTile(name="rt", modes=[conv, sort])
        assert tile.synthesis_luts() == conv.luts + sort.luts + RECONF_WRAPPER_LUTS

    def test_host_cpu_adds_core(self):
        tile = ReconfigurableTile(name="rt", modes=[], host_cpu=True)
        assert tile.synthesis_luts() == CPU_TILE_LUTS[CpuCore.LEON3] + RECONF_WRAPPER_LUTS
        assert tile.partition_resources().lut >= CPU_TILE_LUTS[CpuCore.LEON3]

    def test_mode_names(self):
        tile = ReconfigurableTile(
            name="rt", modes=[stock_accelerator("fft"), stock_accelerator("mac")]
        )
        assert tile.mode_names() == ["fft", "mac"]
