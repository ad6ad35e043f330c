"""Tests for static/reconfigurable partitioning."""

import pytest

from repro.core.designs import paper_designs
from repro.errors import FlowError
from repro.soc.partition import partition_design
from tests.soc.test_rtl import MODULE_ORDER


class TestPartitioning:
    def test_one_rp_per_reconf_tile(self, soc2):
        partition = partition_design(soc2)
        assert partition.num_rps == len(soc2.reconfigurable_tiles)

    def test_static_matches_config(self, soc2):
        partition = partition_design(soc2)
        assert partition.static.luts == soc2.static_luts()

    def test_rp_luts_match_config(self, soc2):
        partition = partition_design(soc2)
        assert partition.rp_luts() == soc2.reconfigurable_luts()

    def test_rp_lookup(self, soc2):
        partition = partition_design(soc2)
        rp = partition.rp_by_name(soc2.reconfigurable_tiles[0].name)
        assert rp.tile is soc2.reconfigurable_tiles[0]

    def test_rp_lookup_unknown(self, soc2):
        partition = partition_design(soc2)
        with pytest.raises(FlowError):
            partition.rp_by_name("missing")

    def test_demand_dominates_every_mode(self, socy):
        partition = partition_design(socy)
        for rp in partition.rps:
            for ip in rp.tile.modes:
                assert ip.resources.fits_in(rp.demand)

    @pytest.mark.parametrize("design", ["soc_2", *sorted(MODULE_ORDER)])
    def test_static_module_list_excludes_rp_contents(self, design):
        config = paper_designs()[design]
        names = partition_design(config).static.module_names
        for tile in config.reconfigurable_tiles:
            assert f"{tile.name}_wrapper" not in names
            # The static socket of the reconfigurable tile stays static.
            assert f"{tile.name}_socket" in names
        if design in MODULE_ORDER:
            assert list(names) == MODULE_ORDER[design]["static"]

    def test_mode_names_exposed(self, socy):
        partition = partition_design(socy)
        tile = socy.reconfigurable_tiles[0]
        rp = partition.rp_by_name(tile.name)
        assert rp.mode_names == tile.mode_names()
