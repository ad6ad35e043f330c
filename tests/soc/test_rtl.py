"""Tests for RTL hierarchy generation and DPR rule checking."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.soc.rtl import Module, generate_rtl


class TestModuleTree:
    def test_walk_is_preorder(self):
        root = Module("root", children=[Module("a", children=[Module("a1")]), Module("b")])
        assert [m.name for m in root.walk()] == ["root", "a", "a1", "b"]

    def test_total_luts_sums_subtree(self):
        root = Module(
            "root",
            luts=1,
            children=[Module("a", luts=10, children=[Module("a1", luts=100)])],
        )
        assert root.total_luts() == 111

    def test_find(self):
        root = Module("root", children=[Module("needle")])
        assert root.find("needle") is not None
        assert root.find("missing") is None

    def test_reconfigurable_roots_do_not_nest(self):
        inner = Module("inner", reconfigurable=True)
        root = Module("root", children=[Module("w", children=[inner], reconfigurable=True)])
        assert [m.name for m in root.reconfigurable_roots()] == ["w"]

    def test_static_luts_excludes_rp_subtrees(self):
        wrapper = Module(
            "w", luts=100, children=[Module("acc", luts=1000)], reconfigurable=True
        )
        root = Module("root", luts=5, children=[wrapper])
        assert root.static_luts() == 5
        assert root.total_luts() == 1105

    def test_modules_are_immutable(self):
        root = Module("root", children=[Module("a")])
        assert isinstance(root.children, tuple)
        with pytest.raises(FrozenInstanceError):
            root.luts = 1

    def test_pickles_with_list_children_load_as_tuples(self):
        # Pickles written when Module was mutable carry list children.
        legacy = Module("root", children=[Module("a")])
        object.__setattr__(legacy, "children", list(legacy.children))
        restored = pickle.loads(pickle.dumps(legacy))
        assert restored.children == (Module("a"),)


class TestDprRules:
    def test_clock_modifier_inside_rp_flagged(self):
        wrapper = Module(
            "w", children=[Module("pll", clock_modifying=True)], reconfigurable=True
        )
        violations = Module("root", children=[wrapper]).check_dpr_rules()
        assert len(violations) == 1
        assert "clock-modifying" in violations[0]

    def test_route_through_inside_rp_flagged(self):
        wrapper = Module(
            "w", children=[Module("feedthrough", route_through=True)], reconfigurable=True
        )
        root = Module("root", children=[wrapper])
        assert any("route-through" in v for v in root.check_dpr_rules())

    def test_clock_modifier_in_static_is_fine(self):
        root = Module(
            "root",
            children=[
                Module("pll", clock_modifying=True),
                Module("w", reconfigurable=True),
            ],
        )
        assert root.check_dpr_rules() == []


class TestGeneratedHierarchy:
    def test_static_total_matches_config_accounting(self, soc2):
        rtl = generate_rtl(soc2)
        assert rtl.static_luts() == soc2.static_luts()

    def test_total_matches_design_total(self, soc2):
        rtl = generate_rtl(soc2)
        assert rtl.total_luts() == soc2.total_design_luts()

    def test_one_wrapper_per_reconf_tile(self, soc2):
        rtl = generate_rtl(soc2)
        roots = rtl.reconfigurable_roots()
        assert len(roots) == len(soc2.reconfigurable_tiles)

    def test_wrapper_holds_all_modes(self, socy):
        rtl = generate_rtl(socy)
        tile = socy.reconfigurable_tiles[0]
        wrapper = rtl.find(f"{tile.name}_wrapper")
        children = {m.name for m in wrapper.walk()} - {wrapper.name}
        for ip in tile.modes:
            assert f"{tile.name}_{ip.name}" in children

    def test_aux_tile_contains_dfx_controller(self, soc2):
        rtl = generate_rtl(soc2)
        assert rtl.find("aux0_dfx_controller") is not None
        assert rtl.find("aux0_icap_primitive") is not None

    def test_generated_tree_is_dpr_legal(self, soc2):
        assert generate_rtl(soc2).check_dpr_rules() == []

    def test_every_tile_has_a_socket(self, soc2):
        rtl = generate_rtl(soc2)
        for tile in soc2.tiles:
            assert rtl.find(f"{tile.name}_socket") is not None

    def test_reconf_socket_has_decoupler(self, soc2):
        rtl = generate_rtl(soc2)
        tile = soc2.reconfigurable_tiles[0]
        assert rtl.find(f"{tile.name}_decoupler") is not None
