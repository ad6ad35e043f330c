"""Generation of the SoC RTL hierarchy.

The real flow parses the ESP configuration and emits a VHDL/Verilog
hierarchy; here the hierarchy is a tree of :class:`Module` nodes with
post-synthesis LUT annotations at the leaves. The tree is what the
flow's parsing step consumes to separate reconfigurable-tile sources
from the static part, and what the simulated synthesis engine "reads"
to produce netlist checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, DprRuleViolation
from repro.soc.config import SocConfig
from repro.soc.tiles import (
    CPU_TILE_LUTS,
    RECONF_WRAPPER_LUTS,
    ROUTER_SOCKET_LUTS,
    ReconfigurableTile,
    SOC_MISC_LUTS,
    TILE_BASE_LUTS,
    Tile,
    TileKind,
)


@dataclass(frozen=True)
class Module:
    """A node of the RTL hierarchy.

    ``luts`` is the node's *own* leaf contribution (zero for pure
    hierarchy nodes); subtree sizes come from :meth:`total_luts`.
    ``reconfigurable`` marks the root of a reconfigurable partition;
    ``clock_modifying`` and ``route_through`` flag constructs that are
    illegal inside one (the two DPR rules Sec. III cites).

    Modules are immutable (trees are built bottom-up, ``children`` is
    stored as a tuple), so a generated hierarchy can be shared freely.
    """

    name: str
    luts: int = 0
    children: Tuple["Module", ...] = ()
    reconfigurable: bool = False
    black_box: bool = False
    clock_modifying: bool = False
    route_through: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    def __setstate__(self, state: Dict) -> None:
        # Pickles of the earlier mutable Module carry list children.
        self.__dict__.update(state, children=tuple(state["children"]))

    def walk(self) -> Iterator["Module"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_luts(self) -> int:
        """LUTs of the whole subtree."""
        return sum(m.luts for m in self.walk())

    def find(self, name: str) -> Optional["Module"]:
        """First module named ``name`` in pre-order, or None."""
        for module in self.walk():
            if module.name == name:
                return module
        return None

    def reconfigurable_roots(self) -> List["Module"]:
        """Roots of reconfigurable partitions in this subtree."""
        roots: List[Module] = []

        def visit(module: "Module") -> None:
            if module.reconfigurable:
                roots.append(module)
                return  # nested RPs are not supported by the flow
            for child in module.children:
                visit(child)

        visit(self)
        return roots

    def static_luts(self) -> int:
        """LUTs of the subtree excluding reconfigurable partitions."""
        if self.reconfigurable:
            return 0
        return self.luts + sum(c.static_luts() for c in self.children)

    def check_dpr_rules(self) -> List[str]:
        """Xilinx DPR rule violations inside reconfigurable partitions.

        Returns human-readable violation strings; an empty list means
        the hierarchy is DPR-legal. The two rules are the ones the
        paper's reconfigurable tile was designed to satisfy.
        """
        violations: List[str] = []
        for root in self.reconfigurable_roots():
            for module in root.walk():
                if module.clock_modifying:
                    violations.append(
                        f"clock-modifying logic {module.name!r} inside "
                        f"reconfigurable partition {root.name!r}"
                    )
                if module.route_through:
                    violations.append(
                        f"route-through path {module.name!r} inside "
                        f"reconfigurable partition {root.name!r}"
                    )
        return violations


# ----------------------------------------------------------------------
# hierarchy generation
# ----------------------------------------------------------------------

#: Breakdown of the AUX tile base cost into its sub-blocks.
_AUX_SUBBLOCKS = [
    ("dfx_controller", 2100),
    ("icap_primitive", 180),
    ("axilite_apb_adapter", 450),
    ("axi_noc_adapter", 550),
    ("aux_peripherals", TILE_BASE_LUTS[TileKind.AUX] - 2100 - 180 - 450 - 550),
]


def _socket_module(tile: Tile) -> Module:
    """The static socket (router + proxies [+ decoupler]) of a tile."""
    if tile.kind is TileKind.RECONF:
        buffer = Module(name=f"{tile.name}_decoupler", luts=20)
    else:
        buffer = Module(name=f"{tile.name}_queues", luts=20)
    return Module(
        name=f"{tile.name}_socket",
        children=(
            Module(name=f"{tile.name}_router", luts=ROUTER_SOCKET_LUTS - 120),
            Module(name=f"{tile.name}_proxies", luts=100),
            buffer,
        ),
    )


def _tile_module(tile: Tile) -> Module:
    """Build the subtree of one tile."""
    children = [_socket_module(tile)]
    if tile.kind is TileKind.CPU:
        assert tile.cpu_core is not None
        children.append(Module(name=f"{tile.name}_{tile.cpu_core.value}_core",
                               luts=CPU_TILE_LUTS[tile.cpu_core]))
    elif tile.kind is TileKind.ACC:
        assert tile.accelerator is not None
        children.append(Module(name=f"{tile.name}_{tile.accelerator.name}",
                               luts=tile.accelerator.luts))
    elif tile.kind is TileKind.AUX:
        children.append(
            Module(
                name=f"{tile.name}_aux_logic",
                children=[
                    Module(name=f"{tile.name}_{sub_name}", luts=sub_luts)
                    for sub_name, sub_luts in _AUX_SUBBLOCKS
                ],
            )
        )
    elif tile.kind in (TileKind.MEM, TileKind.SLM):
        children.append(Module(name=f"{tile.name}_{tile.kind.value}_ctrl",
                               luts=TILE_BASE_LUTS[tile.kind]))
    elif tile.kind is TileKind.RECONF:
        assert isinstance(tile, ReconfigurableTile)
        modes = [
            Module(name=f"{tile.name}_{ip.name}", luts=ip.luts) for ip in tile.modes
        ]
        if tile.host_cpu:
            modes.append(
                Module(
                    name=f"{tile.name}_{tile.hosted_cpu_core.value}_core",
                    luts=CPU_TILE_LUTS[tile.hosted_cpu_core],
                )
            )
        children.append(
            Module(
                name=f"{tile.name}_wrapper",
                luts=RECONF_WRAPPER_LUTS,
                children=modes,
                reconfigurable=True,
            )
        )
    elif tile.kind is TileKind.EMPTY:
        pass
    else:  # pragma: no cover - exhaustive over TileKind
        raise ConfigurationError(f"unhandled tile kind {tile.kind}")
    return Module(name=tile.name, children=children)


def generate_rtl(config: SocConfig) -> Module:
    """Generate the full RTL hierarchy for ``config``.

    The resulting tree's static LUT total equals
    ``config.static_luts()`` by construction, and each reconfigurable
    tile contributes one reconfigurable wrapper subtree.
    """
    top = Module(
        name=f"{config.name}_top",
        children=[Module(name="soc_misc", luts=SOC_MISC_LUTS)]
        + [_tile_module(tile) for tile in config.tiles],
    )
    violations = top.check_dpr_rules()
    if violations:  # cannot happen for generated trees; guards extensions
        raise DprRuleViolation("; ".join(violations))
    return top
