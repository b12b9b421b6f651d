"""The :class:`Netlist` container: a full PDN model plus derived queries.

This is the central data structure of the netlist modality.  Both the
golden IR solver (:mod:`repro.solver`) and the point-cloud encoder
(:mod:`repro.pointcloud`) consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.nodes import GROUND, DBU_PER_UM, NodeName, parse_node

__all__ = ["Netlist", "NetlistStatistics"]


@dataclass(frozen=True)
class NetlistStatistics:
    """Summary used for Table II style reporting."""

    num_nodes: int
    num_resistors: int
    num_current_sources: int
    num_voltage_sources: int
    num_vias: int
    layers: Tuple[int, ...]
    width_um: float
    height_um: float

    @property
    def shape_pixels(self) -> Tuple[int, int]:
        """(rows, cols) of the 1 µm-per-pixel raster covering the die."""
        return (int(round(self.height_um)) + 1, int(round(self.width_um)) + 1)


class Netlist:
    """A static-IR PDN netlist: resistors + current sources + supplies."""

    def __init__(self, name: str = "pdn"):
        self.name = name
        self.resistors: List[Resistor] = []
        self.current_sources: List[CurrentSource] = []
        self.voltage_sources: List[VoltageSource] = []
        self._node_cache: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_resistor(self, node_a: str, node_b: str, resistance: float,
                     name: Optional[str] = None) -> Resistor:
        element = Resistor(name or f"R{len(self.resistors)}", node_a, node_b, resistance)
        self.resistors.append(element)
        self._node_cache = None
        return element

    def add_current_source(self, node: str, value: float,
                           name: Optional[str] = None) -> CurrentSource:
        element = CurrentSource(name or f"I{len(self.current_sources)}", node, value)
        self.current_sources.append(element)
        self._node_cache = None
        return element

    def add_voltage_source(self, node: str, value: float,
                           name: Optional[str] = None) -> VoltageSource:
        element = VoltageSource(name or f"V{len(self.voltage_sources)}", node, value)
        self.voltage_sources.append(element)
        self._node_cache = None
        return element

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def node_index(self) -> Dict[str, int]:
        """Stable mapping node-name → dense index (ground excluded)."""
        if self._node_cache is None:
            names: Dict[str, int] = {}
            for name in self._iter_node_names():
                if name != GROUND and name not in names:
                    names[name] = len(names)
            self._node_cache = names
        return self._node_cache

    def _iter_node_names(self) -> Iterable[str]:
        for r in self.resistors:
            yield r.node_a
            yield r.node_b
        for i in self.current_sources:
            yield i.node
        for v in self.voltage_sources:
            yield v.node

    @property
    def num_nodes(self) -> int:
        return len(self.node_index())

    def parsed_nodes(self) -> List[NodeName]:
        """Structured identities of every non-ground node."""
        return [parse_node(name) for name in self.node_index()]

    def layers(self) -> Tuple[int, ...]:
        return tuple(sorted({node.layer for node in self.parsed_nodes()}))

    def unsupplied_nodes(self) -> List[str]:
        """Resistor-connected nodes with no resistive path to any voltage
        source node, in first-seen order.  Ground, when resistors touch
        it, is an ordinary node of the resistor graph here."""
        index: Dict[str, int] = {}
        ends = np.array([(index.setdefault(r.node_a, len(index)),
                          index.setdefault(r.node_b, len(index)))
                         for r in self.resistors], dtype=np.int64)
        if not index:
            return []
        graph = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                           shape=(len(index), len(index)))
        _, labels = connected_components(graph, directed=False)
        supplied = labels[[index[v.node] for v in self.voltage_sources
                           if v.node in index]]
        floating = ~np.isin(labels, supplied)
        return [name for name, flag in zip(index, floating) if flag]

    def supply_voltage(self) -> float:
        """Nominal VDD; requires at least one voltage source."""
        if not self.voltage_sources:
            raise ValueError(f"netlist {self.name!r} has no voltage sources")
        return self.voltage_sources[0].value

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounding_box_um(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) in µm over all non-ground nodes."""
        nodes = self.parsed_nodes()
        if not nodes:
            raise ValueError(f"netlist {self.name!r} has no nodes")
        xs = [node.x_um for node in nodes]
        ys = [node.y_um for node in nodes]
        return (min(xs), min(ys), max(xs), max(ys))

    def vias(self) -> List[Resistor]:
        """Resistors connecting different layers (the paper treats these
        as first-class citizens in the point-cloud encoding)."""
        result = []
        for r in self.resistors:
            a, b = parse_node(r.node_a), parse_node(r.node_b)
            if a is not None and b is not None and a.layer != b.layer:
                result.append(r)
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def statistics(self) -> NetlistStatistics:
        xmin, ymin, xmax, ymax = self.bounding_box_um()
        return NetlistStatistics(
            num_nodes=self.num_nodes,
            num_resistors=len(self.resistors),
            num_current_sources=len(self.current_sources),
            num_voltage_sources=len(self.voltage_sources),
            num_vias=len(self.vias()),
            layers=self.layers(),
            width_um=xmax - xmin,
            height_um=ymax - ymin,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, nodes={self.num_nodes}, "
            f"R={len(self.resistors)}, I={len(self.current_sources)}, "
            f"V={len(self.voltage_sources)})"
        )
