"""The :class:`Netlist` container: a full PDN model plus derived queries.

This is the central data structure of the netlist modality.  Both the
golden IR solver (:mod:`repro.solver`) and the point-cloud encoder
(:mod:`repro.pointcloud`) consume it.

Node names carry the geometry (``n{net}_m{layer}_{x}_{y}``, see
:mod:`repro.spice.nodes`).  :meth:`Netlist.geometry` parses every
distinct name once into a columnar :class:`NetlistGeometry` table, and
every geometric query on the deck path (statistics, classification,
feature maps, golden-map rasterisation, point-cloud encoding) is numpy
over its columns.  The table caches topology only: node coordinates and
each element's endpoint indices.  Element values (R, I, V) are read from
the element lists at call time, so rescaling loads needs no rebuild.

Both caches (:meth:`Netlist.node_index` and the table) are derived from
the three element lists.  Mutate a netlist only through the ``add_*``
methods or by reassigning a whole list (``netlist.current_sources =
[...]``); both drop the caches.  Editing a list in place (``append``,
item assignment) leaves them stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.nodes import GROUND, DBU_PER_UM, NodeName, node_fields, parse_node

__all__ = ["Netlist", "NetlistGeometry", "NetlistStatistics"]


def _shape_pixels(width_um: float, height_um: float) -> Tuple[int, int]:
    return (int(round(height_um)) + 1, int(round(width_um)) + 1)


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
        return _shape_pixels(self.width_um, self.height_um)


_FOREIGN = (0, 0, 0, 0)


class NetlistGeometry:
    """Columnar node geometry of a netlist, parsed once.

    Per node, in :meth:`Netlist.node_index` order: ``layer``, ``x``,
    ``y`` (database units, int32) and ``grid`` (the name is in the
    contest format; foreign nodes hold zeros).  Per element: node
    indices of its endpoints, ``-1`` for ground — ``resistor_ends``
    (R, 2), ``current_nodes`` (I,), ``voltage_nodes`` (V,).  A foreign
    endpoint keeps its index; ``grid`` marks it, so a query that needs
    coordinates raises :func:`~repro.spice.nodes.parse_node`'s
    ``ValueError`` naming it.
    """

    __slots__ = ("names", "layer", "x", "y", "grid", "resistor_ends",
                 "current_nodes", "voltage_nodes")

    def __init__(self, names: Dict[str, int], resistors: Sequence[Resistor],
                 current_sources: Sequence[CurrentSource],
                 voltage_sources: Sequence[VoltageSource]):
        self.names = names
        count = len(names)
        parsed = [node_fields(name) for name in names]
        self.grid = np.fromiter((f is not None for f in parsed), dtype=bool,
                                count=count)
        fields = np.fromiter(chain.from_iterable(f or _FOREIGN for f in parsed),
                             dtype=np.int32, count=4 * count).reshape(count, 4)
        self.layer, self.x, self.y = np.ascontiguousarray(fields[:, 1:].T)
        get = names.get
        self.resistor_ends = np.fromiter(
            (get(node, -1) for r in resistors for node in (r.node_a, r.node_b)),
            dtype=np.int32, count=2 * len(resistors)).reshape(-1, 2)
        self.current_nodes = np.fromiter(
            (get(s.node, -1) for s in current_sources), dtype=np.int32,
            count=len(current_sources))
        self.voltage_nodes = np.fromiter(
            (get(s.node, -1) for s in voltage_sources), dtype=np.int32,
            count=len(voltage_sources))

    def require_grid(self, nodes: np.ndarray) -> None:
        """Raise for the first foreign node among ``nodes`` (ground,
        ``-1``, is skipped), exactly as ``parse_node`` would."""
        nodes = nodes[nodes >= 0]
        foreign = nodes[~self.grid[nodes]]
        if foreign.size:
            name = next(islice(self.names, int(foreign[0]), None))
            raise ValueError(f"unrecognised node name {name!r}")

    def pixels(self, nodes: np.ndarray,
               shape: Optional[Tuple[int, int]] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """(row, col) of ``nodes`` at 1 µm per pixel, rounded half to
        even like ``round``; with ``shape``, clamped to its last
        row/col."""
        rows = np.rint(self.y[nodes] / DBU_PER_UM).astype(np.intp)
        cols = np.rint(self.x[nodes] / DBU_PER_UM).astype(np.intp)
        if shape is not None:
            np.minimum(rows, shape[0] - 1, out=rows)
            np.minimum(cols, shape[1] - 1, out=cols)
        return rows, cols

    def flat_pixels(self, nodes: np.ndarray,
                    shape: Tuple[int, int]) -> np.ndarray:
        """Clamped raveled pixel index of each node in ``shape``."""
        rows, cols = self.pixels(nodes, shape)
        return rows * shape[1] + cols

    def layers(self) -> Tuple[int, ...]:
        self.require_grid(np.arange(len(self.grid)))
        return tuple(int(layer) for layer in np.unique(self.layer))

    def bounding_box_um(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) in µm; ``ValueError`` when empty."""
        self.require_grid(np.arange(len(self.grid)))
        # division by a positive constant is monotone: min/max commute with it
        return (int(self.x.min()) / DBU_PER_UM, int(self.y.min()) / DBU_PER_UM,
                int(self.x.max()) / DBU_PER_UM, int(self.y.max()) / DBU_PER_UM)

    def shape_pixels(self) -> Tuple[int, int]:
        """(rows, cols) of the raster covering the node bounding box."""
        xmin, ymin, xmax, ymax = self.bounding_box_um()
        return _shape_pixels(xmax - xmin, ymax - ymin)

    def via_mask(self) -> np.ndarray:
        """Per resistor: both ends are nodes, on different layers."""
        ends = self.resistor_ends
        self.require_grid(ends.ravel())
        mask = (ends >= 0).all(axis=1)
        a, b = ends[mask].T
        mask[mask] = self.layer[a] != self.layer[b]
        return mask


def _element_list(slot: str) -> property:
    """An element-list attribute whose reassignment drops the caches."""

    def get(self):
        return getattr(self, slot)

    def set(self, elements):
        setattr(self, slot, elements)
        self._node_cache = None
        self._geometry = None

    return property(get, set)


class Netlist:
    """A static-IR PDN netlist: resistors + current sources + supplies.

    Mutate only through ``add_*`` or by reassigning a whole element list;
    in-place list edits leave :meth:`node_index` and :meth:`geometry`
    stale.
    """

    resistors = _element_list("_resistors")
    current_sources = _element_list("_current_sources")
    voltage_sources = _element_list("_voltage_sources")

    def __init__(self, name: str = "pdn"):
        self.name = name
        self.resistors: List[Resistor] = []
        self.current_sources: List[CurrentSource] = []
        self.voltage_sources: List[VoltageSource] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_resistor(self, node_a: str, node_b: str, resistance: float,
                     name: Optional[str] = None) -> Resistor:
        element = Resistor(name or f"R{len(self._resistors)}", node_a, node_b, resistance)
        self._resistors.append(element)
        self._node_cache = self._geometry = None
        return element

    def add_current_source(self, node: str, value: float,
                           name: Optional[str] = None) -> CurrentSource:
        element = CurrentSource(name or f"I{len(self._current_sources)}", node, value)
        self._current_sources.append(element)
        self._node_cache = self._geometry = None
        return element

    def add_voltage_source(self, node: str, value: float,
                           name: Optional[str] = None) -> VoltageSource:
        element = VoltageSource(name or f"V{len(self._voltage_sources)}", node, value)
        self._voltage_sources.append(element)
        self._node_cache = self._geometry = None
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
        for r in self._resistors:
            yield r.node_a
            yield r.node_b
        for i in self._current_sources:
            yield i.node
        for v in self._voltage_sources:
            yield v.node

    def geometry(self) -> NetlistGeometry:
        """The cached columnar geometry table (see module docstring)."""
        if self._geometry is None:
            self._geometry = NetlistGeometry(
                self.node_index(), self._resistors, self._current_sources,
                self._voltage_sources)
        return self._geometry

    @property
    def num_nodes(self) -> int:
        return len(self.node_index())

    def parsed_nodes(self) -> List[NodeName]:
        """Structured identities of every non-ground node."""
        return [parse_node(name) for name in self.node_index()]

    def layers(self) -> Tuple[int, ...]:
        return self.geometry().layers()

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
        if not self.node_index():
            raise ValueError(f"netlist {self.name!r} has no nodes")
        return self.geometry().bounding_box_um()

    def vias(self) -> List[Resistor]:
        """Resistors connecting different layers (the paper treats these
        as first-class citizens in the point-cloud encoding)."""
        return [self.resistors[i]
                for i in np.flatnonzero(self.geometry().via_mask())]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def statistics(self) -> NetlistStatistics:
        xmin, ymin, xmax, ymax = self.bounding_box_um()
        geometry = self.geometry()
        return NetlistStatistics(
            num_nodes=self.num_nodes,
            num_resistors=len(self.resistors),
            num_current_sources=len(self.current_sources),
            num_voltage_sources=len(self.voltage_sources),
            num_vias=int(geometry.via_mask().sum()),
            layers=geometry.layers(),
            width_um=xmax - xmin,
            height_um=ymax - ymin,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, nodes={self.num_nodes}, "
            f"R={len(self.resistors)}, I={len(self.current_sources)}, "
            f"V={len(self.voltage_sources)})"
        )
