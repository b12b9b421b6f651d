"""PDN node naming in the ICCAD-2023 contest convention.

Nodes are named ``n{net}_m{layer}_{x}_{y}`` where ``x``/``y`` are database
units (nanometres) and ``layer`` indexes the metal layer (m1 is the standard
cell rail layer, higher numbers are upper metals).  The special name ``0``
denotes ground.

Every field must fit a signed 32-bit integer: coordinates past
2 147 483 647 nm (2.1 m, no die) make the name foreign, so
:class:`~repro.spice.netlist.Netlist`'s int32 geometry table holds every
contest name exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["NodeName", "GROUND", "parse_node", "try_parse_node",
           "node_fields", "format_node", "DBU_PER_UM"]

GROUND = "0"

DBU_PER_UM = 1000
"""Database units per micrometre (contest netlists use nanometre coords)."""

_NODE_RE = re.compile(r"^n(\d+)_m(\d+)_(\d+)_(\d+)$")

_FIELD_MAX = 2**31 - 1


@dataclass(frozen=True, order=True)
class NodeName:
    """Structured PDN node identity.

    Attributes
    ----------
    net:
        Power net index (the contest uses a single VDD net, net 1).
    layer:
        Metal layer number (1 = lowest / cell rails).
    x, y:
        Coordinates in database units (nm).
    """

    net: int
    layer: int
    x: int
    y: int

    @property
    def x_um(self) -> float:
        return self.x / DBU_PER_UM

    @property
    def y_um(self) -> float:
        return self.y / DBU_PER_UM

    def __str__(self) -> str:
        return format_node(self)


def parse_node(name: str) -> Optional[NodeName]:
    """Parse a node string; ``None`` for ground, raises on foreign names."""
    if name == GROUND:
        return None
    node = try_parse_node(name)
    if node is None:
        raise ValueError(f"unrecognised node name {name!r}")
    return node


def try_parse_node(name: str) -> Optional[NodeName]:
    """Parse a node string; ``None`` for ground *or* foreign names.

    The tolerant twin of :func:`parse_node` — ingestion uses it to ask
    "does this deck carry grid coordinates?" without turning the answer
    into an exception.
    """
    fields = node_fields(name)
    return None if fields is None else NodeName(*fields)


def node_fields(name: str) -> Optional[Tuple[int, int, int, int]]:
    """``(net, layer, x, y)`` of a contest name; ``None`` for ground or
    foreign names.  The one parser behind every other entry point."""
    match = _NODE_RE.match(name)
    if match is None:
        return None
    net, layer, x, y = fields = tuple(map(int, match.groups()))
    if net > _FIELD_MAX or layer > _FIELD_MAX or x > _FIELD_MAX or y > _FIELD_MAX:
        return None
    return fields


def format_node(node: NodeName) -> str:
    """Render a :class:`NodeName` back to the contest string form."""
    return f"n{node.net}_m{node.layer}_{node.x}_{node.y}"
