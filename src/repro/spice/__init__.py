"""``repro.spice`` — SPICE netlist substrate (ICCAD-2023 dialect).

Data model (:mod:`~repro.spice.elements`, :mod:`~repro.spice.netlist`),
node naming (:mod:`~repro.spice.nodes`), parsing/writing and validation.
"""

from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.netlist import Netlist, NetlistGeometry, NetlistStatistics
from repro.spice.nodes import (
    DBU_PER_UM, GROUND, NodeName, format_node, parse_node, try_parse_node,
)
from repro.spice.parser import (
    Diagnostic, SpiceParseError, parse_spice, parse_spice_file, parse_value,
)
from repro.spice.validate import ValidationReport, validate_netlist
from repro.spice.writer import write_spice, write_spice_file

__all__ = [
    "Resistor", "CurrentSource", "VoltageSource",
    "Netlist", "NetlistGeometry", "NetlistStatistics",
    "NodeName", "GROUND", "DBU_PER_UM", "parse_node", "try_parse_node",
    "format_node",
    "parse_spice", "parse_spice_file", "parse_value", "SpiceParseError",
    "Diagnostic",
    "write_spice", "write_spice_file",
    "validate_netlist", "ValidationReport",
]
