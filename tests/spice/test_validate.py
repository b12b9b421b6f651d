"""Tests for netlist validation."""

import pytest

from repro.spice.netlist import Netlist
from repro.spice.validate import validate_netlist


def valid_netlist():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
    net.add_current_source("n1_m1_0_0", 0.01)
    net.add_voltage_source("n1_m1_1000_0", 1.0)
    return net


def test_valid_netlist_passes():
    report = validate_netlist(valid_netlist())
    assert report.ok
    assert not report.errors
    report.raise_if_failed()  # no exception


def test_empty_netlist_fails():
    report = validate_netlist(Netlist())
    assert not report.ok
    assert any("no resistors" in e for e in report.errors)
    assert any("no voltage sources" in e for e in report.errors)


def test_no_current_sources_warns():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
    net.add_voltage_source("n1_m1_0_0", 1.0)
    report = validate_netlist(net)
    assert report.ok
    assert any("no current sources" in w for w in report.warnings)


def test_duplicate_names_fail():
    net = valid_netlist()
    net.add_resistor("n1_m1_1000_0", "n1_m1_2000_0", 1.0, name="R0")
    report = validate_netlist(net)
    assert any("duplicate" in e for e in report.errors)


def test_malformed_node_name_fails():
    net = valid_netlist()
    net.add_resistor("n1_m1_1000_0", "bogus_node", 1.0)
    report = validate_netlist(net)
    assert any("malformed" in e for e in report.errors)


def test_floating_current_source_fails():
    net = valid_netlist()
    net.add_current_source("n1_m1_99000_99000", 0.01)
    report = validate_netlist(net)
    assert any("floating" in e for e in report.errors)


def test_unreachable_island_fails():
    net = valid_netlist()
    # disconnected pair of nodes with no path to the supply
    net.add_resistor("n1_m1_50000_0", "n1_m1_51000_0", 1.0)
    report = validate_netlist(net)
    assert any("no resistive path" in e for e in report.errors)


def test_raise_if_failed_raises():
    report = validate_netlist(Netlist())
    with pytest.raises(ValueError):
        report.raise_if_failed()


def test_unreachable_nodes_reported_without_ground():
    net = valid_netlist()
    net.add_resistor("n1_m1_50000_0", "0", 1.0)
    net.add_resistor("n1_m1_51000_0", "0", 1.0)
    report = validate_netlist(net)
    assert report.errors == [
        "2 node(s) have no resistive path to any supply "
        "(e.g. n1_m1_50000_0, n1_m1_51000_0)"]
