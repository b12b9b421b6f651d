"""Tests for the Netlist container."""

import pytest

from repro.spice.netlist import Netlist


def small_netlist():
    net = Netlist("test")
    net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
    net.add_resistor("n1_m1_1000_0", "n1_m1_2000_0", 1.0)
    net.add_resistor("n1_m1_1000_0", "n1_m4_1000_0", 0.5)  # via
    net.add_current_source("n1_m1_0_0", 0.01)
    net.add_voltage_source("n1_m4_1000_0", 1.1)
    return net


def test_node_index_excludes_ground():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "0", 5.0)
    assert list(net.node_index()) == ["n1_m1_0_0"]


def test_node_index_stable_and_dense():
    net = small_netlist()
    index = net.node_index()
    assert sorted(index.values()) == list(range(len(index)))
    assert net.num_nodes == 4


def test_auto_names_are_unique():
    net = small_netlist()
    names = [r.name for r in net.resistors]
    assert len(set(names)) == len(names)


def test_layers_detected():
    assert small_netlist().layers() == (1, 4)


def test_vias_detected():
    vias = small_netlist().vias()
    assert len(vias) == 1
    assert vias[0].resistance == 0.5


def test_supply_voltage():
    assert small_netlist().supply_voltage() == 1.1
    with pytest.raises(ValueError):
        Netlist().supply_voltage()


def test_bounding_box():
    xmin, ymin, xmax, ymax = small_netlist().bounding_box_um()
    assert (xmin, ymin) == (0.0, 0.0)
    assert (xmax, ymax) == (2.0, 0.0)


def test_bounding_box_empty_raises():
    with pytest.raises(ValueError):
        Netlist().bounding_box_um()


def test_statistics():
    stats = small_netlist().statistics()
    assert stats.num_nodes == 4
    assert stats.num_resistors == 3
    assert stats.num_current_sources == 1
    assert stats.num_voltage_sources == 1
    assert stats.num_vias == 1
    assert stats.layers == (1, 4)
    assert stats.shape_pixels == (1, 3)


def test_cache_invalidated_on_mutation():
    net = small_netlist()
    before = net.num_nodes
    net.add_resistor("n1_m4_1000_0", "n1_m4_9000_0", 2.0)
    assert net.num_nodes == before + 1


def test_unsupplied_nodes_follow_resistive_paths():
    net = Netlist()
    net.add_resistor("a", "b", 1.0)
    net.add_voltage_source("a", 1.0)
    net.add_resistor("c", "d", 1.0)          # island
    net.add_resistor("e", "0", 1.0)          # e and f meet only at ground
    net.add_resistor("f", "0", 1.0)
    net.add_current_source("g", 0.1)         # no resistor: not in the graph
    assert net.unsupplied_nodes() == ["c", "d", "e", "0", "f"]
    net.add_resistor("0", "b", 1.0)          # ground now reaches the supply
    assert net.unsupplied_nodes() == ["c", "d"]
    assert Netlist().unsupplied_nodes() == []
