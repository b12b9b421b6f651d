"""The netlist geometry table against per-element loop oracles.

Every geometric query on the deck path reads :meth:`Netlist.geometry`,
a columnar table parsed once per netlist.  The ``oracle_*`` functions
below are the per-element loop versions those queries replaced: each
parses node names one at a time with :func:`parse_node`.  The table
versions must match them bit for bit, raise the same ``ValueError`` on
foreign names, and drop their caches when an element list is
reassigned.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import repro.spice.netlist as netlist_module
import repro.spice.nodes as nodes_module
from repro.features.density import pdn_density_map
from repro.features.distance import pad_positions_px
from repro.features.maps import (
    current_source_map,
    resistance_map,
    voltage_source_map,
)
from repro.features.stack import compute_feature_maps
from repro.ingest.classify import classify_deck
from repro.ingest.pipeline import ingest_text
from repro.pdn import PDNConfig, contest_stack, generate_pdn
from repro.pointcloud.encode import POINT_FEATURES, PointCloud, encode_netlist
from repro.solver.rasterize import node_positions_px, rasterize_ir_map
from repro.solver.static import IRSolveResult
from repro.spice.elements import CurrentSource, Resistor
from repro.spice.netlist import Netlist, NetlistStatistics
from repro.spice.nodes import parse_node, try_parse_node
from repro.spice.validate import (
    ValidationReport,
    _check_node_names,
    validate_netlist,
)
from repro.spice.writer import write_spice
from repro.train.loader import CasePreprocessor

# ----------------------------------------------------------------------
# Loop oracles: one parse_node call per node or element endpoint
# ----------------------------------------------------------------------


def oracle_parsed(netlist):
    return [parse_node(name) for name in netlist.node_index()]


def oracle_layers(netlist):
    return tuple(sorted({node.layer for node in oracle_parsed(netlist)}))


def oracle_bounding_box_um(netlist):
    nodes = oracle_parsed(netlist)
    if not nodes:
        raise ValueError(f"netlist {netlist.name!r} has no nodes")
    xs = [node.x_um for node in nodes]
    ys = [node.y_um for node in nodes]
    return (min(xs), min(ys), max(xs), max(ys))


def oracle_vias(netlist):
    result = []
    for r in netlist.resistors:
        a, b = parse_node(r.node_a), parse_node(r.node_b)
        if a is not None and b is not None and a.layer != b.layer:
            result.append(r)
    return result


def oracle_statistics(netlist):
    xmin, ymin, xmax, ymax = oracle_bounding_box_um(netlist)
    return NetlistStatistics(
        num_nodes=netlist.num_nodes,
        num_resistors=len(netlist.resistors),
        num_current_sources=len(netlist.current_sources),
        num_voltage_sources=len(netlist.voltage_sources),
        num_vias=len(oracle_vias(netlist)),
        layers=oracle_layers(netlist),
        width_um=xmax - xmin,
        height_um=ymax - ymin,
    )


def oracle_grid_foreign(netlist):
    grid = foreign = 0
    for name in netlist.node_index():
        if try_parse_node(name) is not None:
            grid += 1
        else:
            foreign += 1
    return grid, foreign


def oracle_pixel_of(name, shape):
    node = parse_node(name)
    if node is None:
        return None
    rows, cols = shape
    return (min(int(round(node.y_um)), rows - 1),
            min(int(round(node.x_um)), cols - 1))


def oracle_current_source_map(netlist, shape):
    raster = np.zeros(shape)
    for source in netlist.current_sources:
        pixel = oracle_pixel_of(source.node, shape)
        if pixel is not None:
            raster[pixel] += source.value
    return raster


def oracle_voltage_source_map(netlist, shape):
    raster = np.zeros(shape)
    for source in netlist.voltage_sources:
        pixel = oracle_pixel_of(source.node, shape)
        if pixel is not None:
            raster[pixel] = max(raster[pixel], source.value)
    return raster


def oracle_resistance_map(netlist, shape):
    raster = np.zeros(shape)
    rows, cols = shape
    for resistor in netlist.resistors:
        a = parse_node(resistor.node_a)
        b = parse_node(resistor.node_b)
        if a is None or b is None:
            continue
        r0 = min(int(round(a.y_um)), rows - 1)
        c0 = min(int(round(a.x_um)), cols - 1)
        r1 = min(int(round(b.y_um)), rows - 1)
        c1 = min(int(round(b.x_um)), cols - 1)
        if r0 == r1 and c0 == c1:
            raster[r0, c0] += resistor.resistance
            continue
        length = abs(r1 - r0) + abs(c1 - c0) + 1
        share = resistor.resistance / length
        if r0 == r1:
            lo, hi = sorted((c0, c1))
            raster[r0, lo:hi + 1] += share
        elif c0 == c1:
            lo, hi = sorted((r0, r1))
            raster[lo:hi + 1, c0] += share
        else:
            raster[r0, c0] += resistor.resistance / 2
            raster[r1, c1] += resistor.resistance / 2
    return raster


def oracle_pdn_density_map(netlist, shape, window_px=15):
    rows, cols = shape
    counts = np.zeros(shape)
    for name in netlist.node_index():
        node = parse_node(name)
        if node is None:
            continue
        row = min(int(round(node.y_um)), rows - 1)
        col = min(int(round(node.x_um)), cols - 1)
        counts[row, col] += 1.0
    return ndimage.uniform_filter(counts, size=window_px, mode="nearest")


def oracle_pad_positions_px(netlist):
    positions = []
    for source in netlist.voltage_sources:
        node = parse_node(source.node)
        if node is not None:
            positions.append((node.y_um, node.x_um))
    if not positions:
        raise ValueError("netlist has no voltage sources for a distance map")
    return np.array(positions)


def oracle_node_positions_px(netlist, layer=None):
    positions = []
    for name in netlist.node_index():
        node = parse_node(name)
        if node is None or (layer is not None and node.layer != layer):
            continue
        positions.append((int(round(node.y_um)), int(round(node.x_um))))
    return (np.array(positions, dtype=int) if positions
            else np.empty((0, 2), dtype=int))


def oracle_rasterize_ir_map(netlist, result, shape, layer=1, smooth_sigma=1.0):
    rows, cols = shape
    accumulator = np.zeros(shape)
    counts = np.zeros(shape)
    for name, drop in result.ir_drop().items():
        node = parse_node(name)
        if node is None or node.layer != layer:
            continue
        row = min(int(round(node.y_um)), rows - 1)
        col = min(int(round(node.x_um)), cols - 1)
        accumulator[row, col] += drop
        counts[row, col] += 1.0
    filled = counts > 0
    if not filled.any():
        raise ValueError(f"no nodes on layer m{layer} to rasterise")
    values = np.zeros(shape)
    values[filled] = accumulator[filled] / counts[filled]
    if not filled.all():
        _, (near_rows, near_cols) = ndimage.distance_transform_edt(
            ~filled, return_indices=True)
        values = values[near_rows, near_cols]
    if smooth_sigma > 0:
        values = ndimage.gaussian_filter(values, sigma=smooth_sigma)
    return values


def oracle_encode_netlist(netlist, die_size_um=None):
    if die_size_um is None:
        xmin, ymin, xmax, ymax = oracle_bounding_box_um(netlist)
        width, height = max(xmax - xmin, 1e-9), max(ymax - ymin, 1e-9)
    else:
        width, height = die_size_um
    max_layer = max(oracle_layers(netlist)) if netlist.num_nodes else 1
    total = (len(netlist.resistors) + len(netlist.current_sources)
             + len(netlist.voltage_sources))
    points = np.zeros((total, POINT_FEATURES))
    row = 0
    resistances = np.array([r.resistance for r in netlist.resistors])
    log_r = np.log1p(resistances) if resistances.size else resistances
    r_scale = max(float(log_r.max()), 1e-12) if log_r.size else 1.0
    currents = np.array([i.value for i in netlist.current_sources])
    i_mean = float(currents.mean()) if currents.size else 0.0
    i_std = max(float(currents.std()), 1e-12) if currents.size else 1.0
    vdd = netlist.voltage_sources[0].value if netlist.voltage_sources else 1.0
    for index, resistor in enumerate(netlist.resistors):
        a, b = parse_node(resistor.node_a), parse_node(resistor.node_b)
        if a is None or b is None:
            continue
        points[row, :4] = (a.x_um / width, a.y_um / height,
                           b.x_um / width, b.y_um / height)
        points[row, 4] = log_r[index] / r_scale
        points[row, 5] = 1.0
        points[row, 8] = a.layer / max_layer
        points[row, 9] = b.layer / max_layer
        points[row, 10] = 1.0 if a.layer != b.layer else 0.0
        row += 1
    for source in netlist.current_sources:
        node = parse_node(source.node)
        if node is None:
            continue
        points[row, :2] = (node.x_um / width, node.y_um / height)
        points[row, 4] = (source.value - i_mean) / i_std
        points[row, 6] = 1.0
        points[row, 8] = node.layer / max_layer
        row += 1
    for source in netlist.voltage_sources:
        node = parse_node(source.node)
        if node is None:
            continue
        points[row, :2] = (node.x_um / width, node.y_um / height)
        points[row, 4] = source.value / vdd
        points[row, 7] = 1.0
        points[row, 8] = node.layer / max_layer
        row += 1
    return PointCloud(points=points[:row], die_width_um=width,
                      die_height_um=height, max_layer=max_layer)


def oracle_malformed_names(netlist):
    errors = []
    for name in netlist.node_index():
        try:
            parse_node(name)
        except ValueError:
            errors.append(f"malformed node name {name!r}")
    return errors


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """A call's value, or its exception type and message."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as error:
        return "error", type(error), str(error)


def assert_identical(actual, expected):
    """Bit-identical arrays (shape and dtype kind too), or equal values."""
    assert actual[0] == expected[0], (actual, expected)
    if actual[0] == "error":
        assert actual == expected
        return
    got, want = actual[1], expected[1]
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    elif isinstance(want, PointCloud):
        assert got.points.shape == want.points.shape
        assert np.array_equal(got.points, want.points)
        assert (got.die_width_um, got.die_height_um, got.max_layer) == (
            want.die_width_um, want.die_height_um, want.max_layer)
    else:
        assert got == want


MAPS = [
    (current_source_map, oracle_current_source_map),
    (voltage_source_map, oracle_voltage_source_map),
    (resistance_map, oracle_resistance_map),
    (pdn_density_map, oracle_pdn_density_map),
]


def check_all(netlist, shape):
    """Every table query against its oracle, on one netlist and raster."""
    for query, oracle in [
        (Netlist.statistics, oracle_statistics),
        (Netlist.layers, oracle_layers),
        (Netlist.bounding_box_um, oracle_bounding_box_um),
        (Netlist.vias, oracle_vias),
        (pad_positions_px, oracle_pad_positions_px),
        (node_positions_px, oracle_node_positions_px),
        (encode_netlist, oracle_encode_netlist),
    ]:
        assert_identical(outcome(query, netlist), outcome(oracle, netlist))
    assert_identical(outcome(node_positions_px, netlist, layer=1),
                     outcome(oracle_node_positions_px, netlist, layer=1))
    die = (max(shape[1] - 1.0, 1.0), max(shape[0] - 1.0, 1.0))
    assert_identical(outcome(encode_netlist, netlist, die),
                     outcome(oracle_encode_netlist, netlist, die))
    for query, oracle in MAPS:
        assert_identical(outcome(query, netlist, shape),
                         outcome(oracle, netlist, shape))
    verdict = classify_deck(netlist)
    assert (verdict.grid_nodes, verdict.foreign_nodes) == \
        oracle_grid_foreign(netlist)
    report = ValidationReport()
    _check_node_names(netlist, report)
    assert report.errors == oracle_malformed_names(netlist)


# ----------------------------------------------------------------------
# Hypothesis-generated netlists
# ----------------------------------------------------------------------

# multiples of 250 dbu: sub-pixel steps, and half-µm values (500, 1500,
# 2500, ...) where round-half-even decides the pixel
coordinate = st.integers(0, 48).map(lambda k: 250 * k)
grid_name = st.builds(lambda layer, x, y: f"n1_m{layer}_{x}_{y}",
                      st.integers(1, 3), coordinate, coordinate)
foreign_name = st.sampled_from(["vdd_a", "x1.n3", "n1_m1_5"])


@st.composite
def netlists(draw, foreign=False):
    pool = draw(st.lists(grid_name, min_size=2, max_size=14, unique=True))
    if foreign:
        pool += draw(st.lists(foreign_name, min_size=1, max_size=2,
                              unique=True))
    endpoint = st.sampled_from(pool + ["0"])
    net = Netlist("drawn")
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):  # axis-aligned wire, via or sub-pixel step
            a = draw(st.sampled_from(pool))
            fields = try_parse_node(a)
            if fields is None:
                b = draw(endpoint)
            else:
                layer, x, y = fields.layer, fields.x, fields.y
                move = draw(st.sampled_from(["x", "y", "layer", "sub"]))
                if move == "x":
                    x = draw(coordinate)
                elif move == "y":
                    y = draw(coordinate)
                elif move == "layer":
                    layer = layer % 3 + 1
                else:
                    x += 250
                b = f"n1_m{layer}_{x}_{y}"
        else:  # any pair, usually not axis-aligned
            a, b = draw(endpoint), draw(endpoint)
        if a != b:
            resistance = draw(st.floats(1e-3, 50.0, allow_nan=False))
            net.add_resistor(a, b, resistance)
    for _ in range(draw(st.integers(0, 6))):
        net.add_current_source(draw(endpoint), draw(st.floats(0.0, 0.2)))
    for _ in range(draw(st.integers(0, 3))):
        net.add_voltage_source(draw(endpoint), draw(st.floats(0.5, 1.2)))
    return net


def raster_for(draw, netlist):
    """The bounding-box raster, or a smaller one whose edge clamps."""
    stats = outcome(oracle_statistics, netlist)
    rows, cols = stats[1].shape_pixels if stats[0] == "ok" else (13, 13)
    if draw(st.booleans()):
        rows = draw(st.integers(1, rows))
        cols = draw(st.integers(1, cols))
    return rows, cols


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(st.data())
def test_grid_netlists_match_loop_oracles(data):
    netlist = data.draw(netlists())
    check_all(netlist, raster_for(data.draw, netlist))


@SETTINGS
@given(st.data())
def test_foreign_names_raise_like_the_oracles(data):
    netlist = data.draw(netlists(foreign=True))
    check_all(netlist, raster_for(data.draw, netlist))


@SETTINGS
@given(st.data())
def test_golden_map_matches_loop_oracle(data):
    netlist = data.draw(netlists())
    # tiny rasters clamp many nodes into one pixel, where the summation
    # order shows in the last bits
    shape = data.draw(st.sampled_from([raster_for(data.draw, netlist),
                                       (1, 1), (2, 3)]))
    names = list(netlist.node_index())
    # any voltages in any node order: the scatter follows the result's
    # own order, like the loop
    order = data.draw(st.permutations(names))
    voltages = data.draw(st.lists(st.floats(0.0, 1.2), min_size=len(names),
                                  max_size=len(names)))
    result = IRSolveResult(node_voltages=dict(zip(order, voltages)),
                           vdd=1.2, solve_seconds=0.0)
    layer = data.draw(st.integers(1, 3))
    sigma = data.draw(st.sampled_from([0.0, 1.0]))
    assert_identical(
        outcome(rasterize_ir_map, netlist, result, shape, layer, sigma),
        outcome(oracle_rasterize_ir_map, netlist, result, shape, layer, sigma))


@SETTINGS
@given(st.data())
def test_reassigned_current_sources_reach_the_maps(data):
    netlist = data.draw(netlists())
    shape = raster_for(data.draw, netlist)
    first = outcome(current_source_map, netlist, shape)
    assert_identical(first, outcome(oracle_current_source_map, netlist, shape))
    pool = list(netlist.node_index()) + ["0"]
    netlist.current_sources = [
        CurrentSource(f"I{k}", data.draw(st.sampled_from(pool)),
                      data.draw(st.floats(0.0, 0.2)))
        for k in range(data.draw(st.integers(0, 6)))]
    for query, oracle in MAPS:
        assert_identical(outcome(query, netlist, shape),
                         outcome(oracle, netlist, shape))
    assert_identical(outcome(encode_netlist, netlist),
                     outcome(oracle_encode_netlist, netlist))


# ----------------------------------------------------------------------
# Generated decks of the benchmark's die sizes, through the deck path
# ----------------------------------------------------------------------

BENCHMARK_EDGES_UM = [64.0 + 112.0 * ((k + 0.5) / 24) ** 2
                      for k in range(1, 24, 3)]


@pytest.mark.parametrize("edge", BENCHMARK_EDGES_UM,
                         ids=[f"{e:.0f}um" for e in BENCHMARK_EDGES_UM])
def test_benchmark_decks_match_loop_oracles(edge):
    config = PDNConfig(stack=contest_stack(), width_um=edge, height_um=edge,
                       total_current=0.08, num_pads=6, hotspots=4,
                       tap_spacing_um=4.0, seed=int(edge * 7))
    ingested = ingest_text(write_spice(generate_pdn(config).netlist),
                           name="deck")
    netlist, case = ingested.netlist, ingested.case
    shape = case.shape
    assert classify_deck(netlist).category == "pdn-grid"
    assert (ingested.classification.grid_nodes,
            ingested.classification.foreign_nodes) == \
        oracle_grid_foreign(netlist)
    assert netlist.statistics() == oracle_statistics(netlist)
    assert shape == oracle_statistics(netlist).shape_pixels
    maps = compute_feature_maps(netlist, shape)
    for name, oracle in [("current_src", oracle_current_source_map),
                         ("voltage_src", oracle_voltage_source_map),
                         ("resistance", oracle_resistance_map),
                         ("pdn_density", oracle_pdn_density_map)]:
        assert np.array_equal(case.feature_maps[name], oracle(netlist, shape))
        assert np.array_equal(maps[name], case.feature_maps[name])
    layer = min(oracle_layers(netlist))
    assert np.array_equal(
        ingested.golden_map,
        oracle_rasterize_ir_map(netlist, ingested.solve, shape, layer=layer))
    die = (max(shape[1] - 1.0, 1.0), max(shape[0] - 1.0, 1.0))
    assert_identical(("ok", case.point_cloud()),
                     ("ok", oracle_encode_netlist(netlist, die)))
    check_all(netlist, shape)


# ----------------------------------------------------------------------
# Cache contract and parse counts
# ----------------------------------------------------------------------


def test_reassigning_an_element_list_drops_derived_state():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
    assert list(net.node_index()) == ["n1_m1_0_0", "n1_m1_1000_0"]
    assert net.statistics().width_um == 1.0
    net.resistors = [Resistor("R9", "n1_m1_0_0", "n1_m1_5000_0", 1.0)]
    assert list(net.node_index()) == ["n1_m1_0_0", "n1_m1_5000_0"]
    assert net.statistics().width_um == 5.0
    net.voltage_sources = []
    net.add_voltage_source("n1_m1_9000_0", 1.0)
    assert net.statistics().width_um == 9.0
    net.current_sources = [CurrentSource("I0", "n1_m2_0_3000", 0.1)]
    assert net.statistics().height_um == 3.0
    assert net.layers() == (1, 2)


def test_table_is_built_once_and_kept_compact():
    net = generate_pdn(PDNConfig(stack=contest_stack(), width_um=40,
                                 height_um=40, seed=3)).netlist
    geometry = net.geometry()
    assert net.geometry() is geometry
    for column in (geometry.layer, geometry.x, geometry.y,
                   geometry.resistor_ends, geometry.current_nodes,
                   geometry.voltage_nodes):
        assert column.dtype == np.int32
    assert geometry.grid.dtype == bool
    net.add_current_source(next(iter(net.node_index())), 0.01)
    assert net.geometry() is not geometry


def test_coordinates_past_int32_are_foreign():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", f"n1_m1_{2**31}_0", 1.0)
    net.add_voltage_source("n1_m1_0_0", 1.0)
    assert try_parse_node(f"n1_m1_{2**31 - 1}_0") is not None
    assert try_parse_node(f"n1_m1_{2**31}_0") is None
    verdict = classify_deck(net)
    assert (verdict.grid_nodes, verdict.foreign_nodes) == (1, 1)
    with pytest.raises(ValueError, match="unrecognised node name"):
        net.statistics()


def test_malformed_name_messages_are_pinned():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "vdd_core", 1.0)
    net.add_resistor("vdd_core", "n1_mx_1_2", 1.0)
    net.add_voltage_source("n1_m1_0_0", 1.0)
    report = validate_netlist(net)
    assert report.errors == ["malformed node name 'vdd_core'",
                             "malformed node name 'n1_mx_1_2'"]
    assert validate_netlist(net, require_grid_names=False).ok


def test_deck_path_parses_each_node_once(monkeypatch):
    """``ingest_text`` + ``prepare_deterministic`` of a ~2k-node deck.

    ``node_fields`` is the one parser under ``try_parse_node`` and
    ``parse_node`` as well as the table, so counting it counts every
    node-name parse on the path.
    """
    counts = {"node_fields": 0, "try_parse_node": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    fields = counting("node_fields", nodes_module.node_fields)
    monkeypatch.setattr(nodes_module, "node_fields", fields)
    monkeypatch.setattr(netlist_module, "node_fields", fields)
    monkeypatch.setattr(nodes_module, "try_parse_node",
                        counting("try_parse_node",
                                 nodes_module.try_parse_node))

    config = PDNConfig(stack=contest_stack(), width_um=80, height_um=80,
                       total_current=0.08, num_pads=6, hotspots=4,
                       tap_spacing_um=4.0, seed=11)
    deck = write_spice(generate_pdn(config).netlist)
    counts.update(node_fields=0, try_parse_node=0)
    ingested = ingest_text(deck, name="deck")
    prep = CasePreprocessor(target_edge=32, num_points=64)
    prep.fit([ingested.case])
    prep.prepare_deterministic(ingested.case)

    distinct = ingested.netlist.num_nodes
    assert 1500 <= distinct <= 3000
    assert counts["node_fields"] <= distinct
    assert counts["try_parse_node"] <= distinct
