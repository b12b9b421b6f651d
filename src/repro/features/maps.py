"""Circuit-modality feature maps scattered from netlist elements.

Implements the contest's given features plus the paper's three *extra*
maps (§III-A): voltage-source map, current-source map and resistance map.
All maps are 1 µm-per-pixel rasters in (row=y, col=x) orientation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.spice.netlist import Netlist

__all__ = [
    "map_shape_for",
    "current_map",
    "current_source_map",
    "voltage_source_map",
    "resistance_map",
]


def map_shape_for(netlist: Netlist) -> Tuple[int, int]:
    """Default raster shape: the netlist bounding box at 1 µm per pixel."""
    return netlist.statistics().shape_pixels


def scatter_add(flat: np.ndarray, weights: Optional[np.ndarray],
                shape: Tuple[int, int]) -> np.ndarray:
    """Sum ``weights`` (or 1.0 each) into raveled pixels ``flat``.

    ``bincount`` adds in input order, so the raster is bit-identical to
    a ``raster[pixel] += value`` loop over the same sequence.
    """
    counts = np.bincount(flat, weights=weights, minlength=shape[0] * shape[1])
    return counts.astype(float, copy=False).reshape(shape)


def current_map(netlist: Netlist, shape: Optional[Tuple[int, int]] = None,
                power_density: Optional[np.ndarray] = None) -> np.ndarray:
    """The contest's current map.

    When the generating power-density field is available (synthetic cases)
    the map is the smooth demand field scaled to the netlist's total
    current — mirroring how the contest derives it from instance power
    rather than from the lumped PDN taps.  Otherwise falls back to
    scattering the current-source values.
    """
    shape = shape or map_shape_for(netlist)
    total = sum(source.value for source in netlist.current_sources)
    if power_density is not None:
        if power_density.shape != shape:
            raise ValueError(
                f"power density shape {power_density.shape} != raster {shape}"
            )
        density_sum = power_density.sum()
        if density_sum <= 0:
            raise ValueError("power density must have positive mass")
        return power_density / density_sum * total
    return current_source_map(netlist, shape)


def current_source_map(netlist: Netlist,
                       shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Paper extra feature: lumped tap currents at their exact positions."""
    shape = shape or map_shape_for(netlist)
    geometry = netlist.geometry()
    nodes = geometry.current_nodes
    geometry.require_grid(nodes)
    keep = nodes >= 0
    values = np.fromiter((s.value for s in netlist.current_sources),
                         dtype=float, count=len(nodes))
    return scatter_add(geometry.flat_pixels(nodes[keep], shape), values[keep],
                       shape)


def voltage_source_map(netlist: Netlist,
                       shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Paper extra feature: supply voltage scattered at pad positions."""
    shape = shape or map_shape_for(netlist)
    geometry = netlist.geometry()
    nodes = geometry.voltage_nodes
    geometry.require_grid(nodes)
    keep = nodes >= 0
    values = np.fromiter((s.value for s in netlist.voltage_sources),
                         dtype=float, count=len(nodes))
    raster = np.zeros(shape)
    np.maximum.at(raster.reshape(-1), geometry.flat_pixels(nodes[keep], shape),
                  values[keep])
    return raster


def resistance_map(netlist: Netlist,
                   shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Paper extra feature: each resistor's value distributed over the
    grid cells its segment overlaps (vias land on a single pixel).

    A segment within one pixel (a via) puts its whole value there; an
    axis-aligned PDN wire spreads it uniformly over the ``n`` pixels it
    spans; a non-axis-aligned (foreign) resistor puts half on each end
    pixel.  Every case is ``n`` entries of ``R / n`` stepping from the
    first pixel, accumulated in resistor order.
    """
    shape = shape or map_shape_for(netlist)
    geometry = netlist.geometry()
    ends = geometry.resistor_ends
    geometry.require_grid(ends.ravel())
    keep = (ends >= 0).all(axis=1)
    r0, c0 = geometry.pixels(ends[keep, 0], shape)
    r1, c1 = geometry.pixels(ends[keep, 1], shape)
    resistance = np.fromiter((r.resistance for r in netlist.resistors),
                             dtype=float, count=len(ends))[keep]

    same_row, same_col = r0 == r1, c0 == c1
    aligned = same_row | same_col
    # axis-aligned: walk from the low end, one pixel a step (a via takes
    # no step); otherwise the two end pixels, first then second
    start_r = np.where(aligned, np.minimum(r0, r1), r0)
    start_c = np.where(aligned, np.minimum(c0, c1), c0)
    step_r = np.where(aligned, (~same_row).astype(np.intp), r1 - r0)
    step_c = np.where(aligned, (~same_col).astype(np.intp), c1 - c0)
    count = np.where(aligned, np.abs(r1 - r0) + np.abs(c1 - c0) + 1, 2)

    owner = np.repeat(np.arange(len(count)), count)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    rows = start_r[owner] + offset * step_r[owner]
    cols = start_c[owner] + offset * step_c[owner]
    return scatter_add(rows * shape[1] + cols, (resistance / count)[owner],
                       shape)
