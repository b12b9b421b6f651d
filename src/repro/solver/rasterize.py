"""Rasterising node-wise solver output into per-pixel IR-drop maps.

The contest's golden data is a 1 µm-per-pixel CSV map; node voltages only
exist at PDN nodes, so off-node pixels are filled by nearest-node
assignment followed by optional Gaussian smoothing (matching how the
public benchmark maps look: smooth basins around each hotspot).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.features.maps import scatter_add
from repro.solver.static import IRSolveResult
from repro.spice.netlist import Netlist

__all__ = ["rasterize_ir_map", "node_positions_px"]


def node_positions_px(netlist: Netlist, layer: Optional[int] = None) -> np.ndarray:
    """Integer (row, col) pixel positions of nodes (optionally one layer)."""
    geometry = netlist.geometry()
    nodes = np.arange(netlist.num_nodes)
    geometry.require_grid(nodes)
    if layer is not None:
        nodes = nodes[geometry.layer == layer]
    return np.stack(geometry.pixels(nodes), axis=1).astype(int)


def rasterize_ir_map(
    netlist: Netlist,
    result: IRSolveResult,
    shape: Optional[Tuple[int, int]] = None,
    layer: int = 1,
    smooth_sigma: float = 1.0,
) -> np.ndarray:
    """Build the golden IR-drop map from a solve result.

    Parameters
    ----------
    shape:
        Output raster (rows, cols); defaults to the netlist bounding box
        at 1 µm per pixel.
    layer:
        Metal layer whose nodes define the map (m1: where instances sit).
    smooth_sigma:
        Gaussian smoothing radius in pixels applied after nearest-node
        fill (0 disables).
    """
    if shape is None:
        stats = netlist.statistics()
        shape = stats.shape_pixels

    # in the result's own node order, so each pixel sums its drops in
    # the same sequence as a per-node loop would; a name outside the
    # netlist (ground) has no pixel
    voltages = result.node_voltages
    index = netlist.node_index()
    nodes = np.fromiter((index.get(name, -1) for name in voltages),
                        dtype=np.intp, count=len(voltages))
    drops = result.vdd - np.fromiter(voltages.values(), dtype=float,
                                     count=len(voltages))
    geometry = netlist.geometry()
    geometry.require_grid(nodes)
    drops, nodes = drops[nodes >= 0], nodes[nodes >= 0]
    on_layer = geometry.layer[nodes] == layer
    flat = geometry.flat_pixels(nodes[on_layer], shape)
    accumulator = scatter_add(flat, drops[on_layer], shape)
    counts = scatter_add(flat, None, shape)

    filled = counts > 0
    if not filled.any():
        raise ValueError(f"no nodes on layer m{layer} to rasterise")
    values = np.zeros(shape)
    values[filled] = accumulator[filled] / counts[filled]

    # nearest-node fill for pixels without a PDN node
    if not filled.all():
        _, (near_rows, near_cols) = ndimage.distance_transform_edt(
            ~filled, return_indices=True
        )
        values = values[near_rows, near_cols]

    if smooth_sigma > 0:
        values = ndimage.gaussian_filter(values, sigma=smooth_sigma)
    return values
