"""Structured two-layer triangle meshes of a fluid/solid channel.

The fluid occupies the lower rectangle [0, L] x [0, H_f], the solid the upper
rectangle [0, L] x [H_f, H_f + H_s].  The shared horizontal segment y = H_f is
the interface; each subdomain is clamped on the rest of its boundary.  Both
boundary sets follow from the cells alone (see `spaces.build_space`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLUID = 0
SOLID = 1


@dataclass(frozen=True)
class ChannelGeometry:
    """Rectangular two-layer channel: fluid below, solid above."""

    length: float
    fluid_height: float
    solid_height: float

    def __post_init__(self):
        if self.length <= 0 or self.fluid_height <= 0 or self.solid_height <= 0:
            raise ValueError("geometry dimensions must be positive")


@dataclass
class Mesh:
    """Conforming triangulation of the two subdomains.

    vertices : (nv, 2) float array
    cells : (nc, 3) int array, counter-clockwise orientation
    cell_domain : (nc,) int array with values FLUID / SOLID
    """

    vertices: np.ndarray
    cells: np.ndarray
    cell_domain: np.ndarray

    def cells_of(self, domain: int) -> np.ndarray:
        return np.flatnonzero(self.cell_domain == domain)


def build_two_layer_mesh(geom: ChannelGeometry, nx: int, ny_f: int, ny_s: int) -> Mesh:
    """Build the structured crossed-triangle mesh of the two-layer channel.

    Each grid quad is split along its lower-left/upper-right diagonal.  The
    interface vertices at y = H_f are shared by fluid and solid cells, so the
    subdomain meshes match vertex-for-vertex on the interface.
    """
    if nx < 1 or ny_f < 1 or ny_s < 1:
        raise ValueError("cell counts must be >= 1")
    L, Hf, Hs = geom.length, geom.fluid_height, geom.solid_height

    xs = np.linspace(0.0, L, nx + 1)
    ys = np.concatenate([np.linspace(0.0, Hf, ny_f + 1),
                         np.linspace(Hf, Hf + Hs, ny_s + 1)[1:]])
    ny = ny_f + ny_s
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left vertex of each grid quad, row by row
    j, i = np.divmod(np.arange(ny * nx), nx)
    v00 = j * (nx + 1) + i
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    cell_domain = np.repeat(np.where(j < ny_f, FLUID, SOLID), 2)
    return Mesh(vertices=vertices, cells=cells.astype(np.int64),
                cell_domain=cell_domain.astype(np.int64))

